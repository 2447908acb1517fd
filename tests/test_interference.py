"""Interference maps, the reflexive-transitive program order, and the
not-reads-from pruning of interference combinations."""

import pytest

from ramosaic.interference import (CTX, CombinationBudgetExceeded,
                                   feasible_combinations, get_interfs,
                                   is_feasible)
from ramosaic.litmus import Label, build_cfg, parse
from ramosaic.oracle import enumerate_executions

from conftest import MP_SRC, WHY_IC_SRC, corpus_files


def test_get_interfs_mp():
    p = parse(MP_SRC)
    m = get_interfs(p, build_cfg(p))
    assert m["t2"][Label("c")] == (CTX, Label("b"))
    assert m["t2"][Label("d")] == (CTX, Label("a"))
    assert m["t1"] == {}


def test_get_interfs_single_thread():
    p = parse("vars x = 0;\nthread t { a: store x 1; c: r = load x; }")
    m = get_interfs(p, build_cfg(p))
    assert m["t"][Label("c")] == (CTX,)


def test_get_interfs_two_writers():
    src = """
vars x = 0;
thread w1 { a: store x 1; }
thread w2 { b: store x 2; }
thread r0 { c: r = load x; }
"""
    p = parse(src)
    m = get_interfs(p, build_cfg(p))
    assert m["r0"][Label("c")] == (CTX, Label("a"), Label("b"))


def test_get_interfs_locks():
    src = """
vars x = 0;
locks m;
thread t1 { p1: lock m; q1: unlock m; }
thread t2 { p2: lock m; q2: unlock m; }
"""
    p = parse(src)
    im = get_interfs(p, build_cfg(p))
    assert im["t1"][Label("p1")] == (CTX, Label("q2"))
    assert im["t2"][Label("p2")] == (CTX, Label("q1"))


def _ppo(cfg, a, b) -> bool:
    """The reflexive-transitive program order that nrf uses."""
    return a == b or b in cfg.reachable(a)


def test_ppo_reflexive_transitive():
    p = parse(MP_SRC)
    cfg = build_cfg(p)
    assert _ppo(cfg, Label("a"), Label("b"))
    assert _ppo(cfg, Label("a"), Label("a"))
    assert not _ppo(cfg, Label("b"), Label("a"))
    assert not _ppo(cfg, Label("a"), Label("d"))  # another thread
    labels = list(cfg.nodes)
    for x in labels:
        for y in labels:
            for z in labels:
                if _ppo(cfg, x, y) and _ppo(cfg, y, z):
                    assert _ppo(cfg, x, z)


def test_is_feasible_canonical_examples():
    p = parse(WHY_IC_SRC)
    cfg = build_cfg(p)
    # cross-thread staleness: d cannot read the older store once c read b
    assert not is_feasible({Label("c"): Label("b"), Label("d"): Label("a")}, cfg)
    # redundancy: both reads from the same source with ordered reads
    assert not is_feasible({Label("c"): Label("a"), Label("d"): Label("a")}, cfg)
    # all-ctx is trivially feasible
    assert is_feasible({Label("c"): CTX, Label("d"): CTX}, cfg)
    assert is_feasible({Label("c"): Label("b"), Label("d"): CTX}, cfg)


def test_feasible_combinations_mp():
    p = parse(MP_SRC)
    cfg = build_cfg(p)
    combos = feasible_combinations(get_interfs(p, cfg), cfg)
    # 2x2 product, all feasible under not-reads-from alone; the cross case
    # {c<-b, d<-a} is resolved at transfer time by the extension check
    assert len(combos["t2"]) == 4
    assert {Label("c"): Label("b"), Label("d"): Label("a")} in combos["t2"]
    assert combos["t1"] == ({},)


def test_feasible_combinations_why_ic():
    p = parse(WHY_IC_SRC)
    cfg = build_cfg(p)
    combos = feasible_combinations(get_interfs(p, cfg), cfg)
    assert combos["t1"] == ({},)  # no loads: the singleton empty combination
    t2 = combos["t2"]
    assert len(t2) == 6  # 9 total, 1 stale + 2 redundant pruned
    assert {Label("c"): Label("b"), Label("d"): Label("a")} not in t2
    unpruned = feasible_combinations(get_interfs(p, cfg), cfg, prune=False)["t2"]
    assert len(unpruned) == 9


def test_combination_budget():
    body = " ".join(f"l{i}: r{i} = load x;" for i in range(8))
    writers = "\n".join(f"thread w{i} {{ s{i}: store x {i}; }}" for i in range(4))
    src = f"vars x = 0;\n{writers}\nthread t {{ {body} }}"
    p = parse(src)
    cfg = build_cfg(p)
    with pytest.raises(CombinationBudgetExceeded):
        feasible_combinations(get_interfs(p, cfg), cfg, cap=4096)


def _ctx_normalized(rf, cfg):
    """Replace redundant later reads of an already-read source by ctx; the
    pruned redundant combinations are state-equivalent to this form."""
    out = dict(rf)
    changed = True
    while changed:
        changed = False
        for l1, s1 in out.items():
            if s1 == CTX:
                continue
            for l2, s2 in out.items():
                if l1 != l2 and s1 == s2 and _ppo(cfg, l1, l2):
                    out[l2] = CTX
                    changed = True
    return out


def test_pruning_never_loses_oracle_realizable_combinations():
    """Every reads-from assignment realized by some consistent execution
    passes the feasibility filter, up to replacing redundant same-source
    reads by ctx (the pruned redundant form covers the same states)."""
    checked = 0
    for f in corpus_files():
        p = parse(f.read_text())
        cfg = build_cfg(p)
        try:
            execs = enumerate_executions(p)
        except Exception:
            continue  # beyond the oracle guard
        for t in p.threads:
            tname = t.name
            for e in execs:
                rf = {l: (w if w is not None else CTX)
                      for l, w in e.rf if cfg.thread_of[l] == tname}
                if not rf:
                    continue
                norm = _ctx_normalized(rf, cfg)
                assert is_feasible(norm, cfg), \
                    f"{f.name}: pruned realizable {rf}"
                checked += 1
    assert checked > 50
