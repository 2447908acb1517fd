"""The integer-indexed enumeration kernel against the reference enumerator,
its stale-read prune, the oracle over the whole corpus, and the independent
validator against tampered executions."""

import pickle
from dataclasses import replace

import pytest

from ramosaic import oracle
from ramosaic.cli import expected_verdict
from ramosaic.engine import tmai
from ramosaic.litmus import (Fadd, Label, LockInst, Store, UnlockInst, build_cfg,
                             parse, unroll)
from ramosaic.oracle import check_soundness, enumerate_executions, validate_execution
from ramosaic.posets import TooLarge
from ramosaic.randprog import random_program

from conftest import corpus_files
from oracle_reference import reference_executions


def _assert_same(program):
    """Equal tuples, in the same order, each execution pickling to the same
    bytes; or TooLarge from both."""
    try:
        expected = reference_executions(program)
    except TooLarge:
        with pytest.raises(TooLarge):
            enumerate_executions(program)
        return None
    got = enumerate_executions(program)
    assert got == expected
    assert [pickle.dumps(e) for e in got] == [pickle.dumps(e) for e in expected]
    return got


@pytest.mark.parametrize("path", corpus_files(), ids=lambda p: p.stem)
def test_corpus_matches_reference(path):
    execs = _assert_same(unroll(parse(path.read_text()), 2))
    beyond_guard = path.stem in ("peterson3", "co_2p2w_15")
    assert (execs is None) == beyond_guard


def test_random_programs_match_reference():
    total = 0
    for seed in range(60):
        total += len(_assert_same(random_program(seed)))
    assert total > 0


def test_label_names_sorting_against_program_order():
    src = """
vars x = 0, y = 0;
thread t1 { z: store x 1; m: store y 1; a: r1 = load x; }
thread t2 { y2: r2 = load y; b: r3 = load x; c: store x 2; }
assert (r2 != 1 || r3 != 0);
"""
    execs = _assert_same(parse(src))
    assert execs
    for e in execs:
        pos = {lbl: i for i, lbl in enumerate(e.order)}
        assert pos[Label("z")] < pos[Label("m")] < pos[Label("a")]
        assert pos[Label("y2")] < pos[Label("b")] < pos[Label("c")]


def test_never_released_section_comes_last():
    src = """
vars x = 0;
locks m;
thread t1 { l1: lock m; w1: store x 1; }
thread t2 { l2: lock m; w2: store x 2; u2: unlock m; r: q = load x; }
"""
    execs = _assert_same(parse(src))
    assert execs
    assert {e.cs_order for e in execs} == {(("m", (Label("l2"), Label("l1"))),)}


def test_failing_cas():
    src = """
vars x = 0;
thread t1 { a: store x 1; }
thread t2 { b: r1 = cas x 0 5; c: r2 = load x; }
thread t3 { d: r3 = load x; }
"""
    execs = _assert_same(parse(src))
    failed = [e for e in execs if e.register_map()["t2.r1"] == 1]
    assert failed
    for e in failed:  # a failed cas is no write: in no order, read by no one
        assert [ev.label for ev in e.mo_map()["x"]] == ["a"]
        assert Label("b") not in e.rf_map().values()


# --------------------------------------------------------------------------
# The search prunes reads-from choices that happens-before already makes
# stale; the output must not change
# --------------------------------------------------------------------------

def _sources(execs, read: str):
    return {e.rf_map()[Label(read)] for e in execs}


def test_failed_cas_between_source_and_read_does_not_prune():
    src = """
vars x = 0;
thread t1 { a: store x 1; b: r1 = cas x 2 7; c: r2 = load x; }
thread t2 { d: store x 2; }
"""
    execs = _assert_same(parse(src))
    # b reads a and fails, so it hides nothing: c may still read a
    assert any(e.rf_map()[Label("b")] == Label("a") and e.rf_map()[Label("c")] == Label("a")
               for e in execs)


def test_fadd_overwrites_before_the_read():
    src = """
vars x = 0;
thread t1 { a: store x 1; b: r1 = fadd x 1; c: r2 = load x; }
thread t2 { d: store x 5; }
"""
    execs = _assert_same(parse(src))
    assert _sources(execs, "c") == {Label("b"), Label("d")}


def test_lock_handoff_makes_a_read_stale():
    src = """
vars x = 0;
locks m;
thread t1 { a: store x 1; l1: lock m; a2: store x 2; u1: unlock m; }
thread t2 { l2: lock m; b: r = load x; u2: unlock m; }
"""
    execs = _assert_same(parse(src))
    t1_first = [e for e in execs if e.cs_order == (("m", (Label("l1"), Label("l2"))),)]
    t2_first = [e for e in execs if e.cs_order == (("m", (Label("l2"), Label("l1"))),)]
    assert _sources(t1_first, "b") == {Label("a2")}  # u1 -> l2 hides a and the init
    assert _sources(t2_first, "b") == {None, Label("a")}


def test_initial_value_read_after_own_store():
    src = """
vars x = 0;
thread t1 { a: store x 1; b: r = load x; }
thread t2 { c: store x 2; }
"""
    execs = _assert_same(parse(src))
    assert _sources(execs, "b") == {Label("a"), Label("c")}


def _stale_reads(topo, instrs, tids, rf):
    """The reads of a complete reads-from choice that happens-before alone
    makes stale, rebuilt from the topological order: program order, the
    unlock-to-next-lock edges of each mutex in that order, and reads-from."""
    edges = {i: [] for i in topo}
    last_of_thread = {}
    last_unlock = {}
    for i in topo:
        instr = instrs[i]
        if tids[i] in last_of_thread:
            edges[last_of_thread[tids[i]]].append(i)
        last_of_thread[tids[i]] = i
        if isinstance(instr, LockInst) and instr.mutex in last_unlock:
            edges[last_unlock[instr.mutex]].append(i)
        elif isinstance(instr, UnlockInst):
            last_unlock[instr.mutex] = i
        if isinstance(instr, oracle._READS) and rf[i] is not None:
            edges[rf[i]].append(i)
    after = {}  # node -> the nodes it happens before
    for i in reversed(topo):
        after[i] = set().union(*({j} | after[j] for j in edges[i]))
    stale = []
    for r in topo:
        if not isinstance(instrs[r], oracle._READS):
            continue
        w = rf[r]
        for s in topo:
            if (s != w and isinstance(instrs[s], (Store, Fadd))
                    and instrs[s].var == instrs[r].var and r in after[s]
                    and (w is None or s in after[w])):
                stale.append(r)
    return stale


def test_search_yields_no_choice_stale_by_happens_before(monkeypatch):
    """Every complete choice that reaches `_choice_orders`, the modification
    orders of a choice, is checked along a linear extension of its
    happens-before rows (descending row counts), with each node's thread
    taken from the CFG."""
    choice_orders = oracle._choice_orders
    thread_of = {}
    checked = []

    def checking(variables, desc, anc, rf, instrs, out, events):
        counts = [row.bit_count() for row in desc]
        topo = sorted(range(len(desc)), key=counts.__getitem__, reverse=True)
        tids = [thread_of[instr.label] for instr in instrs]
        assert not _stale_reads(topo, instrs, tids, rf)
        checked.append(topo)
        return choice_orders(variables, desc, anc, rf, instrs, out, events)

    monkeypatch.setattr(oracle, "_choice_orders", checking)
    for seed in range(200):
        program = random_program(seed)
        thread_of = build_cfg(program).thread_of
        enumerate_executions(program)
    assert len(checked) > 1000


def _fresh_orders(desc, anc, rf, instrs, out, events):
    """The orders of one complete choice from a fresh `_coherent_orders` per
    variable, by name, over the writes that took effect and the reads, both
    taken from the instructions; None when some variable has none."""
    writes, reads = {}, {}
    for i, instr in enumerate(instrs):
        if isinstance(instr, oracle._WRITES) and out[i] is not oracle._NO_WRITE:
            writes.setdefault(instr.var, []).append(i)
        if isinstance(instr, oracle._READS):
            reads.setdefault(instr.var, []).append(i)
    orders = []
    for var in sorted(writes):
        perms = oracle._coherent_orders(writes[var], desc, anc, rf, reads.get(var, []),
                                        instrs, out)
        if not perms:
            return None
        orders.append([(var, tuple(events[w] for w in perm)) for perm in perms])
    return orders


def _random_programs_and_the_corpus():
    for seed in range(200):
        yield random_program(seed), 14
    for path in corpus_files():
        yield unroll(parse(path.read_text()), 2), 40


def test_memoized_orders_equal_a_fresh_search(monkeypatch):
    """For every complete choice, memo hits and lone writes included, the
    orders of each variable equal those of a fresh `_coherent_orders`."""
    choice_orders = oracle._choice_orders
    counts = {"choices": 0, "hits": 0}

    def checking(variables, desc, anc, rf, instrs, out, events):
        memoized = {id(orders) for *_, memo in variables if memo
                    for orders in memo.values()}
        got = choice_orders(variables, desc, anc, rf, instrs, out, events)
        assert got == _fresh_orders(desc, anc, rf, instrs, out, events)
        counts["choices"] += 1
        counts["hits"] += any(id(orders) in memoized for orders in got or ())
        return got

    monkeypatch.setattr(oracle, "_choice_orders", checking)
    for program, guard in _random_programs_and_the_corpus():
        enumerate_executions(program, guard=guard)
    assert counts["choices"] > 8000 and counts["hits"] > 2000


# --------------------------------------------------------------------------
# Ground truth for the whole corpus, beyond the default guard
# --------------------------------------------------------------------------

@pytest.mark.parametrize("path", corpus_files(), ids=lambda p: p.stem)
def test_corpus_ground_truth(path):
    program = unroll(parse(path.read_text()), 2)
    execs = enumerate_executions(program, guard=40)
    assert execs
    check_soundness(program, tmai(program), execs=execs).raise_if_unsound()
    if any(e.violations for e in execs):
        assert expected_verdict(path) == "violated"
    sizes = {"peterson3": 9720, "co_2p2w_15": 1}
    if path.stem in sizes:
        assert len(execs) == sizes[path.stem]


# --------------------------------------------------------------------------
# The validator rejects tampered executions
# --------------------------------------------------------------------------

def _only(src: str, pick=lambda e: True):
    p = parse(src)
    execs = [e for e in enumerate_executions(p) if pick(e)]
    assert len(execs) == 1
    validate_execution(p, execs[0])
    return p, execs[0]


def test_validator_rejects_mo_against_hb():
    p, e = _only("vars x = 0;\nthread t { a: store x 1; b: store x 2; }")
    ((var, order),) = e.mo
    with pytest.raises(AssertionError, match="contradicts happens-before"):
        validate_execution(p, replace(e, mo=((var, order[::-1]),)))


def test_validator_rejects_stale_read():
    p, e = _only("vars x = 0;\nthread t { a: store x 1; b: store x 2; c: r = load x; }")
    assert e.rf == ((Label("c"), Label("b")),)
    with pytest.raises(AssertionError, match="stale read"):
        validate_execution(p, replace(e, rf=((Label("c"), Label("a")),)))


def test_validator_rejects_rmw_skipping_its_predecessor():
    p, e = _only("vars x = 0;\n"
                 "thread t1 { a: store x 1; b: store x 2; }\n"
                 "thread t2 { c: r = fadd x 1; }",
                 pick=lambda e: e.rf_map()[Label("c")] == Label("b"))
    assert [ev.label for ev in e.mo_map()["x"]] == ["a", "b", "c"]
    with pytest.raises(AssertionError, match="immediate predecessor"):
        validate_execution(p, replace(e, rf=((Label("c"), Label("a")),)))


def test_validator_rejects_cyclic_hb():
    p, e = _only("vars x = 0;\nthread t { a: r = load x; b: store x 1; }")
    with pytest.raises(AssertionError, match="cyclic"):
        validate_execution(p, replace(e, rf=((Label("a"), Label("b")),)))


def test_validator_reuse_cannot_hide_a_bad_execution():
    """An execution that shares `order`, `rf` and `cs_order` with the one
    validated just before it shares its happens-before graph; its
    modification order is still checked against it."""
    p, e = _only("vars x = 0;\nthread t { a: store x 1; b: store x 2; }")
    ((var, order),) = e.mo
    with pytest.raises(AssertionError, match="contradicts happens-before"):
        validate_execution(p, replace(e, mo=((var, order[::-1]),)))

    p, e = _only("vars x = 0;\nthread t1 { a: store x 1; }\n"
                 "thread t2 { b: store x 2; c: r = load x; }",
                 pick=lambda e: e.rf_map()[Label("c")] == Label("a"))
    ((var, order),) = e.mo
    assert [ev.label for ev in order] == ["b", "a"]
    with pytest.raises(AssertionError, match="stale read"):
        validate_execution(p, replace(e, mo=((var, order[::-1]),)))
