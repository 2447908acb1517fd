"""Transfer-function behavior on the message-passing walkthrough, rmw
success/failure splitting, lock handling, and the simple operations."""

import collections
import random

import pytest

from ramosaic import engine, intervals, transfer
from ramosaic import posets as P
from ramosaic.engine import tmai
from ramosaic.intervals import singleton
from ramosaic.litmus import Cas, Label, SemanticError, build_cfg, parse, unroll
from ramosaic.oracle import check_soundness
from ramosaic.randprog import random_program
from ramosaic.states import StateSet
from ramosaic.transfer import (AnalysisContext, TransferConfig,
                               apply_interference, check_assert, transfer_node)

from conftest import (MP_SRC, READS_SRC, corpus_files, full_tails, perfbench_families, peterson,
                      run_with_context)


def _ctx_for(src, **tc_kw):
    p = parse(src)
    cfg = build_cfg(p)
    ctx = AnalysisContext(p, cfg, TransferConfig(**tc_kw))
    return p, cfg, ctx


def _run(src, **tc_kw):
    """The fixpoint with full states at every label, also past the
    boundaries, whose posets the tests read."""
    return tmai(parse(src), TransferConfig(project_tails=False, **tc_kw))


def test_store_transfer_mp_first():
    p, cfg, ctx = _ctx_for(MP_SRC)
    init = ctx.initial_states["t1"]
    (out,) = transfer_node(ctx, Label("a"), [init], StateSet(ctx.posets))
    assert str(out.po("x")) == "{a.1}"
    assert out.po("y") == P.TOP
    assert out.val("x") == singleton(1)


def test_second_store_forgets_older_in_abstract_mode():
    src = "vars x = 0;\nthread t { a: store x 1; c: store x 2; }"
    r_abs = _run(src, abstract_mo=True)
    (s,) = r_abs.states.at(Label("c"))
    assert str(s.po("x")) == "{c.1}"
    r_con = _run(src, abstract_mo=False)
    (s,) = r_con.states.at(Label("c"))
    assert str(s.po("x")) == "{a.1, c.1 | a.1<c.1}"


def test_apply_interference_mp():
    r, ctx = run_with_context(tmai, parse(MP_SRC))
    target = ctx.initial_states["t2"]
    (source,) = r.states.at(Label("b"))
    (out,) = apply_interference(ctx, target, [source], ctx.events[Label("b")])
    assert str(out.po("x")) == "{a.1}"
    assert str(out.po("y")) == "{b.1}"
    # the source has observed strictly more of x, so its value is current
    assert out.val("x") == singleton(1)


def test_apply_interference_infeasible_on_reappend():
    r, ctx = run_with_context(tmai, parse(MP_SRC))
    (source_a,) = r.states.at(Label("a"))
    targets = r.states.at(Label("c"))
    carried = [t for t in targets if not t.po("x").is_top]
    assert carried
    for t in carried:
        assert apply_interference(ctx, t, [source_a], ctx.events[Label("a")]) == []


# t3 reads y from w1 and from both outcomes of the cas c, which publishes
# its event only when it succeeds on y = 1.
BATCH_SRC = """
vars x = 0, y = 0;
thread t1 { w1: store y 1; w2: store x 1; }
thread t2 { c: q = cas y 1 2; }
thread t3 { a: r = load y; b: p = load x; }
"""


def _singles(ctx, target, sources, ev, reg=None, cas=False) -> list:
    return [out for s in sources for out in apply_interference(ctx, target, [s], ev, reg, cas)]


def test_batch_equals_the_single_source_calls_in_order():
    """One kernel call over a source label's states gives what one call per
    source state gives, concatenated in order: for a cas whose failed state
    published nothing, for a target whose poset already holds the event
    (the append is bottom), and for every target and source label of the
    loads, rmws and locks of Peterson-4, `READS_SRC` and this program."""
    r, ctx = run_with_context(tmai, parse(BATCH_SRC))
    reg = ctx.slots["t3"]["r"]
    k = ctx.layouts["t3"].mo_slot["y"]
    cas_ev, w1_ev = ctx.events[Label("c")], ctx.events[Label("w1")]

    target = ctx.initial_states["t3"]
    cas_states = r.states.at(Label("c"))
    published = [ctx.posets.published(s.mo[k], cas_ev) for s in cas_states]
    assert sorted(published) == [False, True]
    batch = apply_interference(ctx, target, cas_states, cas_ev, reg, cas=True)
    assert len(batch) == 1 and batch == _singles(ctx, target, cas_states, cas_ev, reg, True)
    assert ctx.values.values[batch[0].mem[reg]] == singleton(2)

    # a state of t3 that read y from w1 cannot read w1 again
    held = next(s for s in r.states.at(Label("a"))
                if w1_ev in ctx.posets.posets[s.mo[k]].events)
    sources = r.states.at(Label("w1")) + r.states.at(Label("w2"))
    assert ctx.posets.append(held.mo[k], w1_ev) == P.BOTTOM_ID
    assert apply_interference(ctx, held, sources, w1_ev, reg) == []
    assert _singles(ctx, held, sources, w1_ev, reg) == []

    pairs = dropped = 0
    for src in (BATCH_SRC, READS_SRC, peterson(4)):
        r, ctx = run_with_context(tmai, parse(src))
        for lbl, srcs in ctx.interfs.items():
            thread = ctx.cfg.thread_of[lbl]
            var = ctx.cfg.accesses[lbl][1]
            instr = ctx.cfg.nodes[lbl]
            reg = ctx.slots[thread][instr.reg] if hasattr(instr, "reg") else None
            targets = [t for pred in ctx.cfg.preds[lbl] for t in r.states.at(pred)]
            for target in targets or [ctx.initial_states[thread]]:
                for s_lbl in srcs[1:]:
                    sources = r.states.at(s_lbl)
                    ev, cas = ctx.events[s_lbl], isinstance(ctx.cfg.nodes[s_lbl], Cas)
                    batch = apply_interference(ctx, target, sources, ev, reg, cas)
                    assert batch == _singles(ctx, target, sources, ev, reg, cas), (src, lbl, s_lbl)
                    assert var == ev.var
                    pairs += len(sources)
                    dropped += len(sources) - len(batch)
    assert pairs > 2000 and dropped > 150, (pairs, dropped)


def test_load_ctx_and_interference():
    r = tmai(parse(MP_SRC))
    states_c = r.states.at(Label("c"))
    r1_vals = sorted(str(s.val("t2.r1")) for s in states_c)
    assert r1_vals == ["[0,0]", "[1,1]"]


def test_load_only_ctx_when_interference_infeasible():
    # at d the only interference (from a) re-appends a known event
    r = full_tails(parse(MP_SRC))
    states_d = r.states.at(Label("d"))
    carried = [s for s in states_d if str(s.po("y")) == "{b.1}"]
    (s,) = carried
    assert s.val("t2.r1") == singleton(1)
    assert s.val("t2.r2") == singleton(1)


def test_cas_success_and_failure_split():
    src = "vars x = 0;\nthread t { a: r = cas x 0 1; }"
    r = _run(src)
    (s,) = r.states.at(Label("a"))
    assert str(s.po("x")) == "{a.1}"
    assert s.val("x") == singleton(1)
    assert s.val("t.r") == singleton(0)

    src = "vars x = 5;\nthread t { a: r = cas x 0 1; }"
    r = _run(src)
    (s,) = r.states.at(Label("a"))
    assert s.po("x") == P.TOP  # failure publishes no event
    assert s.val("t.r") == singleton(5)


def test_cas_both_branches_on_uncertain_value():
    src = """
vars x = 0, y = 0;
thread w { b: store x 1; }
thread t { c: r0 = load x; d: r = cas y r0 7; }
"""
    r = _run(src)
    states = r.states.at(Label("d"))
    posets = {str(s.po("y")) for s in states}
    assert "{d.1}" in posets  # success branch appended the rmw event
    assert "{}" in posets  # failure branch left the order alone


def test_fadd_transfer():
    src = "vars x = 2;\nthread t { a: r = fadd x 1; }"
    r = _run(src)
    (s,) = r.states.at(Label("a"))
    assert s.val("x") == singleton(3)
    assert s.val("t.r") == singleton(2)
    assert str(s.po("x")) == "{a.1}"


def test_fadd_against_oracle_single_thread():
    from ramosaic.oracle import enumerate_executions

    src = "vars x = 2;\nthread t { a: r = fadd x 1; b: q = load x; }"
    p = parse(src)
    (exe,) = enumerate_executions(p)
    regs = exe.register_map()
    r = full_tails(p)
    (s,) = r.states.at(Label("b"))
    assert regs["t.r"] in s.val("t.r")
    assert regs["t.q"] in s.val("t.q")
    assert s.val("t.q") == singleton(3)


def test_assume_assign_assert():
    src = """
vars x = 0;
thread w { s: store x 1; }
thread t {
  c: r = load x;
  u: assume(r == 1);
  a: r2 = r + 1;
  z: assert(r2 == 2);
}
"""
    r = _run(src)
    assert r.verdicts[str(Label("z"))].proved
    states = r.states.at(Label("a"))
    assert all(s.val("t.r") == singleton(1) for s in states)
    assert all(s.val("t.r2") == singleton(2) for s in states)


def test_assume_false_drops_downstream():
    src = "vars x = 0;\nthread t { u: assume(false); a: store x 1; }"
    r = _run(src)
    assert r.states.at(Label("a")) == ()


def test_check_assert_trivial():
    from ramosaic.litmus import BoolLit

    p = parse("vars x = 0;\nthread t { a: store x 1; }")
    slots = AnalysisContext(p, build_cfg(p), TransferConfig()).slots["t"]
    assert check_assert([], BoolLit(True), slots).proved
    r = tmai(p)
    v = check_assert(r.states.at(Label("a")), BoolLit(True), slots)
    assert v.proved and not v.witnesses


def test_widening_threshold_validated():
    with pytest.raises(ValueError):
        TransferConfig(widening_threshold=0)


def test_interference_infeasible_on_conflicting_posets():
    """Interference application fails whenever any variable's posets carry
    opposite orderings."""
    from ramosaic.posets import Event, chain
    from ramosaic.states import AbstractState
    from ramosaic.intervals import singleton

    src = """
vars x = 0, y = 0;
thread t1 { a: store x 1; b: store x 2; }
thread t2 { w: store y 1; }
"""
    p, cfg, ctx = _ctx_for(src, abstract_mo=False)
    ea = Event("a", 1, "t1", "store", "x")
    eb = Event("b", 1, "t1", "store", "x")
    mem = {"x": singleton(0), "y": singleton(0)}
    layout = ctx.layouts["t2"]
    target = AbstractState.make({"x": chain(ea, eb), "y": P.TOP}, mem, layout)
    source = AbstractState.make({"x": chain(eb, ea), "y": P.TOP},
                                {"x": singleton(0), "y": singleton(1)}, layout)
    assert apply_interference(ctx, target, [source], ctx.events[Label("w")]) == []


def test_frame_property():
    """A store to one variable leaves every other variable's poset intact."""
    src = """
vars x = 0, y = 0, z = 0;
thread w { wy: store y 5; }
thread t { c: r = load y; a: store x r; }
"""
    r, ctx = run_with_context(full_tails, parse(src))
    for pre in r.states.at(Label("c")):
        for out in transfer_node(ctx, Label("a"), [pre], StateSet(ctx.posets)):
            assert out.po("y") == pre.po("y")
            assert out.po("z") == pre.po("z")


def test_lock_uncontended():
    src = "vars x = 0;\nlocks m;\nthread t { p: lock m; q: unlock m; }"
    r = _run(src)
    (s,) = r.states.at(Label("p"))
    assert str(s.po("m")) == "{p.1}"
    (s,) = r.states.at(Label("q"))
    assert str(s.po("m")) == "{p.1, q.1 | p.1<q.1}"


def test_lock_after_other_thread():
    src = """
vars x = 0;
locks m;
thread t1 { p1: lock m; w1: store x 1; q1: unlock m; }
thread t2 { p2: lock m; c2: r = load x; q2: unlock m; }
"""
    r = _run(src)
    posets = {str(s.po("m")) for s in r.states.at(Label("p2"))}
    assert "{p2.1}" in posets  # acquired first
    assert any("q1.1<p2.1" in p for p in posets)  # acquired after t1 released
    # lock events of one mutex stay serialized in every stored state
    for lbl in r.states.labels():
        for s in r.states.at(lbl):
            locks = [e for e in s.po("m").events if e.kind == "lock"]
            for i, l1 in enumerate(locks):
                for l2 in locks[i + 1:]:
                    assert (l1, l2) in s.po("m").pairs or (l2, l1) in s.po("m").pairs


def test_unlock_without_lock_is_an_error():
    src = "vars x = 0;\nlocks m;\nthread t { q: unlock m; }"
    with pytest.raises(SemanticError, match="q: unlock of 'm'"):
        _run(src)


# In lock_on_both_branches, c unlocks after b or after g: the unlock must
# keep the states that came through either lock, or d is proved.  In
# release_on_either_branch, t2's lock i must read from t1's unlock on
# either branch: a lock that is freed only by the unlock of one branch
# proves k, which the oracle violates.
BRANCHY_LOCKS = {
    "lock_on_both_branches": """
vars x = 0, y = 0; locks m;
thread t1 { a: r = load x; if (r == 0) { b: lock m; } else { g: lock m; }
            h: store y 1; i: store y 2; c: unlock m; d: assert(r == 0); }
thread t2 { e: store x 1; l: lock m; k: s = load y; u: unlock m; }
assert (s != 1);
""",
    "unlock_on_both_branches": """
vars x = 0, y = 0; locks m;
thread t1 { l1: lock m; a: r = load x; h: store y 1;
            if (r == 0) { u1: unlock m; } else { i: store y 2; u2: unlock m; } }
thread t2 { e: store x 1; l2: lock m; k: s = load y; u3: unlock m; }
assert (s != 1);
""",
    "unlock_on_both_branches_after_stores": """
vars x = 0, y = 0; locks m;
thread t1 { l1: lock m; a: r = load x;
            if (r == 0) { h: store y 1; u1: unlock m; } else { i: store y 2; u2: unlock m; } }
thread t2 { e: store x 1; l2: lock m; k: s = load y; u3: unlock m; }
assert (s != 1);
""",
    "unlock_on_both_branches_without_stores": """
vars x = 0, y = 0; locks m;
thread t1 { l1: lock m; a: r = load x; h: store y 1; i: store y 2;
            if (r == 0) { u1: unlock m; } else { u2: unlock m; } }
thread t2 { e: store x 1; l2: lock m; k: s = load y; u3: unlock m; }
assert (s != 2);
""",
    "release_on_either_branch": """
vars x = 0, y = 0, z = 0; locks m;
thread t1 { a: lock m; b: store x 1; c: r = load z;
            if (r == 1) { f: store y 7; g: unlock m; } else { e: unlock m; } }
thread t2 { s: store z 1; h: r2 = load x; i: lock m; j: r3 = load y;
            k: assert(r2 != 1 || r3 != 0); }
""",
    "three_locking_threads": """
vars x = 0, y = 0; locks m;
thread t1 { l1: lock m; a: r = load x;
            if (r == 0) { u1: unlock m; } else { h: store y 1; u2: unlock m; } }
thread t2 { l2: lock m; b: store x 1; u3: unlock m; }
thread t3 { l3: lock m; c: s = load y; d: q = load x; u4: unlock m; }
assert (s != 1 || q == 1);
""",
    "reads_src": READS_SRC,
    "section_inside_if": """
vars x = 0, y = 0; locks m;
thread t1 { a: r = load x; if (r == 1) { l1: lock m; h: store y 1; i: store y 2;
            u1: unlock m; } }
thread t2 { e: store x 1; l2: lock m; k: s = load y; u2: unlock m; }
assert (s != 1);
""",
}


@pytest.mark.parametrize("name", sorted(BRANCHY_LOCKS))
@pytest.mark.parametrize("driver", [tmai])
def test_branchy_lock_shapes_are_sound(name, driver):
    program = parse(BRANCHY_LOCKS[name])
    check_soundness(program, driver(program)).raise_if_unsound()


def test_rmw_critical_totality_on_fenced_corpus():
    """On the rmw-fenced benchmarks, every stored state keeps its rmw events
    totally ordered per variable."""
    from conftest import BENCH_DIR

    for name in ("dijkstra_fen.lit", "cas_mutex_fen.lit", "lock_mutex.lit"):
        r = full_tails(parse((BENCH_DIR / name).read_text()))
        for lbl in r.states.labels():
            for s in r.states.at(lbl):
                for po in s.mo_map().values():
                    rmws = [e for e in po.events if e.kind == "rmw"]
                    for i, u1 in enumerate(rmws):
                        for u2 in rmws[i + 1:]:
                            assert (u1, u2) in po.pairs or (u2, u1) in po.pairs


# A cas in a native loop: with concrete posets the states at a hold the
# loop-bumped instances a.2 and a.3 of its event, and some of them not a.1.
CAS_LOOP_SRC = """
vars x = 0;
thread t { i: r = 0; while (r < 2) { a: q = cas x 0 1; s: store x 0; f: r = r + 1; } }
thread u { b: p = load x; c: w = cas x 1 2; }
"""


@pytest.mark.parametrize("abstract_mo", [False, True])
def test_published_memo_answers_as_the_scan(monkeypatch, abstract_mo):
    """The table's published test, memoized on (poset id, event), gives
    what a scan of the poset for the event's label and thread gives, on
    first use and on a repeat, over every cas source state; the concrete
    run covers a state that published the event only as a loop-bumped
    instance."""
    calls = []
    real = P.PosetTable.published

    def checked(table, p, ev):
        got = real(table, p, ev)
        events = table.posets[p].events
        scan = any(e.label == ev.label and e.thread == ev.thread and e.instance >= ev.instance
                   for e in events)
        calls.append((got, scan, ev not in events))
        return got

    monkeypatch.setattr(P.PosetTable, "published", checked)
    for src in (CAS_LOOP_SRC, READS_SRC):
        tmai(parse(src), TransferConfig(abstract_mo=abstract_mo))
    assert all(got == scan for got, scan, _ in calls)
    assert {got for got, _, _ in calls} == {False, True}
    if not abstract_mo:
        assert any(got and bumped_only for got, _, bumped_only in calls)


def test_transfers_run_compiled_conditions_and_expressions(monkeypatch):
    """While the rounds run, no transfer walks an expression tree: the
    reference `refine` and `eval_expr` are never called, and each label's
    condition or expressions are compiled once per analysis, over the
    corpus and `random_program(0..99)`, which hold assumes, assigns,
    stores, cas and fadd."""
    def tree_walk(*args):
        raise AssertionError("a transfer called the tree-walking reference")

    for name in ("refine", "eval_expr", "_refine_cmp"):
        monkeypatch.setattr(intervals, name, tree_walk)
    monkeypatch.setattr(transfer, "refine", tree_walk)
    compiles = []
    for name in ("compile_cond", "compile_expr"):
        real = getattr(transfer, name)
        monkeypatch.setattr(transfer, name,
                            lambda *args, real=real: compiles.append(args[2]) or real(*args))
    programs = [unroll(parse(f.read_text()), 2) for f in corpus_files()]
    programs += [random_program(seed) for seed in range(100)]
    kinds = set()
    for program in programs:
        compiles.clear()
        ctx = AnalysisContext(program, build_cfg(program), TransferConfig())
        engine._rounds(ctx, 1000)
        kinds.update(type(ctx.cfg.nodes[lbl]).__name__ for lbl in ctx._compiled)
        assert all(table is ctx.values for table in compiles)
        assert len(compiles) == sum(2 if isinstance(ctx.cfg.nodes[lbl], Cas) else 1
                                    for lbl in ctx._compiled)
        again = AnalysisContext(program, build_cfg(program), TransferConfig())
        assert all(again.compiled(lbl) is not f for lbl, f in ctx._compiled.items())
    assert kinds == {"Assume", "Assign", "Store", "Cas", "Fadd"}


def test_boundary_loads_scan_each_source_label_once():
    """Every state at Peterson-6's g_j holds j's id in cs, so once a
    pre-state of the boundary load x_i has found that value, no later one
    scans g_j: `_met_slots` runs at most once per boundary and source
    label, 30 calls, where a scan of every source label for every
    pre-state makes 2 430, 81 per pair.  The verdicts equal those of full
    tails, the labels before the boundaries hold the same states, and each
    projected label holds the live values of the full states."""
    families = perfbench_families()
    program = parse(families.peterson(6, random.Random(1)).source)
    scans = collections.Counter()
    boundary = [None]
    real_exists, real_met_slots = transfer._load_exists, transfer._met_slots

    def recording_exists(ctx, lbl, *args):
        boundary[0] = lbl
        try:
            return real_exists(ctx, lbl, *args)
        finally:
            boundary[0] = None

    def counting_met_slots(table, tmo, k, src_event):
        if boundary[0] is not None:
            scans[boundary[0], src_event.label] += 1
        return real_met_slots(table, tmo, k, src_event)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(transfer, "_load_exists", recording_exists)
        mp.setattr(transfer, "_met_slots", counting_met_slots)
        result = tmai(program)
    assert {b for b, _ in scans} == {Label(f"x{i}") for i in range(1, 7)}
    assert max(scans.values()) == 1 and sum(scans.values()) == 30
    full = full_tails(program)
    assert ({site: str(v) for site, v in result.verdicts.items()}
            == {site: str(v) for site, v in full.verdicts.items()})
    assert result.states.labels() == full.states.labels()
    for lbl in full.states.labels():
        ours, theirs = result.states.at(lbl), full.states.at(lbl)
        live = ours[0].layout.live
        if live is None:
            assert [s.fmt() for s in ours] == [s.fmt() for s in theirs]
        else:
            assert ({tuple(s.val(s.layout.mem_keys[i]) for i in live) for s in ours}
                    == {tuple(s.val(s.layout.mem_keys[i]) for i in live) for s in theirs})


# t reads x past its last access; w stores at `a` the y it read, 0 or 1
HELD_SRC = """
vars x = 0, y = 0;
thread w { l: r = load y; a: store x r; }
thread v { b: store y 1; }
thread t { c: q = load x; }
assert (q == 0);
"""


def test_a_boundary_load_gathers_the_values_of_changed_source_states_again():
    """The values a source label's states hold are kept per states tuple:
    when the label's states change, a boundary load gathers them again,
    and does not skip the label on the values of the states it held."""
    r, ctx = run_with_context(tmai, parse(HELD_SRC))
    c, a = Label("c"), Label("a")
    x, q = ctx.slots["w"]["x"], ctx.slots["t"]["q"]
    values = ctx.values.values
    stored = r.states.at(a)
    assert c in ctx.boundaries and sorted(values[s.mem[x]].lo for s in stored) == [0, 1]
    only_zero = StateSet(ctx.posets)
    only_zero.merge_all(a, [s for s in stored if values[s.mem[x]] == singleton(0)])

    def loaded(sigma):
        out = transfer_node(ctx, c, [ctx.initial_states["t"]], sigma)
        return sorted(values[s.mem[q]].lo for s in out)

    ctx.held_values.clear()
    assert loaded(only_zero) == [0]
    assert loaded(r.states) == [0, 1]
