"""Transfer-function behavior on the message-passing walkthrough, rmw
success/failure splitting, lock handling, and the simple operations."""

import pytest

from ramosaic import posets as P
from ramosaic.engine import analyze_with_combinations, tmai
from ramosaic.intervals import singleton
from ramosaic.litmus import Label, SemanticError, build_cfg, parse
from ramosaic.oracle import check_soundness
from ramosaic.states import StateSet
from ramosaic.transfer import (AnalysisContext, TransferConfig,
                               apply_interference, check_assert, transfer_node)

from conftest import MP_SRC, READS_SRC, run_with_context


def _ctx_for(src, **tc_kw):
    p = parse(src)
    cfg = build_cfg(p)
    ctx = AnalysisContext(p, cfg, TransferConfig(**tc_kw))
    return p, cfg, ctx


def _run(src, **tc_kw):
    return tmai(parse(src), TransferConfig(**tc_kw))


def test_store_transfer_mp_first():
    p, cfg, ctx = _ctx_for(MP_SRC)
    init = ctx.initial_states["t1"]
    (out,) = transfer_node(ctx, Label("a"), [init], StateSet(ctx.posets), {})
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
    out = apply_interference(ctx, target, source, ctx.events[Label("b")])
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
        assert apply_interference(ctx, t, source_a, ctx.events[Label("a")]) is None


def test_load_ctx_and_interference():
    r = tmai(parse(MP_SRC))
    states_c = r.states.at(Label("c"))
    r1_vals = sorted(str(s.val("t2.r1")) for s in states_c)
    assert r1_vals == ["[0,0]", "[1,1]"]


def test_load_only_ctx_when_interference_infeasible():
    # at d the only interference (from a) re-appends a known event
    r = tmai(parse(MP_SRC))
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
    r = tmai(p)
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
    assert apply_interference(ctx, target, source, ctx.events[Label("w")]) is None


def test_frame_property():
    """A store to one variable leaves every other variable's poset intact."""
    src = """
vars x = 0, y = 0, z = 0;
thread w { wy: store y 5; }
thread t { c: r = load y; a: store x r; }
"""
    r, ctx = run_with_context(tmai, parse(src))
    for pre in r.states.at(Label("c")):
        for out in transfer_node(ctx, Label("a"), [pre], StateSet(ctx.posets), {}):
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
@pytest.mark.parametrize("driver", [tmai, analyze_with_combinations])
def test_branchy_lock_shapes_are_sound(name, driver):
    program = parse(BRANCHY_LOCKS[name])
    check_soundness(program, driver(program)).raise_if_unsound()


def test_rmw_critical_totality_on_fenced_corpus():
    """On the rmw-fenced benchmarks, every stored state keeps its rmw events
    totally ordered per variable."""
    from conftest import BENCH_DIR

    for name in ("dijkstra_fen.lit", "cas_mutex_fen.lit", "lock_mutex.lit"):
        r = tmai(parse((BENCH_DIR / name).read_text()))
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
        for driver in (tmai, analyze_with_combinations):
            driver(parse(src), TransferConfig(abstract_mo=abstract_mo))
    assert all(got == scan for got, scan, _ in calls)
    assert {got for got, _, _ in calls} == {False, True}
    if not abstract_mo:
        assert any(got and bumped_only for got, _, bumped_only in calls)
