"""Ground-truth enumerator: canonical litmus outcomes, the independent axiom
validator, loset extraction, and the soundness report."""

import pytest

from ramosaic.engine import tmai
from ramosaic.litmus import parse, unroll
from ramosaic.oracle import (SoundnessViolation, check_soundness,
                             enumerate_executions, losets_by_write_set,
                             outcomes, validate_execution)
from ramosaic.posets import TooLarge

from conftest import BENCH_DIR, MP_SRC, SB_SRC


def _pair_outcomes(execs, k1, k2):
    return sorted({(e.register_map()[k1], e.register_map()[k2]) for e in execs})


def test_mp_outcomes(mp_program):
    execs = enumerate_executions(mp_program)
    assert _pair_outcomes(execs, "t2.r1", "t2.r2") == [(0, 0), (0, 1), (1, 1)]
    assert not any(e.violations for e in execs)


def test_sb_includes_both_zero():
    execs = enumerate_executions(parse(SB_SRC))
    outs = _pair_outcomes(execs, "t1.r1", "t2.r2")
    assert (0, 0) in outs
    assert sorted(outs) == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_single_thread_single_execution():
    p = parse("vars x = 0;\nthread t { a: store x 1; c: r = load x; }")
    execs = enumerate_executions(p)
    assert len(execs) == 1
    assert execs[0].register_map()["t.r"] == 1


def test_every_execution_passes_the_independent_validator(mp_program):
    for src in (MP_SRC, SB_SRC):
        p = parse(src)
        for e in enumerate_executions(p):
            validate_execution(p, e)


def test_losets_of():
    execs = enumerate_executions(parse(MP_SRC))
    (ls,) = losets_by_write_set(execs, "x")
    assert len(ls.losets) == 1
    ((ev,),) = ls.losets
    assert (ev.label, ev.instance) == ("a", 1)


def test_losets_two_writers_both_orders():
    src = """
vars x = 0;
thread t1 { a: store x 1; }
thread t2 { b: store x 2; }
"""
    execs = enumerate_executions(parse(src))
    (ls,) = losets_by_write_set(execs, "x")
    assert len(ls.losets) == 2


def test_losets_forced_single_order():
    # reading the second store forces the modification order
    src = """
vars x = 0, y = 0;
thread t1 { a: store x 1; s: store y 1; }
thread t2 { c: r = load y; u: assume(r == 1); b: store x 2; }
"""
    execs = enumerate_executions(parse(src))
    (ls,) = losets_by_write_set(execs, "x")
    assert len(ls.losets) == 1
    (order,) = ls.losets
    assert [e.label for e in order] == ["a", "b"]


def test_losets_by_write_set_groups_branches():
    src = """
vars x = 0, y = 0;
thread w { s: store y 1; }
thread t { c: r = load y; if (r == 1) { a: store x 1; } }
"""
    execs = enumerate_executions(parse(src))
    groups = losets_by_write_set(execs, "x")
    assert len(groups) == 2  # with and without the guarded store
    assert len({g.events for g in groups}) == 2


def test_rmw_atomicity_enforced():
    # two fetch-adds can never both read the initial value
    src = """
vars x = 0;
thread t1 { a: r1 = fadd x 1; }
thread t2 { b: r2 = fadd x 1; }
"""
    execs = enumerate_executions(parse(src))
    outs = _pair_outcomes(execs, "t1.r1", "t2.r2")
    assert outs == [(0, 1), (1, 0)]


def test_cas_mutual_exclusion_in_oracle():
    src = """
vars m = 0;
thread t1 { a: r1 = cas m 0 1; }
thread t2 { b: r2 = cas m 0 1; }
"""
    execs = enumerate_executions(parse(src))
    outs = _pair_outcomes(execs, "t1.r1", "t2.r2")
    assert (0, 0) not in outs  # at most one cas wins
    assert sorted(outs) == [(0, 1), (1, 0)]


def test_lock_serializes_oracle_executions():
    src = """
vars x = 0;
locks m;
thread t1 { p1: lock m; w1: store x 1; r1a: q1 = load x; u1: unlock m; }
thread t2 { p2: lock m; w2: store x 2; r2a: q2 = load x; u2: unlock m; }
"""
    execs = enumerate_executions(parse(src))
    outs = _pair_outcomes(execs, "t1.q1", "t2.q2")
    # each critical section reads its own store
    assert outs == [(1, 2)]


def test_load_buffering_cycle_excluded():
    p = parse((BENCH_DIR / "lb.lit").read_text())
    execs = enumerate_executions(p)
    outs = _pair_outcomes(execs, "t1.r1", "t2.r2")
    assert (1, 1) not in outs
    assert sorted(outs) == [(0, 0), (0, 1), (1, 0)]


def test_write_read_causality_holds():
    p = parse((BENCH_DIR / "wrc.lit").read_text())
    execs = enumerate_executions(p)
    outs = _pair_outcomes(execs, "t3.r2", "t3.r3")
    assert (1, 0) not in outs
    assert not any(e.violations for e in execs)


def test_iriw_split_reads_allowed():
    p = parse((BENCH_DIR / "iriw.lit").read_text())
    execs = enumerate_executions(p)
    split = [e for e in execs
             if e.register_map()["rx.q1"] == 1 and e.register_map()["rx.q2"] == 0
             and e.register_map()["ry.q3"] == 1 and e.register_map()["ry.q4"] == 0]
    assert split and all("final" in e.violations for e in split)


def test_thread_order_permutation_independence():
    src_a = SB_SRC
    src_b = """
vars x = 0, y = 0;
thread t2 { b: store y 1; d: r2 = load x; }
thread t1 { a: store x 1; c: r1 = load y; }
assert (r1 == 1 || r2 == 1);
"""
    outs_a = {frozenset(e.registers) for e in enumerate_executions(parse(src_a))}
    outs_b = {frozenset(e.registers) for e in enumerate_executions(parse(src_b))}
    assert outs_a == outs_b


def test_guard_rejects_large_programs():
    body = " ".join(f"s{i}: store x {i};" for i in range(15))
    p = parse(f"vars x = 0;\nthread t {{ {body} }}")
    with pytest.raises(TooLarge, match="^15 shared-memory events exceed oracle guard 14$"):
        enumerate_executions(p)


def test_loops_must_be_unrolled_first():
    p = parse("vars x = 0;\nthread t { i: r = 0; while (r < 1) { s: store x 1; } }")
    with pytest.raises(ValueError):
        enumerate_executions(p)
    enumerate_executions(unroll(p, 1))  # fine after unrolling


def test_check_soundness_clean_on_mp(mp_program):
    r = tmai(mp_program)
    rep = check_soundness(mp_program, r)
    assert rep.ok
    rep.raise_if_unsound()


def test_check_soundness_flags_wrong_verdict(mp_program):
    src = """
vars f1 = 0, f2 = 0;
thread t1 { a1: store f1 1; b1: r1 = load f2; }
thread t2 { a2: store f2 1; b2: r2 = load f1; }
assert (r1 == 1 || r2 == 1);
"""
    p = parse(src)
    r = tmai(p)
    assert not r.verdicts["final"].proved

    class Lying:
        states = r.states
        boundaries = r.boundaries
        verdicts = {"final": type(r.verdicts["final"])(True, ())}

    rep = check_soundness(p, Lying())
    assert not rep.ok
    with pytest.raises(SoundnessViolation):
        rep.raise_if_unsound()


def test_outcomes_helper(mp_program):
    outs = outcomes(enumerate_executions(mp_program))
    assert len(outs) == 3
