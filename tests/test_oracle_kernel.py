"""The integer-indexed enumeration kernel against the reference enumerator,
and the independent validator against tampered executions."""

import pickle
from dataclasses import replace

import pytest

from ramosaic.litmus import Label, parse, unroll
from ramosaic.oracle import enumerate_executions, validate_execution
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
