"""The final-assertion check: per-component search against the brute-force
product over every thread's exit states, verdicts and witnesses both,
hand-written postcondition shapes, a thread without exit states, one
compile per slot shape, and scaling in the number of readers."""

import itertools
import time

import pytest

from ramosaic import oracle
from ramosaic.cli import main
from ramosaic.engine import tmai
from ramosaic.intervals import ValueTable
from ramosaic.litmus import Cmp, Lit, Name, build_cfg, expr_names, negate, parse
from ramosaic.randprog import random_program
from ramosaic.transfer import Verdict

from conftest import record_final_check, slot_shape
from intervals_reference import refine


def brute_force_final(program, ss) -> Verdict:
    """Reference: refine the negated postcondition over the full product of
    every thread's exit states, each restricted to that thread's registers
    that the postcondition names, the ones a projected exit state keeps, as
    one memory of those registers.  A thread without exit states makes the
    product empty.  The memories are interned in a table of their own.  The
    witness is the first combination whose memory is feasible, with the
    threads in name order and each one's exit states in order, as each
    named register's exit value."""
    cfg = build_cfg(program)
    neg = negate(program.postcondition)
    named = {program.resolve_postcondition_name(n) for n in expr_names(neg)}
    keys, per_thread = [], []
    for t in sorted(program.threads, key=lambda t: t.name):
        regs = [program.register_key(t.name, r) for r in program.thread_registers(t.name)]
        regs = [k for k in regs if k in named]
        keys += regs
        per_thread.append([tuple(s.val(k) for k in regs) for s in ss.at(cfg.exits[t.name])])
    slots = {n: keys.index(program.resolve_postcondition_name(n)) for n in expr_names(neg)}
    table = ValueTable()
    for combo in itertools.product(*per_thread):
        values = tuple(itertools.chain.from_iterable(combo))
        if refine(tuple(map(table.intern, values)), neg, slots, table) is not None:
            return Verdict(False, (tuple(sorted((k, str(v)) for k, v in zip(keys, values))),))
    return Verdict(True)


def final_verdict(program) -> Verdict:
    result = tmai(program)
    verdict = result.verdicts["final"]
    assert brute_force_final(program, result.states) == verdict
    return verdict


def final_proved(program) -> bool:
    return final_verdict(program).proved


def test_matches_brute_force_on_random_programs():
    checked = 0
    for seed in range(200):
        program = random_program(seed)
        if program.postcondition is None:
            continue
        final_proved(program)
        checked += 1
    assert checked > 150


THREE_READERS = """
vars x = 0, y = 0;
thread w { a: store x 1; b: store y 1; }
thread t1 { c: r1 = load y; }
thread t2 { d: r2 = load x; }
thread t3 { e: r3 = load x; }
"""


@pytest.mark.parametrize("post, proved", [
    # one cross-thread conjunct links t1 and t2 into one component
    ("r1 != r2 || r3 == 0", False),
    ("r1 + r2 <= 2 || r3 == 0", True),
    # an Or under an And: the negation's conjunct (r1 != 1 || r2 != 1) spans two threads
    ("(r1 == 1 && r2 == 1) || r3 == 0", False),
    ("(r1 >= 0 && r2 >= 0) || r3 == 0", True),
    # constant-only conjuncts form components without threads
    ("r1 == 1 || 1 == 1", True),
    ("r1 == 5 || 1 == 2", False),
    ("r1 == 5 || false", False),
])
def test_postcondition_shapes(post, proved):
    program = parse(f"{THREE_READERS}assert ({post});\n")
    assert final_proved(program) == proved
    violated = any(e.violations for e in oracle.enumerate_executions(program))
    assert violated != proved


UNREACHABLE_EXIT = """
vars x = 0;
thread t1 { a: r1 = load x; b: assume(r1 == 5); }
thread t2 { c: store x 1; }
assert (r1 == 7);
"""


def test_thread_without_exit_state_proves(tmp_path, capsys):
    program = parse(UNREACHABLE_EXIT)
    assert final_proved(program)
    assert oracle.enumerate_executions(program) == ()
    path = tmp_path / "unreachable_exit.lit"
    path.write_text(UNREACHABLE_EXIT)
    assert main([str(path)]) == 0
    assert "final: Proved" in capsys.readouterr().out


def test_thread_without_exit_state_not_named_proves():
    program = parse("vars x = 0;\n"
                    "thread t1 { a: r1 = load x; b: assume(r1 == 5); }\n"
                    "thread t2 { c: r2 = load x; }\n"
                    "assert (r2 == 7);\n")
    assert final_proved(program)


def readers_post(n: int) -> str:
    return " || ".join(f"q{i} == 0" for i in range(1, n + 1))


def readers_source(n: int) -> str:
    threads = "".join(f"thread rd{i} {{ b{i}: q{i} = load x; }}\n" for i in range(1, n + 1))
    return f"vars x = 0;\nthread w {{ a: store x 1; }}\n{threads}assert ({readers_post(n)});\n"


def test_readers_scale(tmp_path, capsys):
    path = tmp_path / "nr1w_40.lit"
    path.write_text(readers_source(40))
    start = time.perf_counter()
    code = main([str(path)])
    elapsed = time.perf_counter() - start
    assert code == 1
    assert "final: PossiblyViolated" in capsys.readouterr().out
    assert elapsed < 2.0


def test_readers_share_one_compiled_conjunct(monkeypatch):
    """nr1w_N's negated postcondition has one conjunct per reader, each a
    component of its own and all of one slot shape, `#0 != 0`: one check
    compiles it once, and its verdict and witness, every reader's 1, are
    the brute-force product's."""
    shaped, compiled = record_final_check(monkeypatch)
    for n in range(1, 17):
        del shaped[:], compiled[:]
        verdict = final_verdict(parse(readers_source(n)))
        assert verdict == Verdict(False, (tuple(sorted((f"rd{i}.q{i}", "[1,1]")
                                                       for i in range(1, n + 1))),))
        assert len(shaped) == n
        assert compiled == [(Cmp("!=", Name("q1"), Lit(0)), {"q1": 0})]


@pytest.mark.parametrize("post, shapes", [
    ("q1 == 0 || q2 == 0", 1),
    # the same slot shape but for a literal
    ("q1 == 0 || q2 == 2", 2),
    ("q1 == 0 || q2 == 0 || q3 == 2", 2),
])
def test_a_differing_literal_compiles_apart(monkeypatch, post, shapes):
    shaped, compiled = record_final_check(monkeypatch)
    program = parse(readers_source(3).replace(readers_post(3), post))
    assert not final_proved(program)
    assert len(shaped) == len(program.postcondition_names)
    assert len(compiled) == len({slot_shape(c, slots) for c, slots in shaped}) == shapes


TWO_VALUES = """
vars x = 0, y = 0;
thread w { a: store x 1; b: store y 2; }
thread t1 { c: r1 = load x; }
thread t2 { d: r2 = load y; }
assert (r1 == 0 || r2 == 0);
"""


def test_components_of_one_shape_keep_their_own_witnesses(monkeypatch):
    """t1's and t2's conjuncts share one compiled comparison, whose memo
    decides t1's 1 and t2's 2 apart: each component's witness is its own
    exit value."""
    shaped, compiled = record_final_check(monkeypatch)
    verdict = final_verdict(parse(TWO_VALUES))
    assert verdict == Verdict(False, ((("t1.r1", "[1,1]"), ("t2.r2", "[2,2]")),))
    assert len(shaped) == 2 and len(compiled) == 1
