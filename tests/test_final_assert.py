"""The final-assertion check: per-component search against the brute-force
product over every thread's exit states, hand-written postcondition shapes,
a thread without exit states, and scaling in the number of readers."""

import itertools
import time

import pytest

from ramosaic import oracle
from ramosaic.cli import main
from ramosaic.engine import tmai
from ramosaic.intervals import ValueTable
from ramosaic.litmus import build_cfg, expr_names, negate, parse
from ramosaic.randprog import random_program

from intervals_reference import refine


def brute_force_proved(program, ss) -> bool:
    """Reference: refine the negated postcondition over the full product of
    every thread's exit states, each restricted to that thread's registers
    that the postcondition names, the ones a projected exit state keeps, as
    one memory of those registers.  A thread without exit states makes the
    product empty.  The memories are interned in a table of their own."""
    cfg = build_cfg(program)
    neg = negate(program.postcondition)
    named = {program.resolve_postcondition_name(n) for n in expr_names(neg)}
    keys, per_thread = [], []
    for t in program.threads:
        regs = [program.register_key(t.name, r) for r in program.thread_registers(t.name)]
        regs = [k for k in regs if k in named]
        keys += regs
        per_thread.append([tuple(s.val(k) for k in regs) for s in ss.at(cfg.exits[t.name])])
    slots = {n: keys.index(program.resolve_postcondition_name(n)) for n in expr_names(neg)}
    table = ValueTable()
    for combo in itertools.product(*per_thread):
        mem = tuple(table.intern(v) for v in itertools.chain.from_iterable(combo))
        if refine(mem, neg, slots, table) is not None:
            return False
    return True


def final_proved(program) -> bool:
    result = tmai(program)
    proved = result.verdicts["final"].proved
    assert brute_force_proved(program, result.states) == proved
    return proved


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


def readers_source(n: int) -> str:
    threads = "".join(f"thread rd{i} {{ b{i}: q{i} = load x; }}\n" for i in range(1, n + 1))
    post = " || ".join(f"q{i} == 0" for i in range(1, n + 1))
    return f"vars x = 0;\nthread w {{ a: store x 1; }}\n{threads}assert ({post});\n"


def test_readers_scale(tmp_path, capsys):
    path = tmp_path / "nr1w_40.lit"
    path.write_text(readers_source(40))
    start = time.perf_counter()
    code = main([str(path)])
    elapsed = time.perf_counter() - start
    assert code == 1
    assert "final: PossiblyViolated" in capsys.readouterr().out
    assert elapsed < 2.0
