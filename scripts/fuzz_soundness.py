#!/usr/bin/env python3
"""Cross-check the analyzer against the execution oracle on random programs.

Each seeded program is enumerated exhaustively, its executions re-validated
by the independent axiom checker, analyzed by four drivers, and compared:
oracle-violated assertions must not be proved, final register values must be
covered, and exit posets must abstract the observed modification orders.
The drivers are `engine.tmai` with the default flags, with each flag
that the poset table carries turned off: concrete posets
(`abstract_mo=False`) and rmw events that the newest-store abstraction may
forget (`rmw_critical=False`), and with full tails (`project_tails=False`),
whose exit states keep every poset and register.  An exception (a divergence, say) is
reported with its seed, and with the driver when one raised it, like an
unsound result, and the run goes on; the exit code is 1 when any check
failed.  The summary line counts the executions
enumerated and validated and the failures, and gives the seconds spent in
each phase, over all drivers: enumerate, validate, analyze and soundness.

    python3 scripts/fuzz_soundness.py [N_PROGRAMS] [START_SEED]
"""

import argparse
import sys
import time

from ramosaic.engine import tmai
from ramosaic.oracle import check_soundness, enumerate_executions, validate_execution
from ramosaic.litmus import to_source
from ramosaic.randprog import random_program
from ramosaic.transfer import TransferConfig


def tmai_concrete_mo(program):
    return tmai(program, TransferConfig(abstract_mo=False))


def tmai_no_rmw_critical(program):
    return tmai(program, TransferConfig(rmw_critical=False))


def tmai_full_tails(program):
    return tmai(program, TransferConfig(project_tails=False))


DRIVERS = (tmai, tmai_concrete_mo, tmai_no_rmw_critical, tmai_full_tails)


def non_negative(text: str) -> int:
    """A count or a seed: an integer of at least 0."""
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, not {n}")
    return n


def main(argv) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("count", nargs="?", type=non_negative, default=200, metavar="N_PROGRAMS",
                    help="random programs to check (default 200)")
    ap.add_argument("start", nargs="?", type=non_negative, default=0, metavar="START_SEED",
                    help="the seed of the first (default 0)")
    args = ap.parse_args(argv[1:])
    count, start = args.count, args.start
    t0 = time.perf_counter()
    phases = dict.fromkeys(("enumerate", "validate", "analyze", "soundness"), 0.0)

    def timed(phase, fn, *args, **kwargs):
        t = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            phases[phase] += time.perf_counter() - t

    failures = enumerated = validated = 0
    for seed in range(start, start + count):
        program = random_program(seed)
        try:
            execs = timed("enumerate", enumerate_executions, program)
            enumerated += len(execs)
            for e in execs[:25]:
                timed("validate", validate_execution, program, e)
                validated += 1
        except Exception as exc:  # a finding like any other: report it, keep going
            failures += 1
            print(f"seed {seed}: {type(exc).__name__}: {exc}")
            print(to_source(program))
            continue
        for driver in DRIVERS:
            finding = f"seed {seed} {driver.__name__}"
            try:
                result = timed("analyze", driver, program)
                report = timed("soundness", check_soundness, program, result, execs=execs)
            except Exception as exc:
                failures += 1
                print(f"{finding}: {type(exc).__name__}: {exc}")
                print(to_source(program))
                continue
            if not report.ok:
                failures += 1
                print(f"{finding}: UNSOUND")
                for problem in report.problems:
                    print(f"  {problem}")
                print(to_source(program))
    elapsed = time.perf_counter() - t0
    breakdown = ", ".join(f"{phase} {secs:.1f}s" for phase, secs in phases.items())
    print(f"{count} programs, {enumerated} executions enumerated, {validated} validated, "
          f"{failures} failures, {elapsed:.1f}s ({breakdown})")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
