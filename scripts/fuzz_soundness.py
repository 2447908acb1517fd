#!/usr/bin/env python3
"""Cross-check the analyzer against the execution oracle on random programs.

Each seeded program is enumerated exhaustively, its executions re-validated
by the independent axiom checker, analyzed, and compared: oracle-violated
assertions must not be proved, final register values must be covered, and
exit posets must abstract the observed modification orders.  An exception
(a divergence, say) is reported with its seed like an unsound result, and
the run goes on; the exit code is 1 when any seed failed.

    python3 scripts/fuzz_soundness.py [N_PROGRAMS] [START_SEED]
"""

import sys
import time

from ramosaic.engine import tmai
from ramosaic.oracle import check_soundness, enumerate_executions, validate_execution
from ramosaic.litmus import to_source
from ramosaic.randprog import random_program


def main(argv) -> int:
    count = int(argv[1]) if len(argv) > 1 else 200
    start = int(argv[2]) if len(argv) > 2 else 0
    t0 = time.perf_counter()
    failures = 0
    for seed in range(start, start + count):
        program = random_program(seed)
        try:
            execs = enumerate_executions(program)
            for e in execs[:25]:
                validate_execution(program, e)
            result = tmai(program)
            report = check_soundness(program, result, execs=execs)
        except Exception as exc:  # a finding like any other: report it, keep going
            failures += 1
            print(f"seed {seed}: {type(exc).__name__}: {exc}")
            print(to_source(program))
            continue
        if not report.ok:
            failures += 1
            print(f"seed {seed}: UNSOUND")
            for problem in report.problems:
                print(f"  {problem}")
            print(to_source(program))
    elapsed = time.perf_counter() - t0
    print(f"{count} programs, {failures} failures, {elapsed:.1f}s")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
