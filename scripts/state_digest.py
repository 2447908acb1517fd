#!/usr/bin/env python3
"""Print one sha256 over the analyzer's fixpoints, for byte-identity checks.

For every corpus file (unrolled 2, as the CLI does by default) it runs
`engine.tmai` and `engine.analyze_with_combinations`, and for
`random_program(0..N-1)` it runs `engine.tmai`.  Each run hashes the
input's name, the driver's name, the fixpoint's `StateSet.dump()`, the
sorted verdicts and `iterations_total`.  Two versions of the analyzer that
print the same line compute the same states, in the same order within each
label, the same verdicts and the same round counts.  An exception stops the
run with exit code 3 and names the input and driver that raised it.

    python3 scripts/state_digest.py [N]      # N defaults to 200
"""

import hashlib
import sys
from pathlib import Path

from ramosaic.engine import analyze_with_combinations, tmai
from ramosaic.litmus import parse, unroll
from ramosaic.randprog import random_program

CORPUS = Path(__file__).resolve().parent.parent / "benchmarks"
CLI_UNROLL = 2
CORPUS_DRIVERS = (tmai, analyze_with_combinations)


def inputs(n: int):
    """(name, thunk building the program, drivers), corpus first."""
    for path in sorted(CORPUS.glob("*.lit")):
        yield (path.name, lambda path=path: unroll(parse(path.read_text()), CLI_UNROLL),
               CORPUS_DRIVERS)
    for seed in range(n):
        yield f"random_program({seed})", lambda seed=seed: random_program(seed), (tmai,)


def main(argv) -> int:
    n = int(argv[1]) if len(argv) > 1 else 200
    digest = hashlib.sha256()
    count = 0
    for name, build, drivers in inputs(n):
        for driver in drivers:
            try:
                result = driver(build())
            except Exception as exc:  # report the input and stop
                print(f"{name} {driver.__name__}: {type(exc).__name__}: {exc}",
                      file=sys.stderr)
                return 3
            verdicts = sorted((site, str(v)) for site, v in result.verdicts.items())
            digest.update(f"{name} {driver.__name__}\n{result.states.dump()}\n"
                          f"{verdicts}\n{result.iterations_total}\n".encode())
        count += 1
    print(f"{count} files {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
