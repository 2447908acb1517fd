#!/usr/bin/env python3
"""Print one sha256 over the analyzer's fixpoints, for byte-identity checks.

It runs `engine.tmai` on every corpus file (unrolled 2, as the CLI does by
default), on `random_program(0..N-1)` and on the scaling-family members
Peterson-3..5 and nr1w_10/12 (`perfbench/families.py`, each built with
`random.Random(1)`, as `scripts/scaling.py` builds them).  Each run hashes
the input's name, the driver's name (`tmai`), the fixpoint's
`StateSet.dump()`, the sorted verdicts and `iterations_total`.  Two
versions of the analyzer that print the same line compute the same states,
in the same order within each label, the same verdicts and the same round
counts.  An exception stops the run with exit code 3 and names the input
that raised it.

    python3 scripts/state_digest.py [N]      # N defaults to 200
"""

import argparse
import hashlib
import importlib.util
import random
import sys
from pathlib import Path

from ramosaic.engine import tmai
from ramosaic.litmus import parse, unroll
from ramosaic.randprog import random_program

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "benchmarks"
CLI_UNROLL = 2
FAMILY_SIZES = (("peterson", (3, 4, 5)), ("readers", (10, 12)))

# Loaded by file path, so that importing this script leaves sys.path as it
# is.  The module is registered before it runs: its dataclasses look it up.
_spec = importlib.util.spec_from_file_location(
    "perfbench_families", ROOT / "perfbench" / "families.py")
families = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(families)


def inputs(n: int):
    """(name, thunk building the program): the corpus, the random programs,
    then the family members."""
    for path in sorted(CORPUS.glob("*.lit")):
        yield path.name, lambda path=path: unroll(parse(path.read_text()), CLI_UNROLL)
    for seed in range(n):
        yield f"random_program({seed})", lambda seed=seed: random_program(seed)
    for family, sizes in FAMILY_SIZES:
        for size in sizes:
            member = getattr(families, family)(size, random.Random(1))
            yield member.name, lambda member=member: parse(member.source)


def non_negative(text: str) -> int:
    """A count: an integer of at least 0."""
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, not {n}")
    return n


def main(argv) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("n", nargs="?", type=non_negative, default=200, metavar="N",
                    help="random programs to add to the corpus (default 200)")
    n = ap.parse_args(argv[1:]).n
    digest = hashlib.sha256()
    count = 0
    for name, build in inputs(n):
        try:
            result = tmai(build())
        except Exception as exc:  # report the input and stop
            print(f"{name}: {type(exc).__name__}: {exc}", file=sys.stderr)
            return 3
        verdicts = sorted((site, str(v)) for site, v in result.verdicts.items())
        digest.update(f"{name} tmai\n{result.states.dump()}\n"
                      f"{verdicts}\n{result.iterations_total}\n".encode())
        count += 1
    print(f"{count} files {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
