#!/usr/bin/env python3
"""Print the oracle's execution count and one sha256 over its executions,
for byte-identity checks of the enumerator.

For every corpus file, in sorted order, unrolled 2 (as the CLI does by
default) and at the default guard, it hashes `b"TooLarge"` when the
enumerator refuses the file, else each execution's `pickle.dumps`.  Then
it hashes each execution's `pickle.dumps` for `random_program(0..N-1)`.
Two versions of the oracle that print the same line enumerate the same
executions, in the same order.

    python3 scripts/exec_digest.py [N]      # N defaults to 200
"""

import argparse
import hashlib
import pickle
import sys
from pathlib import Path

from ramosaic.litmus import parse, unroll
from ramosaic.oracle import enumerate_executions
from ramosaic.posets import TooLarge
from ramosaic.randprog import random_program

CORPUS = Path(__file__).resolve().parent.parent / "benchmarks"
CLI_UNROLL = 2


def non_negative(text: str) -> int:
    """A count: an integer of at least 0."""
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, not {n}")
    return n


def main(argv) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("n", nargs="?", type=non_negative, default=200, metavar="N",
                    help="random programs to enumerate after the corpus (default 200)")
    n = ap.parse_args(argv[1:]).n
    digest = hashlib.sha256()
    count = 0

    def add(execs):
        nonlocal count
        for e in execs:
            digest.update(pickle.dumps(e))
        count += len(execs)

    for path in sorted(CORPUS.glob("*.lit")):
        try:
            execs = enumerate_executions(unroll(parse(path.read_text()), CLI_UNROLL))
        except TooLarge:
            digest.update(b"TooLarge")
            continue
        add(execs)
    for seed in range(n):
        add(enumerate_executions(random_program(seed)))
    print(f"{count} executions {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
