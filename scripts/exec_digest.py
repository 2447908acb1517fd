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


def main(argv) -> int:
    n = int(argv[1]) if len(argv) > 1 else 200
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
