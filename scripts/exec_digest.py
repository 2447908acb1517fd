#!/usr/bin/env python3
"""Print the oracle's execution count and one sha256 over its executions,
for byte-identity checks of the enumerator.

For each file of `CORPUS_FILES`, unrolled 2 (as the CLI does by default)
and at the default guard, it hashes `b"TooLarge"` when the enumerator
refuses the file, else each execution's `pickle.dumps`.  Then it hashes
each execution's `pickle.dumps` for `random_program(0..N-1)`.  Two
versions of the oracle that print the same line enumerate the same
executions, in the same order.  The file list is fixed rather than globbed,
so that a file added to `benchmarks/` leaves the line as it is: the line
moves only when the oracle does.

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
CORPUS_FILES = (
    "cas_mutex_fen.lit", "co_2p2w_15.lit", "co_2p2w_5.lit", "dijkstra_fen.lit",
    "dijkstra_unfenced.lit", "iriw.lit", "keyb_isr.lit", "lamport_fp.lit", "lb.lit",
    "lock_mutex.lit", "mp.lit", "nr1w_10.lit", "peterson3.lit", "rmw_reads_init.lit",
    "sb.lit", "why_ic.lit", "wrc.lit",
)
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

    for name in CORPUS_FILES:
        try:
            execs = enumerate_executions(unroll(parse((CORPUS / name).read_text()), CLI_UNROLL))
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
