#!/usr/bin/env python3
"""Print where `engine.tmai` spends its time on the scaling families.

For each size of the N-thread Peterson filter lock and of the N-reader
nr1w program (`perfbench/families.py`, `peterson` and `readers`), it
prints the best of K wall times of each phase of a `tmai` run: parse, CFG
(the graph and the interference map), context (`AnalysisContext`),
fixpoint (the rounds) and evaluation (the assertion checks), then the
fixpoint's states and rounds.  Every repeat runs all phases from the source
again; the state and round counts must repeat too.

    python3 scripts/scaling.py [--peterson 2,3,4,5] [--readers 4,8,16,32]
                               [--repeat K]

An empty size list skips its family.  Times are wall-clock milliseconds of one
process, so compare them only within one machine.
"""

import argparse
import importlib.util
import random
import sys
import time
from pathlib import Path

from ramosaic import engine, interference
from ramosaic.litmus import build_cfg, parse
from ramosaic.transfer import AnalysisContext, TransferConfig

# Loaded by file path, so that importing this script leaves sys.path as it
# is.  The module is registered before it runs: its dataclasses look it up.
_spec = importlib.util.spec_from_file_location(
    "perfbench_families", Path(__file__).resolve().parent.parent / "perfbench" / "families.py")
families = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(families)

PHASES = ("parse", "cfg", "context", "fixpoint", "evaluate")


def run_once(source: str) -> tuple:
    """(seconds per phase, states, rounds) of one `tmai` run of source."""
    times = []
    clock = time.perf_counter()

    def lap():
        nonlocal clock
        now = time.perf_counter()
        times.append(now - clock)
        clock = now

    program = parse(source)
    lap()
    cfg = build_cfg(program)
    interfs = interference.get_interfs(program, cfg)
    lap()
    ctx = AnalysisContext(program, cfg, TransferConfig())
    lap()
    passes = [(t.name, interfs[t.name]) for t in program.threads]
    sigma, rounds, _, _ = engine._rounds(ctx, passes, 1000)
    lap()
    engine._evaluate(ctx, sigma)
    lap()
    return times, sigma.total_states(), rounds


def measure(member: families.Member, repeat: int) -> tuple:
    best = None
    counts = None
    for _ in range(repeat):
        times, states, rounds = run_once(member.source)
        if counts is not None and counts != (states, rounds):
            raise SystemExit(f"{member.name}: the counts changed between repeats")
        counts = (states, rounds)
        best = times if best is None else list(map(min, best, times))
    return best, counts


def sizes(text: str) -> list:
    return [int(n) for n in text.split(",") if n.strip()]


def main(argv) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--peterson", type=sizes, default=[2, 3, 4, 5])
    ap.add_argument("--readers", type=sizes, default=[4, 8, 16, 32])
    ap.add_argument("--repeat", type=int, default=3, help="runs per member (best is kept)")
    args = ap.parse_args(argv[1:])
    if args.repeat < 1:
        ap.error("--repeat must be at least 1")
    print(f"{'member':<12}" + "".join(f"{p + '_ms':>12}" for p in PHASES)
          + f"{'states':>9}{'rounds':>8}")
    for build, ns in ((families.peterson, args.peterson), (families.readers, args.readers)):
        for n in ns:
            member = build(n, random.Random(1))
            best, (states, rounds) = measure(member, args.repeat)
            print(f"{member.name:<12}" + "".join(f"{t * 1e3:>12.3f}" for t in best)
                  + f"{states:>9}{rounds:>8}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
