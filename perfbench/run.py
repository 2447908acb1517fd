#!/usr/bin/env python3
"""ramosaic benchmark: one workload per run, every verdict checked.

    python3 perfbench/run.py --workload peterson|readers|fuzz --seed N \
        --seconds S --trace 0|1

The process given on the command line starts the workload's process
several times: SETUP_PROBES times to measure set-up alone, then once to
run it.  The workload process sets up, then runs rounds of operations in a
closed loop of one caller, one operation at a time, until S seconds have
passed and at least MIN_OPS operations, or one round if that is longer,
are done; it always ends on a whole round.  With --trace 1 a further
process sets up again and runs the first round once more with every layer
traced, and the run reports per-layer metrics in place of the end-to-end
ones.  The last line of standard output is the JSON result.

Times are reported at a fixed reference speed of the processor: a
process's wall times are scaled by REFERENCE_S over the mean time of a
fixed pure-Python loop (`reference_slice`) that it times every SEGMENT_S
or so.  On a shared machine whose processor speed drifts from one minute to
the next, this takes most of the drift out of the figures; the raw wall
times go to standard error.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench_out"
# One process's set-up time spread 15-26 % over ten runs, the median of
# five processes 10-20 % (README).
SETUP_PROBES = 4
MIN_OPS = 40
TAIL_BEYOND = 10
CHILD_TIMEOUT_S = 170
# The reference loop: REFERENCE_ITERS iterations take REFERENCE_S at the
# reference speed, about their median on the 2-vCPU machine of the README.
REFERENCE_ITERS = 5_000
REFERENCE_S = 0.010
# The least time between two reference slices.
SEGMENT_S = 0.25

clock = time.perf_counter


def _args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["peterson", "readers", "fuzz"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--role", choices=["main", "probe", "worker", "traced"], default="main",
                    help=argparse.SUPPRESS)
    ap.add_argument("--t0", type=float, help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def reference_slice() -> float:
    """Time a fixed pure-Python loop that runs no ramosaic code but does the
    same kind of work: it builds, sorts and hashes small tuples and sets.
    The cyclic collector is off meanwhile, so the program's heap does not
    slow it."""
    gc.disable()
    start = clock()
    table = {}
    for i in range(REFERENCE_ITERS):
        key = tuple(sorted((("v", i * 7 % 13), ("w", i * 3 % 11), ("x", i % 5))))
        table[i % 500, key] = frozenset(key) | {i % 97}
    elapsed = clock() - start
    gc.enable()
    return elapsed


def tail_percentile(min_ops: int) -> int:
    """The highest whole percentile with at least TAIL_BEYOND samples beyond
    its nearest-rank value in a run of min_ops operations."""
    return math.floor(100 * (min_ops - TAIL_BEYOND) / min_ops)


def percentile(sorted_values, p: float) -> float:
    """Nearest-rank percentile."""
    return sorted_values[max(1, math.ceil(p * len(sorted_values) / 100)) - 1]


# ---------------------------------------------------------------------------
# The process given on the command line


def main(argv=None) -> int:
    args = _args(argv)
    if args.role != "main":
        return worker(args)
    if not (ROOT / "src" / "ramosaic" / "__init__.py").is_file():
        print(f"perfbench: no ramosaic sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    setups = [] if args.trace else [_child(args, "probe")["setup_s"]
                                    for _ in range(SETUP_PROBES)]
    result = _child(args, "worker")
    setups.append(result.pop("setup_s"))
    first_round = result.pop("first_round")
    if args.trace:
        traced = _child(args, "traced")
        problems = compare_traced(first_round, traced)
        for problem in problems:
            print(f"perfbench: incorrect: {problem}", file=sys.stderr)
        result["correct"] = result["correct"] and not problems
        overhead = 100 * (traced["round_s"] / first_round["round_s"] - 1)
        result["metrics"] = dict(traced["metrics"],
                                 **{"trace.overhead_pct": {"value": overhead, "unit": "%"}})
    else:
        print(f"perfbench: setup_s of the five processes: {[round(s, 4) for s in setups]}",
              file=sys.stderr)
        result["metrics"]["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    print(json.dumps(result))
    return 0


def _child(args, role: str) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--role", role]
    t0 = time.monotonic()
    proc = subprocess.run(cmd + ["--t0", repr(t0)], stdout=subprocess.PIPE, text=True,
                          timeout=CHILD_TIMEOUT_S, cwd=ROOT)
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: {role} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def compare_traced(first_round: dict, traced: dict) -> list:
    """The traced round ran the same inputs as the untraced first round: its
    outcomes and deterministic counts must equal those."""
    problems = []
    if traced["outcomes"] != first_round["outcomes"]:
        problems.append("traced outcomes differ from the untraced round's")
    done = [o for o in first_round["outcomes"] if o is not None]
    metrics = traced["metrics"]
    for name, field in (("engine.rounds", 1), ("states.fixpoint_states", 2),
                        ("oracle.executions", 3)):
        expected = sum(o[field] for o in done)
        if metrics[name]["value"] != expected:
            problems.append(f"traced {name} is {metrics[name]['value']}, untraced {expected}")
    return problems


# ---------------------------------------------------------------------------
# The workload processes


def worker(args) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import ramosaic
    if Path(ramosaic.__file__).resolve().parent != ROOT / "src" / "ramosaic":
        print(f"perfbench: imported ramosaic from {ramosaic.__file__}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    out_dir = OUT / f"{args.workload}-{args.seed}"
    if args.role == "traced":
        return traced_round(args, out_dir)
    workload = WORKLOADS[args.workload](args.seed, out_dir)
    raw_setup_s = time.monotonic() - args.t0
    setup_s = raw_setup_s * REFERENCE_S / statistics.fmean(
        reference_slice() for _ in range(3))
    if args.role == "probe":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    loop = Loop(workload)
    loop_start = clock()
    ops = workload.first_round
    peak_rss_mb = None
    while True:
        loop.run_round(ops)
        if peak_rss_mb is None and loop.attempted >= loop.min_ops:
            # The program's caches grow with every new input, so the peak is
            # taken over the same work in every run.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if clock() - loop_start >= args.seconds and loop.attempted >= loop.min_ops:
            break
        ops = workload.next_round()
    for error in loop.errors[:5]:
        print(f"perfbench: failed: {error}", file=sys.stderr)
    problems = workload.confirm()
    for problem in problems:
        print(f"perfbench: incorrect: {problem}", file=sys.stderr)

    times = sorted(t * loop.scale for t in loop.raw_times)
    n = len(times)
    result = {"correct": not problems, "attempted": loop.attempted,
              "failed": loop.attempted - n, "metrics": {}, "setup_s": setup_s,
              "first_round": {"outcomes": loop.first_outcomes,
                              "round_s": loop.round_times[0] * loop.scale}}
    if not n:
        print(f"perfbench: none of {loop.attempted} operations passed", file=sys.stderr)
        return 1
    if not args.trace:
        p = tail_percentile(loop.min_ops)
        result["metrics"] = {
            "programs_per_s": {"value": n / sum(times), "unit": "1/s"},
            "verdict_s.p50": {"value": statistics.median(times), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
        if n >= MIN_OPS:
            result["metrics"]["verdict_s.tail"] = {"value": percentile(times, p), "unit": "s"}
        raw = sorted(loop.raw_times)
        print(f"perfbench: {args.workload} seed {args.seed}: {n} verdicts in "
              f"{len(loop.round_times)} rounds, {clock() - loop_start:.2f} s; tail is p{p}; "
              f"raw wall: setup {raw_setup_s:.4f} s, {n / sum(raw):.4f} verdicts/s, "
              f"p50 {statistics.median(raw):.4f} s, p{p} {percentile(raw, p):.4f} s; "
              f"reference slice {1000 * REFERENCE_S / loop.scale:.3f} ms",
              file=sys.stderr)
    print(json.dumps(result))
    return 0


class Loop:
    """Runs rounds of operations one at a time.  At the start of each round
    and after each operation that ends at least SEGMENT_S after the last
    reference slice, it times a reference slice, so the slices sample the
    processor's speed evenly over the run."""

    def __init__(self, workload, operation=None):
        self.operation = operation or (lambda i, op: workload.run(op))
        self.min_ops = max(MIN_OPS, len(workload.first_round))
        self.raw_times, self.round_times, self.slices = [], [], []
        self.first_outcomes, self.errors = [], []
        self.attempted = 0

    def run_round(self, ops) -> None:
        from workloads import Mismatch

        round_s = 0.0
        self.slices.append(reference_slice())
        last_slice = clock()
        for i, (label, op) in enumerate(ops):
            self.attempted += 1
            start = clock()
            try:
                outcome = self.operation(i, op)
            except Mismatch as exc:
                outcome, error = None, str(exc)
            except Exception as exc:  # a crash is a failed operation, not a lost run
                outcome, error = None, f"{label}: {type(exc).__name__}: {exc}"
            elapsed = clock() - start
            round_s += elapsed
            if outcome is None:
                self.errors.append(error)
            else:
                self.raw_times.append(elapsed)
            if not self.round_times:
                self.first_outcomes.append(outcome and dataclasses.astuple(outcome))
            if clock() - last_slice >= SEGMENT_S:
                self.slices.append(reference_slice())
                last_slice = clock()
        self.round_times.append(round_s)

    @property
    def scale(self) -> float:
        """Turns this run's wall times into times at the reference speed."""
        return REFERENCE_S / statistics.fmean(self.slices)


def traced_round(args, out_dir) -> int:
    """Set up again and run the first round with every layer traced."""
    from tracer import Tracer
    from workloads import WORKLOADS

    tracer = Tracer()
    tracer.install()
    try:
        workload = tracer.operation(0, WORKLOADS[args.workload], args.seed, out_dir)
        loop = Loop(workload, lambda i, op: tracer.operation(i + 1, workload.run, op))
        loop.run_round(workload.first_round)
    finally:
        tracer.uninstall()
    tracer.write(OUT / f"trace-{args.workload}-{args.seed}.jsonl")
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in tracer.metrics().items()}
    print(json.dumps({"metrics": metrics, "outcomes": loop.first_outcomes,
                      "round_s": loop.round_times[0] * loop.scale}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
