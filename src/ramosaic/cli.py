"""Command-line driver: analyze one litmus file, run a benchmark directory
against expected verdicts, or enumerate oracle outcomes.

Exit codes: 0 all assertions proved, 1 some possibly violated, 2 parse or
semantic error, 3 internal error (divergence, budget, soundness failure, or
any other uncaught exception).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from . import engine
from .litmus import ParseError, SemanticError, parse, unroll
from .transfer import TransferConfig

EXIT_PROVED = 0
EXIT_VIOLATED = 1
EXIT_INPUT_ERROR = 2
EXIT_INTERNAL = 3


class InputError(Exception):
    """The input file cannot be read as UTF-8 text."""


def read_source(path: Path) -> str:
    """The text of an input file; InputError when it cannot be read."""
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise InputError(f"not UTF-8 text ({exc.reason} at byte {exc.start})") from exc
    except OSError as exc:
        raise InputError(exc.strerror or str(exc)) from exc


@dataclass
class RunReport:
    file: str
    config: dict
    verdicts: dict
    overall: str
    iterations_total: int
    iterations_effective: int
    states_per_label: dict
    widened: list
    elapsed_s: float

    def to_json(self, states=None) -> str:
        """The report as one JSON object; with `states`, the dump lines of
        `--dump-states`, under the key `states`."""
        d = dict(self.__dict__)
        if states is not None:
            d["states"] = states
        return json.dumps(d, sort_keys=True, indent=2)


def _config_dict(args) -> dict:
    return {
        "unroll": args.unroll,
        "widen_after": args.widen_after,
        "abstract_mo": args.abstract_mo,
        "rmw_critical": args.rmw_critical,
        "max_iterations": args.max_iterations,
    }


def analyze_file(path: Path, args) -> tuple:
    program = parse(read_source(path))
    program = unroll(program, args.unroll)
    tc = TransferConfig(abstract_mo=args.abstract_mo,
                        rmw_critical=args.rmw_critical,
                        widening_threshold=args.widen_after)
    start = time.perf_counter()
    result = engine.tmai(program, tc, max_iterations=args.max_iterations)
    elapsed = time.perf_counter() - start
    if args.oracle_check:
        from . import oracle  # only here: plain analysis never loads the oracle
        report = oracle.check_soundness(program, result)
        report.raise_if_unsound()
    verdicts = {site: str(v) for site, v in sorted(result.verdicts.items())}
    overall = "Proved" if result.all_proved else "PossiblyViolated"
    return RunReport(
        file=str(path),
        config=_config_dict(args),
        verdicts=verdicts,
        overall=overall,
        iterations_total=result.iterations_total,
        iterations_effective=result.iterations_effective,
        states_per_label=result.states.counts(),
        widened=sorted(str(l) for l in result.widened),
        elapsed_s=round(elapsed, 4),
    ), result


def expected_verdict(path: Path) -> str | None:
    for line in read_source(path).splitlines():
        stripped = line.strip()
        if stripped.startswith("# expect:"):
            return stripped.split(":", 1)[1].strip()
        if stripped and not stripped.startswith("#"):
            break
    return None


def bench(directory: Path, args) -> int:
    files = sorted(directory.glob("*.lit"))
    rows = []
    mismatches = 0
    for f in files:
        expect = None
        try:
            expect = expected_verdict(f)
            report, _ = analyze_file(f, args)
        except Exception as exc:  # keep the table going; report the failure
            rows.append((f.name, expect or "-", f"error: {exc}", "FAIL", "-", "-"))
            mismatches += 1
            continue
        got = "proved" if report.overall == "Proved" else "violated"
        ok = (expect is None) or (got == expect)
        if not ok:
            mismatches += 1
        rows.append((f.name, expect or "-", got, "ok" if ok else "MISMATCH",
                     f"{report.iterations_effective}/{report.iterations_total}",
                     f"{report.elapsed_s:.2f}s"))
    if args.json:
        print(json.dumps([{"file": r[0], "expect": r[1], "verdict": r[2],
                           "status": r[3], "iterations": r[4], "time": r[5]}
                          for r in rows], indent=2))
    else:
        widths = [max(len(str(r[i])) for r in rows + [("file", "expect", "verdict",
                                                       "status", "it", "time")])
                  for i in range(6)] if rows else []
        header = ("file", "expect", "verdict", "status", "it", "time")
        if rows:
            print("  ".join(h.ljust(w) for h, w in zip(header, widths)))
            for r in rows:
                print("  ".join(str(c).ljust(w) for c, w in zip(r, widths)))
        else:
            print("(no .lit files)")
    return EXIT_VIOLATED if mismatches else EXIT_PROVED


def positive_int(text: str) -> int:
    """An argparse type: an integer of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_arg_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="ramosaic",
                                 description="Thread-modular analyzer for "
                                             "release-acquire litmus programs")
    ap.add_argument("path", help="litmus file, or a directory to benchmark")
    ap.add_argument("--unroll", type=positive_int, default=2, metavar="N",
                    help="loop unrolling bound (default 2)")
    ap.add_argument("--widen-after", type=positive_int, default=3, metavar="N",
                    help="widen a loop head after N visits (default 3); applies only to "
                         "loops analyzed natively, and this command unrolls every "
                         "loop first, so here the flag has no effect")
    ap.add_argument("--abstract-mo", action=argparse.BooleanOptionalAction,
                    default=True,
                    help="forget older same-thread stores in posets (default on)")
    ap.add_argument("--rmw-critical", action=argparse.BooleanOptionalAction,
                    default=True,
                    help="treat rmw events as critical (default on)")
    ap.add_argument("--max-iterations", type=positive_int, default=1000, metavar="N",
                    help="give up after N rounds of the fixpoint (default 1000), the "
                         "last pass over the labels that no other thread reads "
                         "counting as one: exit 3 with Divergence")
    ap.add_argument("--dump-states", action="store_true",
                    help="print every label's states at the fixpoint")
    ap.add_argument("--json", action="store_true",
                    help="print the report as JSON; for a directory, the table")
    ap.add_argument("--oracle-check", action="store_true",
                    help="cross-check the result against the execution oracle")
    return ap


def main(argv=None) -> int:
    args = build_arg_parser().parse_args(argv)
    path = Path(args.path)
    if not path.exists():
        print(f"ramosaic: {path}: no such file or directory", file=sys.stderr)
        return EXIT_INPUT_ERROR
    try:
        if path.is_dir():
            return bench(path, args)
        report, result = analyze_file(path, args)
    except (InputError, ParseError, SemanticError) as exc:
        print(f"ramosaic: {path}: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except Exception as exc:  # divergence, budget, soundness failure, or a defect
        print(f"ramosaic: {path}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    if args.json:
        print(report.to_json(result.states.dump().splitlines() if args.dump_states else None))
    else:
        for site, verdict in report.verdicts.items():
            print(f"{site}: {verdict}")
        print(f"overall: {report.overall}  "
              f"(iterations {report.iterations_effective} effective / "
              f"{report.iterations_total} total, {report.elapsed_s:.3f}s)")
        if args.dump_states:
            print(result.states.dump())
    return EXIT_PROVED if report.overall == "Proved" else EXIT_VIOLATED


def oracle_main(argv=None) -> int:
    from . import oracle
    ap = argparse.ArgumentParser(prog="ra-oracle",
                                 description="Enumerate release-acquire "
                                             "executions of a loop-free litmus file")
    ap.add_argument("path")
    ap.add_argument("--outcomes", action="store_true",
                    help="print the sorted set of final register valuations")
    ap.add_argument("--unroll", type=positive_int, default=2)
    ap.add_argument("--guard", type=positive_int, default=14)
    args = ap.parse_args(argv)
    path = Path(args.path)
    if not path.exists():
        print(f"ra-oracle: {path}: no such file or directory", file=sys.stderr)
        return EXIT_INPUT_ERROR
    try:
        program = unroll(parse(read_source(path)), args.unroll)
        execs = oracle.enumerate_executions(program, guard=args.guard)
    except (InputError, ParseError, SemanticError) as exc:
        print(f"ra-oracle: {path}: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except Exception as exc:
        print(f"ra-oracle: {path}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    if args.outcomes:
        for regs in sorted(oracle.outcomes(execs)):
            print(" ".join(f"{k}={v}" for k, v in regs))
    violated = sorted({site for e in execs for site in e.violations})
    print(f"executions: {len(execs)}")
    if violated:
        print("violated: " + ", ".join(violated))
        return EXIT_VIOLATED
    return EXIT_PROVED


if __name__ == "__main__":
    sys.exit(main())
