"""The benchmark's workloads.

Constructing a workload is its set-up: it generates the seed's first round
of inputs, writes them under the output directory, and for `fuzz` generates
the program shapes.  `next_round` generates the next round's inputs, each a
fresh variant drawn from the seeded generator, so no input repeats within a
process.  An operation takes one input file to a checked verdict and returns
an `Outcome`, or raises `Mismatch` when the verdict is not the expected one.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

from ramosaic import cli, engine, litmus, oracle, randprog

import families

# How many of an oracle-checked program's executions `validate_execution`
# re-checks, as scripts/fuzz_soundness.py does.
VALIDATED_EXECUTIONS = 25


class Mismatch(Exception):
    """An operation's verdict differs from the expected one."""


@dataclass(frozen=True)
class Outcome:
    verdicts: tuple  # ((site, verdict), ...)
    rounds: int      # outer fixpoint rounds
    states: int      # states in the fixpoint
    executions: int  # oracle executions enumerated


def _seeded(seed: int, salt: str) -> random.Random:
    return random.Random(f"{seed}/{salt}")


class FamilyWorkload:
    """Members of one scaling family, each analyzed through the CLI's own
    path with its default flags, as `ramosaic file.lit` does."""

    family = None     # size, rng -> families.Member
    round_sizes = ()  # the family sizes of one round's operations, in order
    smallest = 0      # the member the oracle confirms

    def __init__(self, seed: int, out_dir: Path):
        self.seed = seed
        self.out_dir = out_dir
        out_dir.mkdir(parents=True, exist_ok=True)
        self.parser = cli.build_arg_parser()
        self.rng = _seeded(seed, type(self).__name__)
        self.first_round = self.next_round()

    def next_round(self) -> list:
        ops = []
        for slot, size in enumerate(self.round_sizes):
            member = self.family(size, self.rng)
            path = self.out_dir / f"{slot}-{member.name}.lit"
            path.write_text(member.source)
            ops.append((member.name, (path, self.parser.parse_args([str(path)]), member)))
        return ops

    @staticmethod
    def run(op) -> Outcome:
        path, args, member = op
        report, result = cli.analyze_file(path, args)
        expected_overall = "PossiblyViolated" if member.violated else "Proved"
        if report.verdicts != member.expected or report.overall != expected_overall:
            raise Mismatch(f"{member.name}: got {report.verdicts} ({report.overall}), "
                           f"expected {member.expected}")
        return Outcome(tuple(sorted(report.verdicts.items())), result.iterations_total,
                       result.states.total_states(), 0)

    def confirm(self) -> list:
        """Check the family's smallest member against the oracle: it must find
        exactly the violations the construction gives, and the analyzer's
        result on it must pass `check_soundness`."""
        member = self.family(self.smallest, _seeded(self.seed, "smallest"))
        path = self.out_dir / f"{member.name}.lit"
        path.write_text(member.source)
        program = litmus.parse(member.source)
        execs = oracle.enumerate_executions(program)
        found = frozenset(site for e in execs for site in e.violations)
        problems = []
        if found != member.violated:
            problems.append(f"{member.name}: the oracle finds {sorted(found)} violated, "
                            f"the construction gives {sorted(member.violated)}")
        report, result = cli.analyze_file(path, self.parser.parse_args([str(path)]))
        if report.verdicts != member.expected:
            problems.append(f"{member.name}: the analyzer gives {report.verdicts}")
        soundness = oracle.check_soundness(program, result, execs=execs)
        problems += [f"{member.name}: {p}" for p in soundness.problems]
        return problems


class Peterson(FamilyWorkload):
    """Peterson-3 and Peterson-4: wide per-label state sets, so interference,
    merging and the lattice joins carry the time.  Two of every three
    operations are Peterson-3, so the median falls among them and the tail
    among the Peterson-4 ones."""

    family = staticmethod(families.peterson)
    round_sizes = (3, 3, 4, 3, 3, 4)
    smallest = 2


class Readers(FamilyWorkload):
    """nr1w_10 and nr1w_12: few states and three rounds; nearly all the time
    goes to the final assertion over the product of the readers' exit
    states.  Three of every five operations are nr1w_10, so the median falls
    among them and the tail among the nr1w_12 ones."""

    family = staticmethod(families.readers)
    round_sizes = (10, 12, 10, 12, 10)
    smallest = 6


class Fuzz:
    """`randprog.random_program` shapes 0..SHAPES-1, renamed afresh for
    every operation, checked as
    scripts/fuzz_soundness.py does: parse, enumerate, validate, analyze,
    check soundness.

    The shapes and their order are fixed because their cost is heavy-tailed:
    with 400 new shapes drawn per seed, the spread between seeds of the mean
    cost per program was 7-16 %, and of the tail 13-26 %.  The peak memory
    depends on the order, since the program's caches keep every state
    analyzed so far.  Shape 1503 diverges (see CHANGES.md) and stays outside
    the range."""

    SHAPES = 200

    def __init__(self, seed: int, out_dir: Path):
        self.out_dir = out_dir
        out_dir.mkdir(parents=True, exist_ok=True)
        self.rng = _seeded(seed, "fuzz")
        self.shapes = [(shape, litmus.to_source(randprog.random_program(shape)))
                       for shape in range(self.SHAPES)]
        self.first_round = self.next_round()

    def next_round(self) -> list:
        ops = []
        for shape, source in self.shapes:
            path = self.out_dir / f"random_program_{shape}.lit"
            path.write_text(f"# random_program({shape}), renamed\n"
                            f"{families.rename(source, self.rng)}")
            ops.append((f"random_program({shape})", path))
        return ops

    @staticmethod
    def run(path) -> Outcome:
        program = litmus.parse(path.read_text())
        execs = oracle.enumerate_executions(program)
        for e in execs[:VALIDATED_EXECUTIONS]:
            oracle.validate_execution(program, e)
        result = engine.tmai(program)
        report = oracle.check_soundness(program, result, execs=execs)
        if not report.ok:
            raise Mismatch(f"{path.read_text().splitlines()[0]}: "
                           + "; ".join(report.problems))
        verdicts = tuple(sorted((site, str(v)) for site, v in result.verdicts.items()))
        return Outcome(verdicts, result.iterations_total, result.states.total_states(),
                       len(execs))

    def confirm(self) -> list:
        return []


WORKLOADS = {"peterson": Peterson, "readers": Readers, "fuzz": Fuzz}
