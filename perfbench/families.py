"""Seeded inputs for the benchmark workloads.

Each family member carries the verdicts that follow from how it is built,
so the benchmark checks the analyzer against the construction rather than
against a stored copy of earlier output.  The random generator varies only
names and constants, and keeps the order in which the analyzer sorts them,
so every variant of a program costs the same work, while no two variants
share a state the analyzer could have cached.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass

VIOLATED = "PossiblyViolated"



def names(rng: random.Random, k: int) -> list:
    """k distinct variable names such as `xkbqd`, sorted.  They are made of
    letters only, unlike registers, threads and labels, and no keyword
    starts with x, y or z."""
    out = set()
    while len(out) < k:
        out.add(rng.choice("xyz") + "".join(rng.choices("abcdefghijklmnopqrstuvw", k=4)))
    return sorted(out)


@dataclass(frozen=True)
class Member:
    """One generated litmus program and the verdict of every assertion site
    in it, as the CLI prints them."""

    name: str
    source: str
    expected: dict  # site -> "Proved" | "PossiblyViolated"

    @property
    def violated(self) -> frozenset:
        return frozenset(s for s, v in self.expected.items() if v == VIOLATED)


def peterson(n: int, rng: random.Random) -> Member:
    """The N-thread filter lock without fences (N >= 2), generalising
    benchmarks/peterson3.lit.

    Thread i raises its flag, writes its id to the victim variable, reads
    every other flag and the victim, and enters when all flags read 0 or the
    victim is no longer its own id.  Release-acquire lets two threads both
    read the other's flag as 0 (the store-buffering shape), so any two
    threads can be in the critical section together; the later store to
    `cs` then makes the other's re-read fail.  Every `h` assertion is
    therefore violated, for every N.  The ids are consecutive from a drawn
    first id, so the intervals the analysis joins keep their shape.
    """
    if n < 2:
        raise ValueError("peterson needs at least two threads")
    first_id = rng.randint(1, 50)
    cs, *flags, victim = names(rng, n + 2)  # in the order of `cs`, `q1`..`qN`, `v`
    flag = dict(zip(range(1, n + 1), flags))
    decls = ", ".join([f"{flag[i]} = 0" for i in range(1, n + 1)]
                      + [f"{victim} = 0", f"{cs} = 0"])
    lines = [f"# Peterson-{n}: unfenced filter lock; every h assertion is violated.",
             f"vars {decls};"]
    for i in range(1, n + 1):
        tid = first_id + i - 1
        others = [j for j in range(1, n + 1) if j != i]
        body = [f"a{i}: store {flag[i]} 1;", f"b{i}: store {victim} {tid};"]
        body += [f"c{i}_{j}: rA{i}_{j} = load {flag[j]};" for j in others]
        clear = " && ".join(f"rA{i}_{j} == 0" for j in others)
        body += [f"e{i}: rV{i} = load {victim};",
                 f"f{i}: assume(({clear}) || rV{i} != {tid});",
                 f"g{i}: store {cs} {tid};",
                 f"x{i}: rZ{i} = load {cs};",
                 f"h{i}: assert(rZ{i} == {tid});"]
        lines.append(f"thread t{i} {{\n  " + "\n  ".join(body) + "\n}")
    expected = {f"h{i}": VIOLATED for i in range(1, n + 1)}
    return Member(f"peterson{n}", "\n".join(lines) + "\n", expected)


def readers(n: int, rng: random.Random) -> Member:
    """One writer and N readers of one variable (`nr1w_N`, N >= 1).

    The postcondition says that some reader still saw the initial value.
    Every reader may read the write once it is done, so it is violated for
    every N.
    """
    if n < 1:
        raise ValueError("readers needs at least one reader")
    var, = names(rng, 1)
    init = rng.randint(0, 50)
    written = init + 1
    threads = [f"thread w {{ a: store {var} {written}; }}"]
    threads += [f"thread rd{i} {{ b{i}: q{i} = load {var}; }}" for i in range(1, n + 1)]
    disjuncts = [f"q{i} == {init}" for i in range(1, n + 1)]
    lines = [f"# nr1w_{n}: one writer, {n} readers; the postcondition is violated.",
             f"vars {var} = {init};", *threads,
             f"assert ({' || '.join(disjuncts)});"]
    return Member(f"nr1w_{n}", "\n".join(lines) + "\n", {"final": VIOLATED})


def rename(source: str, rng: random.Random) -> str:
    """Rename a program printed by `litmus.to_source` from
    `randprog.random_program`: shared variables and the mutex get new names
    in the same sorted order, and threads, labels and registers new
    prefixes.  The program's executions and verdicts are unchanged."""
    shared = dict(zip(["m", "x", "y", "z"], names(rng, 4)))
    prefixes = {"t": rng.choice(["th", "cpu", "p"]),
                "l": rng.choice(["s", "pc", "at"]),
                "r": rng.choice(["rg", "v", "k"])}

    def sub(match):
        word = match.group(0)
        if word in shared:
            return shared[word]
        if word[0] in prefixes and word[1:].isdigit():
            return prefixes[word[0]] + word[1:]
        return word

    return re.sub(r"\b[A-Za-z_]\w*\b", sub, source)
