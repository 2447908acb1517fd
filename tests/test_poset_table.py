"""The analysis's poset table: it interns the posets of every state, runs
each poset operator once per distinct operands, and keeps the cost of long
lock histories down to one sort per distinct poset."""

import collections
import time

from ramosaic import posets
from ramosaic.engine import tmai
from ramosaic.litmus import parse


def peterson(n: int) -> str:
    """The unfenced N-thread filter lock, as benchmarks/peterson3.lit."""
    decls = ", ".join([f"q{i} = 0" for i in range(1, n + 1)] + ["v = 0", "cs = 0"])
    threads = []
    for i in range(1, n + 1):
        others = [j for j in range(1, n + 1) if j != i]
        clear = " && ".join(f"rA{i}_{j} == 0" for j in others)
        body = [f"a{i}: store q{i} 1;", f"b{i}: store v {i};"]
        body += [f"c{i}_{j}: rA{i}_{j} = load q{j};" for j in others]
        body += [f"e{i}: rV{i} = load v;", f"f{i}: assume(({clear}) || rV{i} != {i});",
                 f"g{i}: store cs {i};", f"x{i}: rZ{i} = load cs;",
                 f"h{i}: assert(rZ{i} == {i});"]
        threads.append(f"thread t{i} {{ {' '.join(body)} }}")
    return f"vars {decls};\n" + "\n".join(threads) + "\n"


def lock_sections(n: int) -> str:
    """One thread of n `lock m; store x i; unlock m;` sections, and a
    thread that loads x."""
    body = " ".join(f"l{i}: lock m; s{i}: store x {i}; u{i}: unlock m;" for i in range(n))
    return (f"vars x = 0;\nlocks m;\nthread t {{ {body} }}\n"
            f"thread u {{ r: q = load x; }}\nassert (q <= {n - 1});\n")


def _assert_interned(result) -> None:
    """Equal posets in the fixpoint are one object."""
    canonical: dict = {}
    for lbl in result.states.labels():
        for s in result.states.at(lbl):
            for _, p in s.mo:
                assert canonical.setdefault(p, p) is p


def test_meet_runs_once_per_distinct_operands(monkeypatch):
    misses = collections.Counter()
    requests = 0
    module_meet, table_meet = posets.meet, posets.PosetTable.meet

    def counted_meet(p1, p2, *flags):
        misses[p1, p2] += 1
        return module_meet(p1, p2, *flags)

    def counted_table_meet(table, p1, p2):
        nonlocal requests
        requests += 1
        return table_meet(table, p1, p2)

    monkeypatch.setattr(posets, "meet", counted_meet)
    monkeypatch.setattr(posets.PosetTable, "meet", counted_table_meet)
    result = tmai(parse(peterson(4)))
    assert result.states.total_states() == 1520 and result.iterations_total == 4
    assert max(misses.values()) == 1
    assert requests > 10 * len(misses)
    _assert_interned(result)


def test_eighty_lock_sections():
    """The mutex's poset holds every lock and unlock, so it grows to 160
    events and 12 720 pairs; sorting it once per state, as the sort key
    did, took about 9 s on a 2-vCPU VM, against under 2 s once per poset."""
    program = parse(lock_sections(80))
    start = time.perf_counter()
    result = tmai(program)
    elapsed = time.perf_counter() - start
    assert result.states.total_states() == 403
    assert result.iterations_total == 3
    assert {site: str(v) for site, v in result.verdicts.items()} == {"final": "Proved"}
    assert elapsed < 5.0, f"{elapsed:.2f} s"
    _assert_interned(result)
