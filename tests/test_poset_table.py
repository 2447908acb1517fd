"""The analysis's poset table: it names the posets of every state by int
ids, runs each poset operator once per distinct operands, and keeps the
cost of long lock histories down to one sort per distinct poset."""

import collections
import time

from ramosaic import posets
from ramosaic.litmus import parse
from ramosaic.transfer import AnalysisContext

from conftest import full_tails, peterson


def lock_sections(n: int) -> str:
    """One thread of n `lock m; store x i; unlock m;` sections, and a
    thread that loads x."""
    body = " ".join(f"l{i}: lock m; s{i}: store x {i}; u{i}: unlock m;" for i in range(n))
    return (f"vars x = 0;\nlocks m;\nthread t {{ {body} }}\n"
            f"thread u {{ r: q = load x; }}\nassert (q <= {n - 1});\n")


def _assert_interned(result) -> None:
    """Equal posets in the fixpoint have one id: the table holds no poset
    twice, and every id of every state names one of its posets."""
    table = result.states.table
    assert len(set(table.posets)) == len(table.posets)
    assert all(table.intern(p) == i for i, p in enumerate(table.posets))
    for lbl in result.states.labels():
        for s in result.states.at(lbl):
            assert s.layout.table is table
            assert all(0 <= p < len(table.posets) for p in s.mo)


class _CountedRow(dict):
    """One row of a `_CountedMemo`: counts the lookups made through `get`
    in the memo, and keeps their (row, key) pairs."""

    def __init__(self, memo, owner: int):
        super().__init__()
        self.memo, self.owner = memo, owner

    def get(self, key, default=None):
        self.memo.lookups += 1
        self.memo.asked.add((self.owner, key))
        return super().get(key, default)


class _CountedMemo(dict):
    """A meet memo that makes a counting row for each id first asked for."""

    def __init__(self):
        super().__init__()
        self.lookups = 0
        self.asked = set()

    def __missing__(self, owner: int) -> _CountedRow:
        row = self[owner] = _CountedRow(self, owner)
        return row


def _counted_meets(monkeypatch) -> tuple:
    """Count the calls of `posets.meet` per key, frozenset of the operand
    ids, and give each analysis's table a `_CountedMemo`; the counter and
    the list of memos."""
    calls = collections.Counter()
    memos = []
    module_meet, init = posets.meet, AnalysisContext.__init__

    def counted_meet(p1, p2, *flags):
        calls[frozenset((p1, p2))] += 1
        return module_meet(p1, p2, *flags)

    def counting_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        assert not self.posets.meets
        self.posets.meets = _CountedMemo()
        memos.append(self.posets.meets)

    monkeypatch.setattr(posets, "meet", counted_meet)
    monkeypatch.setattr(AnalysisContext, "__init__", counting_init)
    return calls, memos


def test_meet_runs_once_per_distinct_operands(monkeypatch):
    """Interference reads the rows of the meet memo directly and the
    table's `meet` reads them too, so the memo's lookups count every meet
    asked for but the ones with a top operand, which need none."""
    misses, memos = _counted_meets(monkeypatch)
    result = full_tails(parse(peterson(4)))
    assert result.states.total_states() == 1520 and result.iterations_total == 4
    assert max(misses.values()) == 1
    (memo,) = memos
    assert memo.lookups > 10 * len(misses)
    _assert_interned(result)


def test_meet_runs_once_per_unordered_pair(monkeypatch):
    """`posets.meet` is commutative, so the table stores each result in
    both operands' rows: on Peterson-4, which asks for some meets in both
    orders, the module function runs once per unordered pair of operands,
    and the memo answers each pair it holds in both orders alike."""
    calls, memos = _counted_meets(monkeypatch)
    result = full_tails(parse(peterson(4)))
    assert result.states.total_states() == 1520 and result.iterations_total == 4
    (memo,) = memos
    table = result.states.table
    assert 0 < len(memo) < len(table.posets)
    swapped = {(a, b) for a, b in memo.asked if a != b and (b, a) in memo.asked}
    assert len(swapped) > 50, len(swapped)
    assert max(calls.values()) == 1
    assert len(calls) == len({frozenset((table.posets[a], table.posets[b]))
                              for a, b in memo.asked})
    assert all(memo[b][a] == met for a, row in memo.items() for b, met in row.items())


def test_eighty_lock_sections():
    """The mutex's poset holds every lock and unlock, so it grows to 160
    events and 12 720 pairs; sorting it once per state, as the sort key
    did, took about 9 s on a 2-vCPU VM, against under 2 s once per poset."""
    program = parse(lock_sections(80))
    start = time.perf_counter()
    result = full_tails(program)
    elapsed = time.perf_counter() - start
    assert result.states.total_states() == 403
    assert result.iterations_total == 3
    assert {site: str(v) for site, v in result.verdicts.items()} == {"final": "Proved"}
    assert elapsed < 5.0, f"{elapsed:.2f} s"
    _assert_interned(result)
