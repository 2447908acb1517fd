"""The lattice of per-variable modification-order posets.

An element is a finite set of write events plus a strict partial order over
them, stored transitively closed; a dedicated bottom sits below everything
and the empty poset is top.  Two operator sets are provided: the
concrete-faithful one, and an upper-approximating one that forgets older
same-thread stores of the variable (newest-store abstraction).  The module
also hosts the abstraction `alpha` of sets of total modification orders
(losets) to posets and the soundness relation `beta_related`, against which
the oracle's orders are checked, and `PosetTable`, through which an
analysis names its posets by small int ids and memoizes the operators.
"""

from __future__ import annotations

import collections
from dataclasses import dataclass
from typing import FrozenSet, Iterable, NamedTuple, Tuple

from .litmus import Cfg


class TooLarge(Exception):
    pass


class Event(NamedTuple):
    """A write event.  A tuple, so hashing, equality and ordering run in C,
    in field order, as `dataclass(order=True)` gave."""

    label: str
    instance: int
    thread: str
    kind: str  # store | rmw | lock | unlock
    var: str

    @property
    def key(self) -> tuple:
        return (self.label, self.instance)

    def __str__(self) -> str:
        return f"{self.label}.{self.instance}"


class SbIndex:
    """Same-thread, same-variable sequenced-before, keyed by event key
    `(label, instance)`: each key maps to the frozenset of keys sequenced
    after it.

    Queries are reflexive; `strict` excludes equal keys.
    """

    def __init__(self, pairs: Iterable[tuple] = ()):
        after: dict = {}
        for a, b in pairs:
            after.setdefault(a, set()).add(b)
        self._after = {a: frozenset(bs) for a, bs in after.items()}

    def strict(self, a: tuple, b: tuple) -> bool:
        return b in self._after.get(a, ())

    def sb(self, a: tuple, b: tuple) -> bool:
        return a == b or b in self._after.get(a, ())

    @classmethod
    def from_cfg(cls, cfg: Cfg) -> "SbIndex":
        """One frozenset per label: the members of its (thread, variable)
        group that follow it within one iteration (`Cfg.reachable`)."""
        groups: dict = {}
        for lbl, (kind, loc) in cfg.accesses.items():
            if kind != "load":
                groups.setdefault((cfg.thread_of[lbl], loc), []).append(lbl)
        out = cls()
        for labels in groups.values():
            key_of = {lbl: (lbl.name, lbl.instance) for lbl in labels}
            members = frozenset(labels)
            for a in labels:
                # a label alone in its group needs no reachability
                after = cfg.reachable(a) & members if len(labels) > 1 else ()
                out._after[key_of[a]] = frozenset(key_of[b] for b in after)
        return out


EMPTY_SB = SbIndex()


def _closure(pairs: FrozenSet[tuple]) -> FrozenSet[tuple]:
    succ: dict = {}
    for a, b in pairs:
        succ.setdefault(a, set()).add(b)
    closed = set()
    for a in succ:
        seen: set = set()
        stack = list(succ[a])
        while stack:
            b = stack.pop()
            if b in seen:
                continue
            seen.add(b)
            stack.extend(succ.get(b, ()))
        closed.update((a, b) for b in seen)
    return frozenset(closed)


class MoPoset(NamedTuple):
    """A tuple, like Event, so hashing and equality run in C when a
    `PosetTable` interns it.  States hold the table's int id for a poset,
    not the poset."""

    bottom: bool
    events: FrozenSet[Event]
    pairs: FrozenSet[tuple]  # (Event, Event), transitively closed

    def __str__(self) -> str:
        if self.bottom:
            return "⊥"
        evs = ", ".join(str(e) for e in sorted(self.events))
        prs = ", ".join(f"{a}<{b}" for a, b in sorted(self.pairs))
        return f"{{{evs} | {prs}}}" if prs else f"{{{evs}}}"

    @property
    def is_top(self) -> bool:
        return not self.bottom and not self.events

    def lasts(self) -> FrozenSet[Event]:
        """Maximal elements of the order."""
        if self.bottom:
            return frozenset()
        tails = {a for a, _ in self.pairs}
        return frozenset(e for e in self.events if e not in tails)

    def check(self):
        """Audit: irreflexive, acyclic, transitively closed, endpoints covered."""
        if self.bottom:
            assert not self.events and not self.pairs
            return
        for a, b in self.pairs:
            assert a != b, f"reflexive pair {a}"
            assert (b, a) not in self.pairs, f"cycle {a},{b}"
            assert a in self.events and b in self.events
        assert self.pairs == _closure(self.pairs), "order not transitively closed"


BOTTOM = MoPoset(True, frozenset(), frozenset())
TOP = MoPoset(False, frozenset(), frozenset())


def poset(events: Iterable[Event], pairs: Iterable[tuple] = ()) -> MoPoset:
    """Build a poset, closing the order; bottom when the input is cyclic."""
    evs = frozenset(events)
    closed = _closure(frozenset(pairs))
    if any(a == b for a, b in closed):
        return BOTTOM
    return MoPoset(False, evs, closed)


def chain(*events: Event) -> MoPoset:
    prs = {(events[i], events[j])
           for i in range(len(events)) for j in range(i + 1, len(events))}
    return MoPoset(False, frozenset(events), frozenset(prs))


def less(p1: MoPoset, p2: MoPoset) -> bool:
    """p1 is below p2: p1 has at least p2's events and all of p2's order."""
    if p1.bottom:
        return True
    if p2.bottom:
        return False
    return p1.events >= p2.events and p2.pairs <= p1.pairs


def _critical_kinds(rmw_critical: bool) -> tuple:
    """The kinds of event that every execution orders totally."""
    return ("lock", "unlock", "rmw") if rmw_critical else ("lock", "unlock")


def consistent(p1: MoPoset, p2: MoPoset, sb: SbIndex = EMPTY_SB,
               abstract: bool = False, rmw_critical: bool = False) -> bool:
    """No conflicting pair between the two orders; bottom conflicts with all.

    Under the newest-store abstraction a pair (a,b) additionally forbids
    (c,a) in the other order for any c sequenced after b, since the ordering
    through forgotten intermediate stores is implied.

    Events of a kind that every execution orders totally (lock/unlock always;
    rmw when rmw_critical) conflict when both sides claim the first slot of
    the modification order: such an event with no predecessor on either side
    took its value from the initial state, and two of them cannot both be
    first.  Unordered pairs where some predecessor is known stay combinable,
    since a total order extending both sides exists.
    """
    if p1.bottom or p2.bottom:
        return False
    for pa, pb in ((p1, p2), (p2, p1)):
        if abstract:
            preds: dict = {}  # a -> the c with (c, a) in pb
            for c, a in pb.pairs:
                preds.setdefault(a, []).append(c)
            for a, b in pa.pairs:
                if any(sb.sb(b.key, c.key) for c in preds.get(a, ())):
                    return False
        elif any((b, a) in pb.pairs for a, b in pa.pairs):
            return False

    kinds = _critical_kinds(rmw_critical)
    c1 = [e for e in p1.events if e.kind in kinds]
    c2 = [e for e in p2.events if e.kind in kinds]
    if not (c1 and c2):
        return True
    ordered = {b for _, b in p1.pairs} | {b for _, b in p2.pairs}
    c1 = [e for e in c1 if e not in ordered]
    c2 = [e for e in c2 if e not in ordered]
    return all(u1 == u2 for u1 in c1 for u2 in c2)


def valid_extension(p: MoPoset, st: Event, sb: SbIndex = EMPTY_SB,
                    abstract: bool = False) -> bool:
    """st may be appended: nothing is ordered after it (and, abstractly,
    nothing sequenced after it is already present; sb is reflexive, so a
    re-append of a present event is rejected)."""
    if p.bottom:
        return False
    if any(a == st for a, _ in p.pairs):
        return False
    if abstract and any(sb.sb(st.key, b.key) for b in p.events):
        return False
    return True


def _forgettable(a: Event, rmw_critical: bool) -> bool:
    if a.kind in ("lock", "unlock"):
        return False
    if rmw_critical and a.kind == "rmw":
        return False
    return True


def append(p: MoPoset, st: Event, sb: SbIndex = EMPTY_SB,
           abstract: bool = False, rmw_critical: bool = False) -> MoPoset:
    """Append st as the new maximum; bottom when st is not a valid extension
    or is already present (the implied self-edge breaks acyclicity).

    Abstract mode forgets events strictly sequenced before st, except rmw
    events in rmw-critical mode and lock/unlock events, whose history the
    lock discipline checks need.  For each critical event (of a kind that
    `consistent` orders totally) that the forgetting would leave with no
    predecessor, it keeps the mo-latest of the forgotten ones: `consistent`
    reads a critical event with no predecessor as first in modification
    order, which one that had a predecessor, such as the store an rmw
    read, is not.
    """
    if st in p.events or not valid_extension(p, st, sb, abstract):
        return BOTTOM
    events = set(p.events)
    pairs = set(p.pairs)
    pairs.update((a, st) for a in events)
    events.add(st)
    if abstract:
        drop = {a for a in events
                if a != st and sb.strict(a.key, st.key) and _forgettable(a, rmw_critical)}
        if drop:
            kinds = _critical_kinds(rmw_critical)
            for e in events - drop:
                if e.kind in kinds:
                    preds = {a for a, b in pairs if b == e}
                    if preds and preds <= drop:
                        drop -= {a for a in preds
                                 if not any((a, b) in pairs for b in preds)}
            events -= drop
            pairs = {(a, b) for a, b in pairs if a not in drop and b not in drop}
    return MoPoset(False, frozenset(events), frozenset(pairs))


def meet(p1: MoPoset, p2: MoPoset, sb: SbIndex = EMPTY_SB,
         abstract: bool = False, rmw_critical: bool = False) -> MoPoset:
    """Greatest lower bound: union of events and orderings when consistent.

    The pairwise consistency check misses alternating cycles longer than
    two, so the closed union is additionally audited for cycles; no partial
    order extends both sides in that case, hence bottom is the exact glb.
    """
    if not consistent(p1, p2, sb, abstract, rmw_critical):
        return BOTTOM
    # both orders are stored closed, so when one contains the other the
    # union is already closed
    if p1.pairs <= p2.pairs:
        closed = p2.pairs
    elif p2.pairs <= p1.pairs:
        closed = p1.pairs
    else:
        closed = _closure(p1.pairs | p2.pairs)
    if any(a == b for a, b in closed):
        return BOTTOM
    return MoPoset(False, p1.events | p2.events, closed)


def join(p1: MoPoset, p2: MoPoset) -> MoPoset:
    """Least upper bound: common events with common orderings."""
    if p1.bottom:
        return p2
    if p2.bottom:
        return p1
    return MoPoset(False, p1.events & p2.events, p1.pairs & p2.pairs)


def widen(p1: MoPoset, p2: MoPoset) -> MoPoset:
    """Keep only the earliest common instance per instruction label."""
    if p1.bottom:
        return p2
    if p2.bottom:
        return p1
    common = p1.events & p2.events
    earliest: dict = {}
    for e in sorted(common):
        cur = earliest.get(e.label)
        if cur is None or e.instance < cur.instance:
            earliest[e.label] = e
    kept = frozenset(earliest.values())
    pairs = frozenset((a, b) for a, b in p1.pairs & p2.pairs
                      if a in kept and b in kept)
    return MoPoset(False, kept, pairs)


BOTTOM_ID = 0
TOP_ID = 1


def _critical(p: MoPoset):
    """The critical events of one poset (lock/unlock/rmw), with, when it has
    any, their order pairs and the critical events that have a predecessor
    (of any kind), since `consistent` reads one without as first."""
    events = frozenset(e for e in p.events if e.kind in ("lock", "unlock", "rmw"))
    if not events:
        return events
    return (events, frozenset(ab for ab in p.pairs if ab[0] in events and ab[1] in events),
            frozenset(b for _, b in p.pairs if b in events))


class PosetTable:
    """The posets of one analysis, hash-consed to small int ids, with
    memoized operators.

    `posets[i]` is the poset with id i.  `BOTTOM` is `BOTTOM_ID`, 0, so an
    id is false exactly when it names bottom, and `TOP` is `TOP_ID`, 1.
    Equal posets get one id, so ids are equal exactly when their posets
    are, and states hold ids.  `append`, `meet` and `join` take and return
    ids: they run the module functions above once per distinct operands,
    with the table's sb index and flags, and answer repeats from dicts on
    int keys.  `meets` is the meet memo itself, one row per id, made when
    first asked for: `meets[p1][p2]` is the id of the meet of `p1` and
    `p2`, so the interference kernel fetches a row once per batch and
    looks each meet up by the other id alone.  `meet` is commutative, so
    the memo stores each result in both rows, under both operand orders,
    and the module function runs once per unordered pair.

    When an id is made, the table also records, in lists indexed by id,
    `sort_keys[i]`, the poset's sorted events and sorted pairs, and
    `signatures[i]`, an int naming its critical events, the order among
    them and which of them have a predecessor: equal ints for equal
    critical histories.  `lasts` is computed once per id and `published`
    once per id and event.

    A table holds every poset it has seen, so it belongs to one analysis:
    its `AnalysisContext`, the layouts of its states and the state sets
    built with it hold it, and it goes when they do.
    """

    __slots__ = ("sb", "abstract", "rmw_critical", "posets", "sort_keys", "signatures",
                 "meets", "_ids", "_signature_ids", "_append", "_join", "_lasts",
                 "_published")

    def __init__(self, sb: SbIndex = EMPTY_SB, abstract: bool = False,
                 rmw_critical: bool = False):
        self.sb = sb
        self.abstract = abstract
        self.rmw_critical = rmw_critical
        self.posets: list = []
        self.sort_keys: list = []
        self.signatures: list = []
        self.meets: collections.defaultdict = collections.defaultdict(dict)
        self._ids: dict = {}
        self._signature_ids: dict = {}
        self._append: dict = {}
        self._join: dict = {}
        self._lasts: dict = {}
        self._published: dict = {}
        self.intern(BOTTOM)
        self.intern(TOP)

    def intern(self, p: MoPoset) -> int:
        """The id of p, made on first sight."""
        i = self._ids.get(p)
        if i is None:
            i = self._ids[p] = len(self.posets)
            self.posets.append(p)
            self.sort_keys.append((tuple(sorted(p.events)), tuple(sorted(p.pairs))))
            sig = self._signature_ids
            self.signatures.append(sig.setdefault(_critical(p), len(sig)))
        return i

    # Misses call the operators through the module's globals, so a wrapper
    # installed on the module attribute (as perfbench's tracer does) sees
    # exactly the calls that do work.

    def append(self, p: int, st: Event) -> int:
        key = (p, st)
        out = self._append.get(key)
        if out is None:
            out = self._append[key] = self.intern(
                append(self.posets[p], st, self.sb, self.abstract, self.rmw_critical))
        return out

    def meet(self, p1: int, p2: int) -> int:
        meets = self.meets
        row = meets[p1]
        out = row.get(p2)
        if out is None:
            posets = self.posets
            out = row[p2] = meets[p2][p1] = self.intern(
                meet(posets[p1], posets[p2], self.sb, self.abstract, self.rmw_critical))
        return out

    def join(self, p1: int, p2: int) -> int:
        key = (p1, p2)
        out = self._join.get(key)
        if out is None:
            out = self._join[key] = self.intern(join(self.posets[p1], self.posets[p2]))
        return out

    def lasts(self, p: int) -> FrozenSet[Event]:
        out = self._lasts.get(p)
        if out is None:
            out = self._lasts[p] = self.posets[p].lasts()
        return out

    def published(self, p: int, ev: Event) -> bool:
        """The poset holds ev or a loop-bumped instance of it: an event of
        ev's label and thread whose instance is not below ev's."""
        key = (p, ev)
        out = self._published.get(key)
        if out is None:
            out = self._published[key] = any(
                e.label == ev.label and e.thread == ev.thread and e.instance >= ev.instance
                for e in self.posets[p].events)
        return out


def beta_related(p1: MoPoset, p2: MoPoset, sb: SbIndex) -> bool:
    """Soundness relation: p2 abstracts p1 (bottom relates to everything)."""
    if p1.bottom:
        return True
    if p2.bottom:
        return False
    allowed = {a for a in p1.events
               if not any(b != a and sb.strict(a.key, b.key) for b in p1.events)}
    return p2.events <= allowed and p2.pairs <= p1.pairs


# --------------------------------------------------------------------------
# Sets of total modification orders and the Galois bridge
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class LosetSet:
    """A set of total orders (losets) over one shared event set."""

    bottom: bool
    events: FrozenSet[Event]
    losets: FrozenSet[Tuple[Event, ...]]

    def check(self):
        if self.bottom:
            assert not self.losets
            return
        for lo in self.losets:
            assert frozenset(lo) == self.events, "loset over a different event set"


LOSET_BOTTOM = LosetSet(True, frozenset(), frozenset())


def loset_set(losets: Iterable[Tuple[Event, ...]]) -> LosetSet:
    ls = frozenset(tuple(l) for l in losets)
    if not ls:
        return LOSET_BOTTOM
    events = frozenset(next(iter(ls)))
    out = LosetSet(False, events, ls)
    out.check()
    return out


def _loset_pairs(lo: Tuple[Event, ...]) -> FrozenSet[tuple]:
    return frozenset((lo[i], lo[j])
                     for i in range(len(lo)) for j in range(i + 1, len(lo)))


def alpha(t: LosetSet) -> MoPoset:
    """Best poset abstraction: shared events, intersection of all orders."""
    if t.bottom:
        return BOTTOM
    pair_sets = [_loset_pairs(lo) for lo in t.losets]
    common = frozenset.intersection(*pair_sets) if pair_sets else frozenset()
    return MoPoset(False, t.events, common)
