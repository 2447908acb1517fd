"""Program states (per-variable poset ids, memory of value ids) and the
instruction-wise merge that keeps per-label state sets in normal form:
two states at a label collapse when their poset maps agree (memories join)
or their memories agree (posets join variable-wise).

A state holds values only: its posets as the int ids of its analysis's
`PosetTable` and its memory as the int ids of its analysis's
`intervals.ValueTable`, both held by its layout.  Its label is where it is
stored: the key of its bucket in a `StateSet`, so one state object may sit
at several labels.

The normal form makes both the poset map and the memory a unique key within
a label's set, so buckets keep hash indexes on each.

A projected state, past its thread's boundary (`transfer.AnalysisContext`),
has dropped every poset and the memory slots no later check reads: each
holds None, and prints as `_`.  The projected states of a label are an exact
set of memories, which a merge never joins.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

from . import intervals, posets
from .litmus import Label
from .posets import MoPoset


class Layout:
    """The names behind the value tuples of one thread's states: the sorted
    poset keys (shared variables and mutexes) and the memory keys, the
    sorted shared variables (the keys of both kinds, since registers and
    mutexes never share a name) and then the sorted registers, with the
    index of every key, and the `PosetTable` and `ValueTable` whose ids the
    states hold.  An analysis builds the layout of its shared variables and
    mutexes once, over its one pair of tables, and each thread's from it
    (`with_registers`), so a shared variable has one memory slot and one
    poset slot in all of them; its states point to it and hold values only.

    A projected layout (`projected`) has the same slots, and `live`, the
    sorted memory slots its states keep; `live` is None for a full one."""

    __slots__ = ("mo_keys", "mem_keys", "mo_slot", "mem_slot", "table", "values",
                 "live", "dropped_mo")

    def __init__(self, mo_keys, mem_keys, table: posets.PosetTable,
                 values: intervals.ValueTable):
        self.mo_keys = tuple(sorted(mo_keys))
        self.mo_slot = {k: i for i, k in enumerate(self.mo_keys)}
        self.mem_keys = (*sorted(k for k in mem_keys if k in self.mo_slot),
                         *sorted(k for k in mem_keys if k not in self.mo_slot))
        self.mem_slot = {k: i for i, k in enumerate(self.mem_keys)}
        self.table = table
        self.values = values
        self.live = None
        self.dropped_mo = (None,) * len(self.mo_keys)

    def _copy(self) -> "Layout":
        out = Layout.__new__(Layout)
        (out.mo_keys, out.mem_keys, out.mo_slot, out.mem_slot, out.table, out.values,
         out.live, out.dropped_mo) = (self.mo_keys, self.mem_keys, self.mo_slot, self.mem_slot,
                                      self.table, self.values, self.live, self.dropped_mo)
        return out

    def with_registers(self, regs) -> "Layout":
        """This layout, its poset keys and slots themselves, and after its
        memory keys the register keys `regs`, which must come sorted and
        none of them a key of this layout, as `__init__` would make them."""
        out = self._copy()
        out.mem_keys = (*self.mem_keys, *regs)
        out.mem_slot = dict(zip(out.mem_keys, range(len(out.mem_keys))))
        return out

    def projected(self, live) -> "Layout":
        """This layout for states that keep only the memory slots `live`
        and no poset."""
        out = self._copy()
        out.live = tuple(sorted(live))
        return out

    def project(self, mem: tuple) -> "AbstractState":
        """The projected state of this projected layout with the live slots
        of `mem`, a memory of the full layout."""
        out = [None] * len(mem)
        for i in self.live:
            out[i] = mem[i]
        return AbstractState(self.dropped_mo, tuple(out), self)


class AbstractState:
    """One poset id of the layout's table per poset key and one value id of
    its value table per memory key.  The states of one label share their
    thread's layout, so `==` and `hash` read `mo` and `mem` only."""

    __slots__ = ("mo", "mem", "layout")

    def __init__(self, mo: Tuple[int, ...], mem: Tuple[int, ...], layout: Layout):
        self.mo = mo
        self.mem = mem
        self.layout = layout

    def __eq__(self, other) -> bool:
        if other.__class__ is not AbstractState:
            return NotImplemented
        return self.mo == other.mo and self.mem == other.mem

    def __hash__(self) -> int:
        return hash((self.mo, self.mem))

    def __repr__(self) -> str:
        return f"AbstractState({self.fmt()})"

    @staticmethod
    def make(mo: Dict[str, MoPoset], mem: Dict[str, intervals.Interval],
             layout: Layout) -> "AbstractState":
        """The state with the given maps, whose keys are the layout's; the
        posets and intervals are interned in the layout's tables."""
        return AbstractState(tuple([layout.table.intern(mo[k]) for k in layout.mo_keys]),
                             tuple([layout.values.intern(mem[k]) for k in layout.mem_keys]),
                             layout)

    def slot_update(self, mo: tuple = (), mem: tuple = ()) -> "AbstractState":
        """This state with the values at the given slots replaced:
        `mo` and `mem` hold (slot, value) pairs, a slot being an index into
        the value tuple and a value an id of the layout's tables."""
        new_mo = self.mo
        if mo:
            new_mo = list(new_mo)
            for i, value in mo:
                new_mo[i] = value
            new_mo = tuple(new_mo)
        new_mem = self.mem
        if mem:
            new_mem = list(new_mem)
            for i, value in mem:
                new_mem[i] = value
            new_mem = tuple(new_mem)
        return AbstractState(new_mo, new_mem, self.layout)

    def mo_map(self) -> Dict[str, MoPoset]:
        return dict(zip(self.layout.mo_keys, map(self.layout.table.posets.__getitem__, self.mo)))

    def po(self, var: str) -> MoPoset:
        layout = self.layout
        return layout.table.posets[self.mo[layout.mo_slot[var]]]

    def val(self, key: str) -> intervals.Interval:
        layout = self.layout
        return layout.values.values[self.mem[layout.mem_slot[key]]]

    def sort_key(self) -> tuple:
        """Orders the states of one label's bucket.  They differ in their
        poset maps, the bucket's unique key, so the sorted events and pairs
        of each poset decide the order alone; the table sorts each poset
        once, when it gives it an id.  Projected states differ in their
        live values, whose bounds order them."""
        layout = self.layout
        if layout.live is not None:
            keys = layout.values.sort_keys
            return tuple([keys[v] for v in self.mem if v is not None])
        return tuple(map(layout.table.sort_keys.__getitem__, self.mo))

    def critical_signature(self) -> tuple:
        """Per poset, the table's int naming its lock/unlock/rmw events, the
        order among them and which of them have a predecessor; poset joins
        must not drop any of these, since consistency checks read them as
        authoritative history: an rmw with no predecessor is read as the
        first in modification order."""
        return tuple(map(self.layout.table.signatures.__getitem__, self.mo))

    def fmt(self) -> str:
        """The poset map and the memory, each in sorted key order."""
        layout = self.layout
        poset_of, values = layout.table.posets, layout.values.values
        pos = " ".join(f"{v}:{'_' if p is None else poset_of[p]}"
                       for v, p in zip(layout.mo_keys, self.mo))
        vals = " ".join(f"{k}:{'_' if v is None else values[v]}"
                        for k, v in sorted(zip(layout.mem_keys, self.mem)))
        return f"{pos} | {vals}"


def _mo_join(table: posets.PosetTable, a: Tuple, b: Tuple) -> Tuple:
    return tuple([x if x == y else table.join(x, y) for x, y in zip(a, b)])


class StateBucket:
    """Normal-form state set for one label, indexed by poset map and memory.

    The memory-equality rule joins posets, which intersects away events and
    order pairs; it is therefore restricted to states that agree on their
    critical events (lock/unlock/rmw) per variable, on the order among them
    and on which of them have a predecessor, which later consistency checks
    rely on.  The poset-map index stays a unique key; the memory index maps
    to the states sharing that memory with differing critical signatures.
    A bucket of projected states keys the first index by memory, and leaves
    the second empty.
    """

    __slots__ = ("_table", "_by_mo", "_by_mem", "_sorted", "_frozen")

    def __init__(self, table: posets.PosetTable):
        self._table = table
        self._by_mo: dict = {}
        self._by_mem: dict = {}
        # the `states()` tuple and the frozenset of the states, which
        # fingerprints hold, once computed; None after every change, so an
        # unchanged bucket gives the identical objects on every later call
        self._sorted = None
        self._frozen = None

    def merge(self, s: AbstractState) -> None:
        """Join s into the bucket.  When the join gives back a state the
        bucket holds, the bucket is left as it is, its cached `states()`
        tuple and frozenset included: re-inserting that state would rebuild
        the same content, since no two states share a poset map or a memory
        and critical signature.  A projected state is added as it is, unless
        the bucket holds it: its posets are dropped, and a hull of its live
        values would lose the proofs that rest on their correlation."""
        cur = s
        if cur.layout.live is not None:
            if cur.mem not in self._by_mo:
                self._by_mo[cur.mem] = cur
                self._sorted = None
                self._frozen = None
            return
        while True:
            other = self._by_mo.get(cur.mo)
            if other is not None:
                if cur.mem == other.mem:
                    return
                mem = cur.layout.values.mem_join(other.mem, cur.mem)
                if mem == other.mem:
                    return
                self._remove(other)
                cur = AbstractState(cur.mo, mem, cur.layout)
                continue
            other = None
            group = self._by_mem.get(cur.mem)
            if group:
                sig = cur.critical_signature()
                for cand in group:
                    if cand.critical_signature() == sig:
                        other = cand
                        break
            if other is not None:
                mo = _mo_join(self._table, other.mo, cur.mo)
                if mo == other.mo:
                    return
                self._remove(other)
                cur = AbstractState(mo, cur.mem, cur.layout)
                continue
            self._by_mo[cur.mo] = cur
            self._by_mem.setdefault(cur.mem, []).append(cur)
            self._sorted = None
            self._frozen = None
            return

    def _remove(self, s: AbstractState) -> None:
        del self._by_mo[s.mo]
        group = self._by_mem[s.mem]
        group.remove(s)
        if not group:
            del self._by_mem[s.mem]
        self._sorted = None
        self._frozen = None

    def states(self) -> tuple:
        if self._sorted is None:
            self._sorted = tuple(sorted(self._by_mo.values(), key=AbstractState.sort_key))
        return self._sorted

    def frozen(self) -> frozenset:
        """The bucket's states as a frozenset, which caches its hash."""
        if self._frozen is None:
            self._frozen = frozenset(self._by_mo.values())
        return self._frozen

    def __len__(self) -> int:
        return len(self._by_mo)

    def copy(self) -> "StateBucket":
        out = StateBucket(self._table)
        out._by_mo = dict(self._by_mo)
        out._by_mem = {k: list(v) for k, v in self._by_mem.items()}
        out._sorted = self._sorted
        out._frozen = self._frozen
        return out


class StateSet:
    """Map from label to its normal-form set of states, one bucket per
    label.  The buckets join and order posets through `table`, the table
    of the analysis whose states they hold: the ids of another table name
    other posets."""

    def __init__(self, table: posets.PosetTable):
        self.table = table
        self._by_label: Dict[Label, StateBucket] = {}

    def _bucket(self, label: Label) -> StateBucket:
        bucket = self._by_label.get(label)
        if bucket is None:
            bucket = self._by_label[label] = StateBucket(self.table)
        return bucket

    def merge_all(self, label: Label, states: Sequence[AbstractState]) -> None:
        """Merge the states, all of one analysis, into the label's bucket.
        Raises ValueError when the first holds the ids of another table."""
        if states and states[0].layout.table is not self.table:
            raise ValueError("the states hold poset ids of another analysis's table")
        bucket = self._bucket(label)
        for s in states:
            bucket.merge(s)

    def at(self, label: Label) -> tuple:
        bucket = self._by_label.get(label)
        return bucket.states() if bucket is not None else ()

    def labels(self) -> tuple:
        return tuple(sorted(l for l, b in self._by_label.items() if len(b)))

    def copy(self) -> "StateSet":
        out = StateSet(self.table)
        out._by_label = {k: v.copy() for k, v in self._by_label.items()}
        return out

    def total_states(self) -> int:
        return sum(len(v) for v in self._by_label.values())

    def counts(self) -> Dict[str, int]:
        """The size of each non-empty bucket, by label name in label order."""
        by_label = self._by_label
        return {str(lbl): n for lbl in sorted(by_label) if (n := len(by_label[lbl]))}

    def fingerprint(self) -> frozenset:
        """The set's (label, frozenset of states) pairs over its non-empty
        buckets.  One state may sit at several labels, so each bucket is
        paired with its label: two sets have equal fingerprints exactly when
        they hold the same states at every label, which is when their dumps
        are equal.  A bucket that no merge changed keeps its frozenset, and
        the hash cached in it, across rounds and copies, so only changed
        buckets are hashed again."""
        return frozenset([(lbl, b.frozen()) for lbl, b in self._by_label.items() if len(b)])

    def dump(self) -> str:
        lines = []
        for lbl in self.labels():
            for s in self.at(lbl):
                lines.append(f"{lbl} | {s.fmt()}")
        return "\n".join(lines)
