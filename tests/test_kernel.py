"""The compact state kernel: tuple value types, slot updates, the
fingerprint revisit check, the per-label sequenced-before index and the
validator that builds no CFG."""

import random
import types
from dataclasses import dataclass, replace
from typing import Optional

import pytest
from hypothesis import given, strategies as st

from ramosaic import engine, interference, oracle, posets
from ramosaic.engine import tmai
from ramosaic.intervals import EMPTY, TOP, Interval, singleton, val_join
from ramosaic.litmus import Label, build_cfg, parse, unroll
from ramosaic.oracle import check_soundness, enumerate_executions, validate_execution
from ramosaic.posets import TOP_ID, Event, SbIndex, TooLarge
from ramosaic.randprog import random_program
from ramosaic.states import AbstractState, Layout, StateSet
from ramosaic.transfer import AnalysisContext, TransferConfig

from conftest import LOOPED_SOURCES, corpus_files, full_tails, sb_after

LOOPED_SRC = LOOPED_SOURCES[0]


def _corpus_programs():
    return [(f.name, unroll(parse(f.read_text()), 2)) for f in corpus_files()]


# --------------------------------------------------------------------------
# Value types: tuples that order, print and test like the dataclasses did
# --------------------------------------------------------------------------

_names = st.sampled_from(["a", "a1", "b", "%ctx", "t.entry", "t.exit"])


@given(st.lists(st.tuples(_names, st.integers(1, 4)), max_size=12))
def test_labels_sort_as_their_field_tuples(fields):
    labels = [Label(*f) for f in fields]
    assert [(l.name, l.instance) for l in sorted(labels)] == sorted(fields)


@given(st.lists(st.tuples(_names, st.integers(1, 4), st.sampled_from(["t", "u"]),
                          st.sampled_from(["store", "rmw", "lock", "unlock"]),
                          st.sampled_from(["x", "y", "m"])), max_size=12))
def test_events_sort_as_their_field_tuples(fields):
    events = [Event(*f) for f in fields]
    assert [(e.label, e.instance, e.thread, e.kind, e.var)
            for e in sorted(events)] == sorted(fields)


@dataclass(frozen=True)
class _DataclassInterval:
    """The interval as a frozen dataclass, before it became a tuple."""

    lo: Optional[int]
    hi: Optional[int]

    @property
    def is_empty(self) -> bool:
        return self.lo is not None and self.hi is not None and self.lo > self.hi

    @property
    def is_top(self) -> bool:
        return self.lo is None and self.hi is None

    def is_singleton(self) -> bool:
        return self.lo is not None and self.lo == self.hi

    def __contains__(self, v: int) -> bool:
        if self.is_empty:
            return False
        return ((self.lo is None or self.lo <= v)
                and (self.hi is None or v <= self.hi))

    def __str__(self) -> str:
        if self.is_empty:
            return "⊥v"
        if self.is_top:
            return "⊤v"
        lo = "-inf" if self.lo is None else str(self.lo)
        hi = "+inf" if self.hi is None else str(self.hi)
        return f"[{lo},{hi}]"


def _hull(a: Interval, b: Interval) -> Interval:
    """The join as it was computed before: bounds as floats, then back."""
    inf = float("inf")
    if a.is_empty:
        return EMPTY if b.is_empty else b
    if b.is_empty:
        return a
    lo = min(-inf if a.lo is None else a.lo, -inf if b.lo is None else b.lo)
    hi = max(inf if a.hi is None else a.hi, inf if b.hi is None else b.hi)
    return Interval(None if lo == -inf else int(lo), None if hi == inf else int(hi))


_bounds = st.one_of(st.none(), st.integers(-6, 6))


@given(_bounds, _bounds, st.integers(-8, 8))
def test_interval_behaves_as_the_dataclass_did(lo, hi, v):
    new, old = Interval(lo, hi), _DataclassInterval(lo, hi)
    assert str(new) == str(old)
    assert new.is_empty == old.is_empty
    assert new.is_top == old.is_top
    assert new.is_singleton() == old.is_singleton()
    assert (v in new) == (v in old)


@given(_bounds, _bounds, _bounds, _bounds)
def test_join_is_the_hull_and_empty_is_its_unit(lo1, hi1, lo2, hi2):
    a, b = Interval(lo1, hi1), Interval(lo2, hi2)
    assert val_join(a, b) == _hull(a, b)
    norm = EMPTY if a.is_empty else a
    assert val_join(EMPTY, a) == norm
    assert val_join(a, EMPTY) == norm
    assert val_join(Interval(3, 1), a) == norm


# --------------------------------------------------------------------------
# Fingerprints and slot updates
# --------------------------------------------------------------------------

def test_fingerprints_are_equal_exactly_when_dumps_are(monkeypatch):
    """A copy of the state set at every round's end of tmai on
    random_program(0..59), plus each fixpoint: two of them share a
    fingerprint iff their dumps are equal."""
    snapshots = []
    fingerprint = StateSet.fingerprint

    def recording_fingerprint(self):
        snapshots.append(self.copy())
        return fingerprint(self)

    with monkeypatch.context() as patched:
        patched.setattr(StateSet, "fingerprint", recording_fingerprint)
        for seed in range(60):
            snapshots.append(tmai(random_program(seed)).states)
    by_dump: dict = {}
    by_fingerprint: dict = {}
    for i, s in enumerate(snapshots):
        by_dump.setdefault(s.dump(), []).append(i)
        by_fingerprint.setdefault(s.fingerprint(), []).append(i)
    assert len(by_dump) < len(snapshots)  # some snapshots repeat
    assert sorted(by_dump.values()) == sorted(by_fingerprint.values())


def test_slot_update_equals_make_from_updated_maps():
    rng = random.Random(5)
    values = [EMPTY, TOP, singleton(0), Interval(-1, 4), Interval(None, 2)]
    checked = 0
    for seed in range(60):
        ss = full_tails(random_program(seed)).states
        states = [s for lbl in ss.labels() for s in ss.at(lbl)]
        for s in states:
            donor = rng.choice(states)  # same poset keys in every state
            mo_up = tuple((i, donor.mo[i])
                          for i in rng.sample(range(len(s.mo)), rng.randint(0, len(s.mo))))
            mem_up = tuple((i, rng.choice(values))
                           for i in rng.sample(range(len(s.mem)), rng.randint(0, min(2, len(s.mem)))))
            mo, mem = s.mo_map(), {k: s.val(k) for k in s.layout.mem_keys}
            for i, p in mo_up:
                mo[s.layout.mo_keys[i]] = s.layout.table.posets[p]
            for i, iv in mem_up:
                mem[s.layout.mem_keys[i]] = iv
            ids_up = tuple((i, s.layout.values.intern(iv)) for i, iv in mem_up)
            updated = s.slot_update(mo=mo_up, mem=ids_up)
            assert updated == AbstractState.make(mo, mem, s.layout)
            assert updated.layout is s.layout
            checked += 1
    assert checked > 1500


def test_context_slots_name_the_layouts_keys():
    """Every layout of an analysis holds the sorted shared variables first
    in its memory, then the thread's sorted registers, so the context's one
    `shared_slots` tuple gives each shared variable's memory slot and poset
    slot, by name, in the layout of every thread."""
    programs = [random_program(seed) for seed in range(20)]
    programs.append(parse(LOOPED_SRC))
    for p in programs:
        ctx = AnalysisContext(p, build_cfg(p), TransferConfig())
        shared = sorted(p.shared_names())
        for t in p.threads:
            layout = ctx.layouts[t.name]
            s = ctx.initial_states[t.name]
            assert s.layout is layout
            assert list(s.mo_map()) == sorted((*p.shared_names(), *p.mutexes))
            assert list(layout.mem_keys) == [*shared, *sorted(ctx.registers[t.name])]
            # the entry state: every poset top, the shared variables at their
            # initial values and the registers 0
            assert set(s.mo) == {TOP_ID}
            assert [s.val(k) for k in layout.mem_keys] == [
                singleton(dict(p.shared).get(k, 0)) for k in layout.mem_keys]
            assert len(s.mem) == len(layout.mem_keys)
            assert {k: i for i, k in enumerate(s.mo_map())} == layout.mo_slot
            assert {k: i for i, k in enumerate(layout.mem_keys)} == layout.mem_slot
            # each identifier of the thread's expressions names its key's slot
            names = {**{v: v for v in p.shared_names()},
                     **{r: p.register_key(t.name, r) for r in p.thread_registers(t.name)}}
            assert {n: layout.mem_keys[i] for n, i in ctx.slots[t.name].items()} == names
            assert ctx.shared_slots == tuple((layout.mem_slot[v], layout.mo_slot[v])
                                             for v in shared)


def test_threads_share_the_analysis_layout_prefix():
    """An analysis builds the poset keys, the poset slots and the shared
    variables' memory slots once: every thread's layout holds the one
    `mo_keys` tuple and `mo_slot` dict and the same shared prefix of
    `mem_keys`, and its slots, its entry state and the projected layout of
    its boundary equal those of a layout built from scratch, on the
    corpus and on `random_program(0..199)`."""
    programs = [p for _, p in _corpus_programs()] + [random_program(s) for s in range(200)]
    for p in programs:
        ctx = AnalysisContext(p, build_cfg(p), TransferConfig())
        shared = p.shared_names()
        layouts = [ctx.layouts[t.name] for t in p.threads]
        first = layouts[0]
        for t, layout in zip(p.threads, layouts):
            assert layout.mo_keys is first.mo_keys and layout.mo_slot is first.mo_slot
            assert layout.mem_keys[:len(shared)] == tuple(sorted(shared))
            regs = ctx.registers[t.name]
            fresh = Layout((*shared, *p.mutexes), (*shared, *regs), ctx.posets, ctx.values)
            assert (layout.mo_keys, layout.mo_slot, layout.mem_keys, layout.mem_slot) == \
                (fresh.mo_keys, fresh.mo_slot, fresh.mem_keys, fresh.mem_slot)
            assert ctx.slots[t.name] == dict(zip(
                (*shared, *p.thread_registers(t.name)),
                map(fresh.mem_slot.__getitem__, (*shared, *regs))))
            init = {k: singleton(0) for k in fresh.mem_keys}
            init.update((k, singleton(v)) for k, v in p.shared)
            assert ctx.initial_states[t.name] == AbstractState.make(
                dict.fromkeys(fresh.mo_keys, posets.TOP), init, fresh)
        for lbl, projected in ctx.boundaries.items():
            full = ctx.layouts[ctx.cfg.thread_of[lbl]]
            fresh = Layout(full.mo_keys, full.mem_keys, ctx.posets, ctx.values)
            fresh = fresh.projected(projected.live)
            assert (projected.mo_keys, projected.mem_keys, projected.mo_slot, projected.mem_slot,
                    projected.live, projected.dropped_mo) == \
                (fresh.mo_keys, fresh.mem_keys, fresh.mo_slot, fresh.mem_slot, fresh.live,
                 fresh.dropped_mo)
            assert projected.mo_keys is full.mo_keys and projected.mem_slot is full.mem_slot


# --------------------------------------------------------------------------
# No container mixes Labels with plain (name, instance) tuples
# --------------------------------------------------------------------------

def _name_instance(k) -> bool:
    return (type(k) is tuple and len(k) == 2
            and isinstance(k[0], str) and isinstance(k[1], int))


def _mixed_containers(roots) -> list:
    """The dicts and sets reachable from roots whose keys include both a
    Label and a plain (name, instance) tuple."""
    atoms = (str, int, float, bool, type(None), type, types.FunctionType,
             types.BuiltinFunctionType, types.MethodType, types.ModuleType)
    seen: set = set()
    stack = list(roots)
    mixed = []
    while stack:
        obj = stack.pop()
        if isinstance(obj, atoms) or id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, dict):
            keys = list(obj)
            stack.extend(keys)
            stack.extend(obj.values())
        elif isinstance(obj, (set, frozenset)):
            keys = list(obj)
            stack.extend(keys)
        else:
            keys = ()
            if isinstance(obj, (tuple, list)):
                stack.extend(obj)
            if hasattr(obj, "__dict__"):
                stack.append(vars(obj))
            for slot in getattr(type(obj), "__slots__", ()):
                if hasattr(obj, slot):
                    stack.append(getattr(obj, slot))
        if (any(type(k) is Label for k in keys)
                and any(_name_instance(k) for k in keys)):
            mixed.append(obj)
    return mixed


def test_no_container_mixes_labels_and_plain_tuples(monkeypatch):
    """Label is a NamedTuple, so Label("a", 1) == ("a", 1) and both hash
    alike.  A dict or set that held both kinds would merge keys that
    were meant to differ, so every container the analysis and the oracle
    keep holds one kind only: labels, or the sb index's plain event keys."""
    contexts = []
    evaluate = engine._evaluate

    def recording_evaluate(ctx, ss):
        contexts.append(ctx)
        return evaluate(ctx, ss)

    monkeypatch.setattr(engine, "_evaluate", recording_evaluate)
    programs = [p for name, p in _corpus_programs() if name != "peterson3.lit"]
    programs += [random_program(seed) for seed in range(20)]
    programs.append(parse(LOOPED_SRC))
    for p in programs:
        contexts.clear()
        result = tmai(p)
        cfg = result.cfg
        roots = [contexts[0], result, interference.get_interfs(p, cfg)]
        if not cfg.loop_headers:
            try:
                roots.append(enumerate_executions(p))
                roots.append(oracle._Tables(p, cfg))
            except TooLarge:
                pass
        assert _mixed_containers(roots) == []


# --------------------------------------------------------------------------
# The sequenced-before index keeps one frozenset per label
# --------------------------------------------------------------------------

def test_sb_index_answers_as_the_pair_set():
    programs = [p for _, p in _corpus_programs()]
    programs += [random_program(seed) for seed in range(60)]
    programs.append(parse(LOOPED_SRC))
    for p in programs:
        cfg = build_cfg(p)
        pairs = {(a, b) for a, after in sb_after(cfg).items() for b in after}
        keys = [(lbl.name, lbl.instance) for lbl in cfg.nodes]
        for index in (SbIndex.from_cfg(cfg), SbIndex(pairs)):
            for a in keys:
                for b in keys:
                    assert index.strict(a, b) == ((a, b) in pairs)
                    assert index.sb(a, b) == (a == b or (a, b) in pairs)


# --------------------------------------------------------------------------
# The oracle's validator and soundness check build no CFG
# --------------------------------------------------------------------------

def test_validation_and_soundness_reuse_the_analysis_cfg(monkeypatch):
    p = random_program(7)
    execs = enumerate_executions(p)
    assert len(execs) >= 25
    result = tmai(p)
    calls = []
    real = oracle.build_cfg

    def counting_build_cfg(program):
        calls.append(program)
        return real(program)

    monkeypatch.setattr(oracle, "build_cfg", counting_build_cfg)
    for e in execs[:25]:
        validate_execution(p, e)
    assert check_soundness(p, result, execs=execs).ok
    assert calls == []

    class Bare:  # a result without its cfg and sb index
        states = result.states
        verdicts = result.verdicts
        boundaries = result.boundaries

    assert check_soundness(p, Bare(), execs=execs).ok
    assert len(calls) == 1


def test_validator_orders_statements_across_branches():
    """Program order passes through the branch's synthetic assume node,
    which the validator leaves out; the order is still enforced."""
    p = parse("vars x = 0;\nthread t { a: store x 1; if (1 == 1) { b: store x 2; } }")
    execs = [e for e in enumerate_executions(p) if len(e.mo_map().get("x", ())) == 2]
    assert len(execs) == 1
    e = execs[0]
    validate_execution(p, e)
    ((var, order),) = e.mo
    with pytest.raises(AssertionError, match="contradicts happens-before"):
        validate_execution(p, replace(e, mo=((var, order[::-1]),)))


def test_validator_accepts_the_corpus_executions():
    for name, p in _corpus_programs():
        try:
            execs = enumerate_executions(p)
        except TooLarge:
            continue
        for e in execs[:50]:
            validate_execution(p, e)
