import itertools
import random

import pytest
from hypothesis import given, strategies as st

from ramosaic import posets as P
from ramosaic.engine import analyze_with_combinations, tmai
from ramosaic.intervals import Interval, ValueTable, singleton, val_join
from ramosaic.litmus import Label, parse, unroll
from ramosaic.oracle import check_soundness
from ramosaic.posets import Event, poset
from ramosaic.randprog import random_program
from ramosaic.states import AbstractState, Layout, StateBucket, StateSet, _mo_join
from ramosaic.transfer import AnalysisContext

from conftest import LOOPED_SOURCES, MP_SRC, corpus_files

A = Event("a", 1, "t1", "store", "x")
B = Event("b", 1, "t2", "store", "x")
L = Label("l")

# The hand-built states below all hold ids of these two tables.
TABLE = P.PosetTable()
VALUES = ValueTable()
LAYOUT = Layout(("x",), ("x", "t.r"), TABLE, VALUES)


def merge_state_list(states: list, s: AbstractState) -> None:
    """List-based variant of the merge, for small collections."""
    bucket = StateBucket(TABLE)
    for e in states:
        bucket.merge(e)
    bucket.merge(s)
    states[:] = bucket.states()


def state(mo_x, x, r):
    return AbstractState.make({"x": mo_x}, {"x": x, "t.r": r}, LAYOUT)


def test_insert_into_empty():
    ss = StateSet(TABLE)
    s = state(P.TOP, singleton(0), singleton(0))
    ss.merge_all(L, [s])
    assert ss.at(L) == (s,)


def test_same_mo_joins_memory():
    ss = StateSet(TABLE)
    ss.merge_all(L, [state(poset({A}), singleton(1), singleton(0))])
    ss.merge_all(L, [state(poset({A}), singleton(2), singleton(0))])
    (merged,) = ss.at(L)
    assert merged.val("x") == Interval(1, 2)
    assert merged.po("x") == poset({A})


def test_same_memory_joins_posets():
    ss = StateSet(TABLE)
    ss.merge_all(L, [state(poset({A}), singleton(1), singleton(0))])
    ss.merge_all(L, [state(poset({B}), singleton(1), singleton(0))])
    (merged,) = ss.at(L)
    assert merged.po("x") == P.TOP  # intersection of disjoint event sets


def test_memory_rule_guarded_by_critical_events():
    """States whose posets disagree on lock/rmw events stay separate, since
    joining would erase history the consistency checks rely on."""
    u = Event("u", 1, "t1", "rmw", "x")
    ss = StateSet(TABLE)
    ss.merge_all(L, [state(poset({u}), singleton(1), singleton(0))])
    ss.merge_all(L, [state(poset({B}), singleton(1), singleton(0))])
    assert len(ss.at(L)) == 2


def test_memory_rule_guarded_by_critical_order():
    """States with the same rmw events in opposite orders stay separate: the
    join would drop both orders, and an rmw left with no predecessor reads
    as the first in modification order."""
    u = Event("u", 1, "t1", "rmw", "x")
    w = Event("w", 1, "t2", "rmw", "x")
    ss = StateSet(TABLE)
    ss.merge_all(L, [state(poset({u, w}, {(u, w)}), singleton(2), singleton(0))])
    ss.merge_all(L, [state(poset({u, w}, {(w, u)}), singleton(2), singleton(0))])
    assert len(ss.at(L)) == 2


def test_rmw_order_survives_the_merge():
    """b, a, d, c is an execution: r1 = 0 and r2 = 3.  When the states at d
    that order the rmws b<a<d and a<b<d were joined, the join dropped b<a,
    the meet with t1's {b} state came out bottom, and `final` was proved."""
    program = parse("""
vars x = 0;
thread t0 { a: r0 = fadd x 1; }
thread t1 { b: r1 = fadd x 1; c: r2 = load x; }
thread t2 { d: r3 = fadd x 1; }
assert (r1 != 0 || r2 != 3);
""")
    result = tmai(program)
    assert str(result.verdicts["final"]) == "PossiblyViolated"
    check_soundness(program, result).raise_if_unsound()


@pytest.fixture(scope="module")
def fixpoint_runs():
    """(result, analysis context) of `tmai` over the corpus, `random_program(0..199)`
    and the looped test programs, and of `analyze_with_combinations` over the
    first two."""
    contexts = []
    init = AnalysisContext.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        contexts.append(self)

    programs = [unroll(parse(f.read_text()), 2) for f in corpus_files()]
    programs += [random_program(seed) for seed in range(200)]
    looped = [parse(src) for src in LOOPED_SOURCES]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(AnalysisContext, "__init__", recording_init)
        runs = [(tmai(p, max_iterations=100), contexts.pop()) for p in programs + looped]
        runs += [(analyze_with_combinations(p), contexts.pop()) for p in programs]
    return runs


def test_no_fixpoint_state_has_a_bottom_poset(fixpoint_runs):
    """The merge keeps every state it is given, so no transfer may emit a
    state whose poset for some variable or mutex is bottom."""
    for r, _ in fixpoint_runs:
        for lbl in r.states.labels():
            for s in r.states.at(lbl):
                assert P.BOTTOM_ID not in s.mo, s.fmt()
                assert not any(po.bottom for po in s.mo_map().values()), s.fmt()


def test_fixpoint_states_carry_their_threads_layout(fixpoint_runs):
    """Every state points to the one layout its analysis built for the
    label's thread, which holds the analysis's poset and value tables, the
    names that `po`, `val` and `fmt` give its slots are the sorted keys,
    `po` and `val` read the poset and the interval of each id off the
    tables, and `dump` puts the label in front."""
    for r, ctx in fixpoint_runs:
        assert len(set(map(id, ctx.layouts.values()))) == len(ctx.program.threads)
        mo_keys = sorted((*ctx.program.shared_names(), *ctx.program.mutexes))
        lines = []
        for lbl in r.states.labels():
            tname = r.cfg.thread_of[lbl]
            layout = ctx.layouts[tname]
            mem_keys = sorted((*ctx.program.shared_names(), *ctx.registers[tname]))
            for s in r.states.at(lbl):
                assert s.layout is layout and layout.table is ctx.posets
                assert layout.values is ctx.values
                assert [s.po(v) for v in mo_keys] == [ctx.posets.posets[p] for p in s.mo]
                assert [s.val(k) for k in mem_keys] == [ctx.values.values[v] for v in s.mem]
                pos = " ".join(f"{v}:{s.po(v)}" for v in mo_keys)
                vals = " ".join(f"{k}:{s.val(k)}" for k in mem_keys)
                assert s.fmt() == f"{pos} | {vals}"
                lines.append(f"{lbl} | {pos} | {vals}")
        assert r.states.dump() == "\n".join(lines)


def test_merge_idempotent():
    s1 = state(poset({A}), singleton(1), singleton(0))
    s2 = state(poset({B}), singleton(2), singleton(2))
    once = StateSet(TABLE)
    once.merge_all(L, [s1, s2])
    twice = StateSet(TABLE)
    twice.merge_all(L, [s1, s2, s1, s2])
    assert once.fingerprint() == twice.fingerprint()


def test_merge_insert_order_independent():
    states = [
        state(poset({A}), singleton(1), singleton(0)),
        state(poset({A}), singleton(2), singleton(0)),
        state(poset({B}), singleton(5), singleton(1)),
        state(P.TOP, singleton(0), singleton(0)),
        state(P.chain(A, B), singleton(5), singleton(1)),
    ]
    reference = None
    for perm in itertools.permutations(states):
        ss = StateSet(TABLE)
        ss.merge_all(L, perm)
        if reference is None:
            reference = ss
        else:
            assert ss.fingerprint() == reference.fingerprint()


def test_equal_sets():
    a, b = StateSet(TABLE), StateSet(TABLE)
    assert a.fingerprint() == b.fingerprint()
    a.merge_all(L, [state(P.TOP, singleton(0), singleton(0))])
    assert a.fingerprint() != b.fingerprint()
    b.merge_all(L, [state(P.TOP, singleton(0), singleton(0))])
    assert a.fingerprint() == b.fingerprint()
    b2 = StateSet(TABLE)
    b2.merge_all(L, [state(P.TOP, Interval(0, 1), singleton(0))])
    assert a.fingerprint() != b2.fingerprint()
    b3 = StateSet(TABLE)
    b3.merge_all(Label("m"), [state(P.TOP, singleton(0), singleton(0))])
    assert a.fingerprint() != b3.fingerprint()


def test_one_state_at_two_labels():
    """A state holds no label, so one object can sit at two labels; the
    fingerprint and the dump tell that apart from the state at one."""
    s = state(poset({A}), Interval(1, 2), singleton(0))
    one, two = StateSet(TABLE), StateSet(TABLE)
    one.merge_all(L, [s])
    two.merge_all(L, [s])
    two.merge_all(Label("m"), [s])
    assert two.at(L)[0] is two.at(Label("m"))[0] is s
    assert one.fingerprint() != two.fingerprint()
    assert one.dump() != two.dump()
    assert two.dump() == "l | x:{a.1} | t.r:[0,0] x:[1,2]\nm | x:{a.1} | t.r:[0,0] x:[1,2]"


def test_merge_state_list_matches_stateset():
    rng = random.Random(9)
    pool = [state(p, singleton(rng.randint(0, 3)), singleton(rng.randint(0, 2)))
            for p in (P.TOP, poset({A}), poset({B}), P.chain(A, B), P.chain(B, A))
            for _ in range(2)]
    lst: list = []
    ss = StateSet(TABLE)
    for s in pool:
        merge_state_list(lst, s)
        ss.merge_all(L, [s])
    assert tuple(lst) == ss.at(L)


def _hull(a: tuple, b: tuple) -> tuple:
    """The slot-wise hull of two memories of VALUES's ids, joined as
    intervals."""
    return tuple(VALUES.intern(val_join(VALUES.values[x], VALUES.values[y]))
                 for x, y in zip(a, b))


class _BucketWithoutFastPath(StateBucket):
    """The merge with no shortcut for covered states and no join memo:
    every match is taken out and the joined state put back in."""

    __slots__ = ()

    def merge(self, s: AbstractState) -> None:
        cur = s
        while True:
            other = self._by_mo.get(cur.mo)
            if other is not None:
                self._remove(other)
                cur = AbstractState(cur.mo, _hull(other.mem, cur.mem), cur.layout)
                continue
            other = next((c for c in self._by_mem.get(cur.mem, ())
                          if c.critical_signature() == cur.critical_signature()), None)
            if other is not None:
                self._remove(other)
                cur = AbstractState(_mo_join(self._table, other.mo, cur.mo), cur.mem, cur.layout)
                continue
            self._by_mo[cur.mo] = cur
            self._by_mem.setdefault(cur.mem, []).append(cur)
            self._sorted = None
            return


U = Event("u", 1, "t1", "rmw", "x")
MERGE_POSETS = (P.TOP, poset({A}), poset({B}), poset({U}), P.chain(A, B), P.chain(B, A),
                P.chain(U, B))


@st.composite
def merge_states(draw):
    def interval():
        lo = draw(st.integers(0, 3))
        return Interval(lo, lo + draw(st.integers(0, 2)))
    return state(draw(st.sampled_from(MERGE_POSETS)), interval(), interval())


@given(st.lists(merge_states(), max_size=14))
def test_merge_fast_path_matches_the_plain_merge(seq):
    """After every merge the bucket holds what the plain merge holds, in the
    same order; a merge that leaves the plain bucket's states as they were
    keeps the fast bucket's states() tuple itself, and so does merging a
    state the bucket holds or one with the same posets and a narrower
    memory.  The cached frozenset always holds the bucket's states."""
    fast, plain = StateBucket(TABLE), _BucketWithoutFastPath(TABLE)
    for s in seq:
        fast_before, plain_before = fast.states(), plain.states()
        fast.merge(s)
        plain.merge(s)
        assert fast.states() == plain.states()
        assert fast.frozen() == frozenset(plain.states())
        if plain.states() == plain_before:
            assert fast.states() is fast_before
    for held in fast.states():
        lows = tuple(VALUES.intern(singleton(VALUES.values[v].lo)) for v in held.mem)
        covered = (held, AbstractState(held.mo, lows, held.layout))
        for s in covered:
            before = fast.states()
            fast.merge(s)
            assert fast.states() is before


def test_a_merge_that_only_removes_resets_the_caches():
    """The joined memory of s1 and the new state is s2's, and s2's poset
    covers the join of the posets, so the merge takes s1 out and inserts
    nothing; both cached views of the bucket follow."""
    s1 = state(poset({A}), singleton(1), singleton(0))
    s2 = state(P.TOP, Interval(1, 2), singleton(0))
    bucket = StateBucket(TABLE)
    bucket.merge(s1)
    bucket.merge(s2)
    assert bucket.frozen() == {s1, s2} and len(bucket.states()) == 2
    bucket.merge(state(poset({A}), singleton(2), singleton(0)))
    assert bucket.states() == (s2,)
    assert bucket.frozen() == {s2}


def test_merging_a_merged_tuple_again_changes_the_set():
    """The merge is not idempotent across calls, so `engine._rounds` must
    merge a label's tuple into sigma every round, also when it merged that
    very tuple the round before.  Merging t joins it with a into
    ({a.1}, [1,1]), which then takes b in; merging t again finds neither
    its posets nor its memory and adds it."""
    c = Event("c", 1, "t3", "store", "x")
    layout = Layout(("x",), ("x",), TABLE, VALUES)

    def st_(mo_x, x):
        return AbstractState.make({"x": mo_x}, {"x": x}, layout)

    a = st_(P.chain(A, B), singleton(1))
    b = st_(poset({A}), singleton(5))
    t = st_(poset({A, c}), singleton(1))
    ss = StateSet(TABLE)
    ss.merge_all(L, [a, b])
    ss.merge_all(L, [t])
    assert ss.dump() == "l | x:{a.1} | x:[1,5]"
    ss.merge_all(L, [t])
    assert ss.dump() == "l | x:{a.1} | x:[1,5]\nl | x:{a.1, c.1} | x:[1,1]"


def test_dump_format():
    ss = StateSet(TABLE)
    ss.merge_all(L, [state(poset({A}), Interval(1, 2), singleton(0))])
    line = ss.dump()
    assert line == "l | x:{a.1} | t.r:[0,0] x:[1,2]"


def _module_container_sizes(module) -> dict:
    """The size of every dict, list and set held by the module or by a class
    it defines, and of every functools cache among its functions."""
    sizes = {}
    holders = [(module.__name__, vars(module))]
    holders += [(f"{module.__name__}.{name}", vars(value)) for name, value in vars(module).items()
                if isinstance(value, type) and value.__module__ == module.__name__]
    for prefix, namespace in holders:
        for name, value in namespace.items():
            if name.startswith("__"):
                continue
            if isinstance(value, (dict, list, set)):
                sizes[f"{prefix}.{name}"] = len(value)
            elif hasattr(value, "cache_info"):
                sizes[f"{prefix}.{name}"] = value.cache_info().currsize
    return sizes


def test_analyses_leave_no_process_wide_state_behind():
    """A second analysis of fresh names grows no container that outlives
    the first: every cache, the poset table's included, belongs to one
    analysis."""
    import re

    from ramosaic import engine, intervals, posets, states, transfer
    from ramosaic.engine import tmai
    from ramosaic.litmus import parse

    from conftest import BENCH_DIR

    source = (BENCH_DIR / "peterson3.lit").read_text()
    modules = (posets, intervals, states, transfer, engine)

    def renamed(suffix: str) -> str:
        return re.sub(r"\b(q1|q2|q3|v|cs)\b", lambda m: m.group(1) + suffix, source)

    def sizes() -> list:
        return [_module_container_sizes(m) for m in modules]

    first = tmai(parse(renamed("_a")))
    before = sizes()
    second = tmai(parse(renamed("_b")))
    assert sizes() == before
    assert first.states.total_states() == second.states.total_states() > 0


def test_cached_keys_do_not_change_equality():
    """The sort key and the critical signature, read off the table's
    per-id lists, leave `==` and `hash` to the values: two states built
    through two layouts of one table are equal and hash alike."""
    s = state(poset({A}), singleton(1), singleton(0))
    t = AbstractState.make({"x": poset({A})}, {"x": singleton(1), "t.r": singleton(0)},
                           Layout(("x",), ("x", "t.r"), TABLE, VALUES))
    s.sort_key(), s.critical_signature()
    assert s.layout is not t.layout
    assert s == t and hash(s) == hash(t)
    assert s.sort_key() == t.sort_key() == (((A,), ()),)
    assert s.critical_signature() == t.critical_signature()
    u = state(poset({Event("u", 1, "t1", "rmw", "x")}), singleton(1), singleton(0))
    assert u.critical_signature() != s.critical_signature()


def test_a_set_refuses_the_states_of_another_analysis():
    """Poset ids name posets of one table only, so merging the states of
    one analysis into the set of another raises instead of joining
    unrelated posets."""
    program = parse(MP_SRC)
    first, second = tmai(program), tmai(program)
    assert first.states.table is not second.states.table
    lbl = first.states.labels()[-1]
    with pytest.raises(ValueError, match="another analysis"):
        first.states.merge_all(lbl, second.states.at(lbl))
    with pytest.raises(ValueError, match="another analysis"):
        StateSet(TABLE).merge_all(L, first.states.at(lbl))
    first.states.merge_all(lbl, first.states.at(lbl))
