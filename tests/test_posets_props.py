"""Randomized law suites for the poset lattice: partial-order laws, lub/glb
characterization, widening behavior, the loset bridge, and the soundness
relation of the newest-store abstraction."""

import itertools
import random

from hypothesis import given, strategies as st

from ramosaic import posets as P
from ramosaic.posets import BOTTOM, Event, SbIndex, alpha, beta_related, loset_set, poset

from galois import abs_alpha, gamma, loset_leq

UNIVERSE = [Event(n, i, t, "store", "x")
            for t, names in (("t1", "abc"), ("t2", "de"))
            for n in names for i in (1, 2)]
SB = SbIndex({(a.key, b.key)
              for a in UNIVERSE for b in UNIVERSE
              if a.thread == b.thread and (a.label, a.instance) < (b.label, b.instance)})


def random_poset(rng, max_events=5, allow_bottom=True):
    if allow_bottom and rng.random() < 0.08:
        return BOTTOM
    k = rng.randint(0, max_events)
    events = rng.sample(UNIVERSE, k)
    pairs = set()
    for a, b in itertools.combinations(events, 2):
        r = rng.random()
        if r < 0.3:
            pairs.add((a, b))
        elif r < 0.45:
            pairs.add((b, a))
    p = poset(events, pairs)
    return p if not p.bottom else poset(events)


def sample_posets(n, seed=0, **kw):
    rng = random.Random(seed)
    return [random_poset(rng, **kw) for _ in range(n)]


def test_partial_order_laws():
    posets_ = sample_posets(1000, seed=1)
    rng = random.Random(2)
    for p in posets_:
        p.check()
        assert P.less(p, p)
    for _ in range(1000):
        p1, p2, p3 = (rng.choice(posets_) for _ in range(3))
        if P.less(p1, p2) and P.less(p2, p3):
            assert P.less(p1, p3)
        if P.less(p1, p2) and P.less(p2, p1):
            assert p1 == p2


def test_join_is_lub_and_meet_is_glb():
    rng = random.Random(3)
    posets_ = sample_posets(400, seed=4)
    for _ in range(1000):
        p1, p2 = rng.choice(posets_), rng.choice(posets_)
        j = P.join(p1, p2)
        j.check()
        assert P.less(p1, j) and P.less(p2, j)
        m = P.meet(p1, p2)
        m.check()
        assert P.less(m, p1) and P.less(m, p2)
        for u in rng.sample(posets_, 40):
            if P.less(p1, u) and P.less(p2, u):
                assert P.less(j, u), f"join not least among upper bounds"
            if P.less(u, p1) and P.less(u, p2):
                assert P.less(u, m), f"meet not greatest among lower bounds"


def test_widen_is_upper_bound():
    rng = random.Random(5)
    posets_ = sample_posets(500, seed=6)
    for _ in range(1000):
        p1, p2 = rng.choice(posets_), rng.choice(posets_)
        w = P.widen(p1, p2)
        w.check()
        assert P.less(p1, w) and P.less(p2, w)


def widen_chain(chain) -> int:
    """Widen along `chain` and count the steps that change the accumulator.
    Each step's result is an upper bound of both operands and keeps only
    events and pairs of the accumulator, so each change strictly shrinks
    its events or its pairs, and a chain of non-bottom posets settles
    within as many changes as its first poset has events and pairs."""
    acc, changes = chain[0], 0
    for nxt in chain[1:]:
        widened = P.widen(acc, nxt)
        assert P.less(acc, widened) and P.less(nxt, widened)
        assert widened.events <= acc.events and widened.pairs <= acc.pairs
        if widened != acc:
            changes += 1
        acc = widened
    assert changes <= len(chain[0].events) + len(chain[0].pairs)
    return changes


def test_widening_chains_stabilize():
    """Iterated widening over an ascending chain shrinks at every change
    (`widen_chain`).  The chains are drawn over the sorted events and
    pairs, so they do not depend on the hash seed."""
    rng = random.Random(7)
    for _ in range(300):
        base = random_poset(rng, allow_bottom=False)
        chain = [base]
        cur = base
        for _ in range(10):
            # move up: drop events and pairs
            events = [e for e in sorted(cur.events) if rng.random() > 0.3]
            pairs = {(a, b) for a, b in sorted(cur.pairs)
                     if a in events and b in events and rng.random() > 0.3}
            cur = poset(events, pairs)
            chain.append(cur)
        widen_chain(chain)


def test_widening_a_total_order_that_loses_one_pair_per_step():
    """A closed total order of five events, one per label, that loses one
    pair per step and stays closed: each of its 8 steps changes the
    widening, more than the distinct labels plus one (6), which is no
    bound on the changes, and within its 5 events and 10 pairs."""
    cur = P.chain(*(e for e in UNIVERSE if e.instance == 1))
    chain = [cur]
    for _ in range(8):
        pair = next(ab for ab in sorted(cur.pairs)
                    if poset(cur.events, cur.pairs - {ab}).pairs == cur.pairs - {ab})
        cur = poset(cur.events, cur.pairs - {pair})
        chain.append(cur)
    assert (len(chain[0].events), len(chain[0].pairs)) == (5, 10)
    assert widen_chain(chain) == 8 > len({e.label for e in UNIVERSE}) + 1


def _all_posets_over(events):
    events = list(events)
    pairs_all = [(a, b) for a in events for b in events if a != b]
    out = []
    for mask in itertools.product([False, True], repeat=len(pairs_all)):
        pairs = {p for p, keep in zip(pairs_all, mask) if keep}
        closed = poset(events, pairs)
        if not closed.bottom and closed.pairs == frozenset(pairs):
            out.append(closed)
    uniq = {(p.events, p.pairs): p for p in out}
    return list(uniq.values())


def _all_loset_sets_over(events):
    orders = list(itertools.permutations(events))
    sets_ = []
    for r in range(1, len(orders) + 1):
        for combo in itertools.combinations(orders, r):
            sets_.append(loset_set(combo))
    return sets_


def _well_formed(t):
    """Linearization-closed: the set holds every order its common pairs
    allow.  The adjunction only holds on such sets; arbitrary subsets of
    orders fall outside the concrete domain's image."""
    return t.bottom or gamma(alpha(t)) == t


def test_galois_monotone_and_adjoint_exhaustive_small():
    """alpha/gamma monotonicity for all loset sets, plus the adjunction
    gamma(p) below t iff p below alpha(t), exhaustively over event sets of
    up to three events (well-formed sets for the adjunction)."""
    for k in (1, 2, 3):
        events = UNIVERSE[:k]
        loset_sets = _all_loset_sets_over(events)
        posets_ = _all_posets_over(events)
        for t1 in loset_sets:
            for t2 in loset_sets:
                if loset_leq(t1, t2):
                    assert P.less(alpha(t1), alpha(t2))
        for p1 in posets_:
            for p2 in posets_:
                if P.less(p1, p2):
                    assert loset_leq(gamma(p1), gamma(p2))
        for t in filter(_well_formed, loset_sets):
            for p in posets_:
                assert P.less(p, alpha(t)) == loset_leq(gamma(p), t), \
                    f"adjunction fails for {t} vs {p}"


def test_galois_sampled_four_events():
    rng = random.Random(11)
    events = UNIVERSE[:4]
    orders = list(itertools.permutations(events))
    posets_ = sample_posets(60, seed=12, max_events=4)
    posets_ = [p for p in posets_ if not p.bottom and p.events <= set(events)]
    checked = 0
    for _ in range(400):
        t = loset_set(rng.sample(orders, rng.randint(1, 5)))
        if not _well_formed(t):
            continue
        checked += 1
        for p in posets_[:20]:
            assert P.less(p, alpha(t)) == loset_leq(gamma(p), t)
    assert checked > 30


def test_linearization_antitone():
    """Growing the order shrinks the linearization set."""
    rng = random.Random(13)
    for _ in range(300):
        p1 = random_poset(rng, max_events=4, allow_bottom=False)
        extra = poset(p1.events, set(p1.pairs) | _one_more_pair(rng, p1))
        if extra.bottom:
            continue
        assert gamma(extra).losets <= gamma(p1).losets


def _one_more_pair(rng, p):
    cands = [(a, b) for a in p.events for b in p.events
             if a != b and (a, b) not in p.pairs and (b, a) not in p.pairs]
    return {rng.choice(cands)} if cands else set()


@st.composite
def poset_strategy(draw, allow_bottom=True):
    if allow_bottom and draw(st.booleans()) and draw(st.integers(0, 9)) == 0:
        return BOTTOM
    events = draw(st.sets(st.sampled_from(UNIVERSE), max_size=5))
    pairs = set()
    for a, b in itertools.combinations(sorted(events), 2):
        pick = draw(st.integers(0, 3))
        if pick == 1:
            pairs.add((a, b))
        elif pick == 2:
            pairs.add((b, a))
    built = poset(events, pairs)
    return built if not built.bottom else poset(events)


@given(poset_strategy(), poset_strategy())
def test_operations_preserve_the_order_audit(p1, p2):
    """Every operator output stays transitively closed, irreflexive and
    acyclic, and bottom never carries events."""
    for out in (P.join(p1, p2), P.meet(p1, p2), P.widen(p1, p2),
                P.meet(p1, p2, SB, abstract=True),
                P.meet(p1, p2, rmw_critical=True),
                abs_alpha(p1, SB), abs_alpha(p1, SB, rmw_critical=True)):
        out.check()


@given(poset_strategy(allow_bottom=False), st.sampled_from(UNIVERSE))
def test_append_audit_and_growth(p, ev):
    for abstract in (False, True):
        out = P.append(p, ev, SB, abstract=abstract)
        out.check()
        if not out.bottom:
            assert ev in out.events
            assert all((a, ev) in out.pairs for a in out.events if a != ev)


@given(poset_strategy(), poset_strategy())
def test_meet_below_join_above(p1, p2):
    m, j = P.meet(p1, p2), P.join(p1, p2)
    assert P.less(m, j)


def test_beta_soundness_and_minimality():
    """The forgetting abstraction is beta-sound and minimal among sampled
    beta-abstractions."""
    rng = random.Random(17)
    posets_ = sample_posets(1000, seed=18)
    candidates = sample_posets(300, seed=19)
    for p in posets_:
        a = abs_alpha(p, SB)
        a.check()
        assert beta_related(p, a, SB)
        for q in rng.sample(candidates, 30):
            if beta_related(p, q, SB):
                assert P.less(a, q), "forgetting abstraction is not minimal"


MIXED_UNIVERSE = UNIVERSE + [Event("k", 1, "t1", "rmw", "x"), Event("m", 1, "t2", "rmw", "x"),
                             Event("l", 1, "t1", "lock", "x"), Event("u", 1, "t1", "unlock", "x")]
MIXED_SB = SbIndex({(a.key, b.key)
                    for a in MIXED_UNIVERSE for b in MIXED_UNIVERSE
                    if a.thread == b.thread and (a.label, a.instance) < (b.label, b.instance)})


@st.composite
def operand_strategy(draw):
    """Bottom, top, or a poset over stores, rmws, a lock and an unlock."""
    pick = draw(st.integers(0, 9))
    if pick == 0:
        return BOTTOM
    if pick == 1:
        return P.TOP
    events = draw(st.lists(st.sampled_from(MIXED_UNIVERSE), max_size=5, unique=True))
    pairs = {(a, b) for a, b in itertools.combinations(events, 2) if draw(st.booleans())}
    built = poset(events, pairs)
    return built if not built.bottom else poset(events)


def _copy(p):
    """An equal poset that shares no object with p."""
    return P.MoPoset(p.bottom, frozenset(list(p.events)), frozenset(list(p.pairs)))


def _critical(p):
    """The lock/unlock/rmw events of p, the order pairs among them and those
    of them that have a predecessor."""
    events = {e for e in p.events if e.kind in ("lock", "unlock", "rmw")}
    return (events, {(a, b) for a, b in p.pairs if a in events and b in events},
            {b for _, b in p.pairs if b in events})


def _published_by_scan(p, ev):
    """p holds ev or an instance of ev's label and thread bumped past it."""
    return any(e.label == ev.label and e.thread == ev.thread and e.instance >= ev.instance
               for e in p.events)


@given(st.lists(operand_strategy(), min_size=1, max_size=6),
       st.lists(st.sampled_from(MIXED_UNIVERSE), min_size=1, max_size=3),
       st.booleans(), st.booleans())
def test_poset_table_answers_as_the_operators(ops, evs, abstract, rmw_critical):
    """Each memoized operator, on ids, returns the id of what the module
    function returns, on first use and on a repeat, for operands that are
    equal copies of each other as well; equal posets get one id, bottom is
    0 and top is 1.  A non-bottom meet equals an operand exactly when that
    operand is `less` than the other, which apply_interference's view test
    relies on, and the meet of top and p is p, which it takes without a
    lookup.  The per-id sort keys, critical signatures, `lasts` and
    `published` answer as computed from the poset."""
    table = P.PosetTable(MIXED_SB, abstract, rmw_critical)
    flags = (MIXED_SB, abstract, rmw_critical)
    assert table.posets[P.BOTTOM_ID] == BOTTOM and table.posets[P.TOP_ID] == P.TOP
    ops = ops + [_copy(p) for p in ops]
    ids = [table.intern(p) for p in ops]
    half = len(ops) // 2
    assert ids[:half] == ids[half:]
    operands = list(zip(ops, ids))
    for _ in range(2):
        for (p1, i1), (p2, i2) in itertools.product(operands, repeat=2):
            met, joined = table.meet(i1, i2), table.join(i1, i2)
            assert table.posets[met] == P.meet(p1, p2, *flags)
            assert table.posets[joined] == P.join(p1, p2)
            if met:
                # the view test of apply_interference reads `less` off the meet
                assert (met == i1) == P.less(p1, p2)
                assert (met == i2) == P.less(p2, p1)
            assert ((table.signatures[i1] == table.signatures[i2])
                    == (_critical(p1) == _critical(p2)))
        for p, i in operands:
            assert P.meet(P.TOP, p, *flags) == p
            assert table.sort_keys[i] == (tuple(sorted(p.events)), tuple(sorted(p.pairs)))
            assert table.lasts(i) == p.lasts()
            for ev in evs:
                assert table.posets[table.append(i, ev)] == P.append(p, ev, *flags)
                assert table.published(i, ev) == _published_by_scan(p, ev)
    assert len(set(table.posets)) == len(table.posets)
    assert all(table.intern(p) == i for i, p in enumerate(table.posets))
