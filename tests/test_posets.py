"""Example-level checks for every poset operation; the randomized law
suites live in test_posets_props.py."""

import pytest

from ramosaic import posets as P
from ramosaic.posets import (BOTTOM, TOP, Event, SbIndex, TooLarge, alpha,
                             beta_related, loset_set, poset)

from galois import abs_alpha, gamma, loset_leq

# one writer thread t1 with stores a,b,c in program order, plus d,e on t2
A = Event("a", 1, "t1", "store", "x")
B = Event("b", 1, "t1", "store", "x")
C = Event("c", 1, "t1", "store", "x")
D = Event("d", 1, "t2", "store", "x")
E = Event("e", 1, "t2", "store", "x")
U1 = Event("u1", 1, "t1", "rmw", "x")
U2 = Event("u2", 1, "t2", "rmw", "x")

SB = SbIndex({(a.key, b.key) for a, b in
              [(A, B), (A, C), (B, C), (D, E), (U1, A), (U1, B), (U1, C)]})


def test_less_examples():
    assert P.less(BOTTOM, poset({A}))
    assert P.less(P.chain(A, B), poset({A}))
    assert not P.less(poset({A}), P.chain(A, B))


def test_less_uses_event_superset_and_order_subset():
    assert P.less(poset({A, B}), poset({A}))
    assert not P.less(poset({A}), poset({A, B}))
    assert P.less(P.chain(A, B), poset({A, B}))


def test_consistent_examples():
    assert not P.consistent(P.chain(A, B), P.chain(B, A))
    assert not P.consistent(BOTTOM, poset({A}))
    assert not P.consistent(poset({A}), BOTTOM)
    assert P.consistent(poset({A}), poset({B}))


def test_consistent_abstracted_sb_clause():
    # (a,b) in the first order forbids (c,a) in the second when sb(b,c)
    p1 = P.chain(D, A)  # d before a
    p2 = P.chain(B, D)  # b before d, and sb(a, b): reading both is circular
    assert P.consistent(p1, p2)  # concrete mode sees no direct conflict
    assert not P.consistent(p1, p2, SB, abstract=True)


def test_valid_extension_examples():
    assert P.valid_extension(TOP, A)
    assert not P.valid_extension(P.chain(A, B), A)  # a has a successor
    # abstracted: an sb-later store already present rejects the extension
    assert P.valid_extension(poset({B}), A)
    assert not P.valid_extension(poset({B}), A, SB, abstract=True)
    # sb is reflexive, so a present event is not a valid extension
    assert not P.valid_extension(poset({A}), A, SB, abstract=True)


def test_append_examples():
    assert P.append(TOP, A) == poset({A})
    assert P.append(poset({A}), D) == P.chain(A, D)
    # re-appending a present event closes a cycle on itself
    assert P.append(poset({A}), A).bottom
    assert P.append(P.chain(A, D), A).bottom


def test_append_abstracted_forgets_older_store():
    out = P.append(poset({A}), C, SB, abstract=True)
    assert out == poset({C})
    out = P.append(poset({A, D}), C, SB, abstract=True)
    assert out.events == frozenset({C, D})
    assert (D, C) in out.pairs and all(a != A and b != A for a, b in out.pairs)


def test_append_keeps_critical_rmw():
    out = P.append(poset({U1}), A, SB, abstract=True, rmw_critical=True)
    assert out == P.chain(U1, A)
    out = P.append(poset({U1}), A, SB, abstract=True, rmw_critical=False)
    assert out == poset({A})


def test_append_keeps_the_store_a_critical_event_read():
    """Forgetting every predecessor of a critical event would make it read
    as first in modification order, so the mo-latest forgotten one stays:
    the store the rmw read, both for the appended rmw and for an rmw of
    another thread that the append would leave with none."""
    w = Event("w", 1, "t1", "store", "y")
    r = Event("r", 1, "t1", "rmw", "y")
    w2 = Event("w2", 1, "t1", "store", "y")
    u = Event("u", 1, "t2", "rmw", "y")
    d = Event("d", 1, "t2", "store", "y")
    sb = SbIndex({(w.key, r.key), (w.key, w2.key)})
    assert P.append(poset({w}), r, sb, abstract=True, rmw_critical=True) == P.chain(w, r)
    assert P.append(poset({w}), r, sb, abstract=True, rmw_critical=False) == poset({r})
    # a predecessor that stays is enough
    assert (P.append(poset({w, d}, {(d, w)}), r, sb, abstract=True, rmw_critical=True)
            == P.chain(d, r))
    assert (P.append(P.chain(w, u), w2, sb, abstract=True, rmw_critical=True)
            == P.chain(w, u, w2))
    assert P.append(P.chain(w, d), w2, sb, abstract=True, rmw_critical=True) == P.chain(d, w2)


def test_meet_examples():
    assert P.meet(poset({A}), poset({B})) == poset({A, B})
    assert P.meet(P.chain(A, B), P.chain(B, A)).bottom
    out = P.meet(P.chain(A, B), P.chain(B, C))
    assert (A, C) in out.pairs  # transitivity restored
    assert out == P.chain(A, B, C)
    assert P.meet(BOTTOM, poset({A})).bottom


def test_meet_rejects_alternating_cycle():
    # pairwise-consistent orders whose union still cycles must give bottom
    p1 = poset({A, B, C, D}, {(A, B), (C, D)})
    p2 = poset({A, B, C, D}, {(B, C), (D, A)})
    assert P.consistent(p1, p2)
    assert P.meet(p1, p2).bottom


def test_meet_rmw_critical_first_slot_conflict():
    # both sides claim their rmw read the initial value
    p1 = poset({U1})
    p2 = poset({U2})
    assert P.meet(p1, p2, rmw_critical=True).bottom
    assert not P.meet(p1, p2, rmw_critical=False).bottom
    # with a known predecessor on one side, a common total order exists
    p1 = P.chain(D, U1)
    assert not P.meet(p1, p2, rmw_critical=True).bottom


def test_join_examples():
    assert P.join(BOTTOM, poset({A})) == poset({A})
    assert P.join(P.chain(A, B), P.chain(A, C)) == poset({A})
    p = P.chain(A, B)
    assert P.join(p, p) == p


def test_widen_examples():
    p = P.chain(A, B)
    assert P.widen(p, BOTTOM) == p
    assert P.widen(BOTTOM, p) == p
    l1, l2, l3 = (Event("l", i, "t1", "store", "x") for i in (1, 2, 3))
    assert P.widen(P.chain(l1, l2), P.chain(l2, l3)) == poset({l2})
    assert P.widen(p, p) == p


def test_abs_alpha_examples():
    assert abs_alpha(BOTTOM, SB).bottom
    out = abs_alpha(poset({A, B, D}, {(A, B), (D, B)}), SB)
    assert out.events == frozenset({B, D})
    assert (D, B) in out.pairs
    assert abs_alpha(poset({A}), SB) == poset({A})


def test_abs_alpha_keeps_rmw_when_critical():
    p = poset({U1, A}, {(U1, A)})
    assert abs_alpha(p, SB, rmw_critical=True) == p
    assert abs_alpha(p, SB, rmw_critical=False) == poset({A})


def test_beta_examples():
    assert beta_related(BOTTOM, poset({A}), SB)
    assert beta_related(poset({A}), TOP, SB)
    p = poset({A, B, D}, {(A, B)})
    assert beta_related(p, abs_alpha(p, SB), SB)
    assert not beta_related(TOP, poset({A}), SB)


def test_alpha_examples():
    t = loset_set([(A, B, C), (A, C, B)])
    out = alpha(t)
    assert out.events == frozenset({A, B, C})
    assert out.pairs == frozenset({(A, B), (A, C)})
    single = loset_set([(A, B)])
    assert alpha(single) == P.chain(A, B)
    assert alpha(P.LOSET_BOTTOM).bottom


def test_gamma_examples():
    out = gamma(poset({A, B}))
    assert out.losets == frozenset({(A, B), (B, A)})
    assert gamma(P.chain(A, B)).losets == frozenset({(A, B)})
    three = gamma(poset({A, B, C}, {(A, B)}))
    assert len(three.losets) == 3
    assert gamma(BOTTOM).bottom


def test_gamma_guard():
    events = {Event(f"e{i}", 1, "t1", "store", "x") for i in range(9)}
    with pytest.raises(TooLarge):
        gamma(poset(events))


def test_loset_leq():
    t_small = loset_set([(A, B)])
    t_big = loset_set([(A,), (A,)])  # single-event set
    # t_small constrains more events; restricted to {a} it matches
    assert loset_leq(t_small, loset_set([(A,)]))
    assert loset_leq(P.LOSET_BOTTOM, t_small)
    assert not loset_leq(t_big, t_small)


def test_poset_display():
    assert str(BOTTOM) == "⊥"
    assert str(TOP) == "{}"
    assert str(P.chain(A, B)) == "{a.1, b.1 | a.1<b.1}"


def test_lasts():
    assert P.chain(A, B).lasts() == frozenset({B})
    assert poset({A, B}).lasts() == frozenset({A, B})
    assert TOP.lasts() == frozenset()
