"""The meaning of the poset abstraction, for the property tests: the
concretization of a poset into its linearizations, the order on sets of
total modification orders, and the best abstraction of a single poset
under the newest-store rule.  The analyzer never calls these; the tests
check its operators against them."""

import itertools

from ramosaic.posets import (BOTTOM, LOSET_BOTTOM, LosetSet, MoPoset, SbIndex,
                             TooLarge, _forgettable, _loset_pairs)


def abs_alpha(p: MoPoset, sb: SbIndex, rmw_critical: bool = False) -> MoPoset:
    """Forget events that have a strictly sequenced-after event present."""
    if p.bottom:
        return BOTTOM
    drop = {a for a in p.events
            if _forgettable(a, rmw_critical)
            and any(b != a and sb.strict(a.key, b.key) for b in p.events)}
    if not drop:
        return p
    events = p.events - drop
    pairs = frozenset((a, b) for a, b in p.pairs if a in events and b in events)
    return MoPoset(False, events, pairs)


def loset_leq(t1: LosetSet, t2: LosetSet) -> bool:
    """t1 below t2: t1 constrains a superset of events, and each of its
    orders refines some order of t2 on the common events.  The empty set of
    constraints is a dedicated top above everything."""
    if t1.bottom:
        return True
    if t2.bottom:
        return False
    if not t2.events:
        return True
    if not (t1.events >= t2.events):
        return False
    for mo_i in t1.losets:
        restricted = [e for e in mo_i if e in t2.events]
        found = False
        for mo_j in t2.losets:
            if _loset_pairs(tuple(restricted)) <= _loset_pairs(mo_j):
                found = True
                break
        if not found:
            return False
    return True


def gamma(p: MoPoset, guard: int = 8) -> LosetSet:
    """All linearizations of the order, guarded by event count."""
    if p.bottom:
        return LOSET_BOTTOM
    if len(p.events) > guard:
        raise TooLarge(f"{len(p.events)} events exceeds linearization guard {guard}")
    out = []
    for perm in itertools.permutations(sorted(p.events)):
        pos = {e: i for i, e in enumerate(perm)}
        if all(pos[a] < pos[b] for a, b in p.pairs):
            out.append(perm)
    return LosetSet(False, p.events, frozenset(out))
