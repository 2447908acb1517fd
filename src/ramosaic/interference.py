"""Per-thread interference maps and feasibility pruning of interference
combinations via the nrf rule.

A load's candidates are every other thread's writes of the same variable
plus ctx, which stands for reading the propagated in-thread state.  A
combination fixes one candidate per load of a thread; nrf rejects a
combination when one of its reads-from pairs is provably stale or redundant
given another pair and the reflexive-transitive per-thread order, that is
CFG reachability.
"""

from __future__ import annotations

import itertools
from typing import Dict, Tuple

from .litmus import Cfg, Label, Program

CTX = Label("%ctx")


class CombinationBudgetExceeded(Exception):
    pass


def get_interfs(program: Program, cfg: Cfg) -> Dict[str, Dict[Label, Tuple[Label, ...]]]:
    """ctx plus all other-thread writes of the variable, per load/rmw label;
    for lock labels, other threads' unlocks of the mutex."""
    # Writes and unlocks publish to their location, loads and locks read
    # from it; a variable and a mutex never share a name.
    accesses = sorted(cfg.accesses.items())
    published: Dict[str, list] = {}
    for lbl, (kind, loc) in accesses:
        if kind in ("store", "rmw", "unlock"):
            published.setdefault(loc, []).append(lbl)
    thread_of = cfg.thread_of
    out: Dict[str, Dict[Label, Tuple[Label, ...]]] = {t.name: {} for t in program.threads}
    for lbl, (kind, loc) in accesses:
        if kind in ("load", "rmw", "lock"):
            tname = thread_of[lbl]
            out[tname][lbl] = (CTX, *(l for l in published.get(loc, ())
                                      if thread_of[l] != tname))
    return out


def is_feasible(ic: Dict[Label, Label], cfg: Cfg) -> bool:
    """False iff some rf pair rf(s',l') is derivable as not-reads-from: a
    distinct pair rf(s,l) exists with ppo(l,l') and ppo(s',s), where s and s'
    write the same variable and ppo(a,b) is a == b or b reachable from a in
    the CFG.

    The variable side condition makes the staleness argument go through: s'
    before s in one thread's order puts s' before s in that variable's
    modification order, and reading s at l exposes s to the later l', so l'
    reading the overwritten s' breaks per-location coherence.  Across
    different variables no such modification-order link exists, and the
    unconditional rule prunes consistent executions.
    """
    accesses = cfg.accesses
    rf_pairs = [(s, l) for l, s in sorted(ic.items()) if s != CTX]
    for s, l in rf_pairs:
        for s2, l2 in rf_pairs:
            if (s, l) == (s2, l2):
                continue
            if accesses[s2].loc != accesses[s].loc:
                continue
            if ((l == l2 or l2 in cfg.reachable(l))
                    and (s2 == s or s in cfg.reachable(s2))):
                return False
    return True


def feasible_combinations(interfs: Dict[str, Dict[Label, Tuple[Label, ...]]], cfg: Cfg,
                          prune: bool = True,
                          cap: int = 4096) -> Dict[str, Tuple[Dict[Label, Label], ...]]:
    """Per thread, the combinations of one source per load or rmw of the
    interference maps `interfs` (as `get_interfs` builds them) that nrf does
    not prune."""
    out: Dict[str, Tuple[Dict[Label, Label], ...]] = {}
    for tname, per_thread in interfs.items():
        per_load = {lbl: cands for lbl, cands in sorted(per_thread.items())
                    if cfg.accesses[lbl].kind != "lock"}
        size = 1
        for cands in per_load.values():
            size *= len(cands)
        if size > cap:
            raise CombinationBudgetExceeded(
                f"thread {tname}: {size} interference combinations exceed cap {cap}")
        loads = list(per_load)
        combos = []
        for choice in itertools.product(*(per_load[l] for l in loads)):
            ic = dict(zip(loads, choice))
            if not prune or is_feasible(ic, cfg):
                combos.append(ic)
        out[tname] = tuple(combos)
    return out
