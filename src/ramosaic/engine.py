"""Fixpoint driver: per-thread worklist analysis repeated over all threads
against the global state set until nothing changes, with assertions evaluated
on the fixpoint.  A combination-based variant runs each thread once per
feasible interference combination instead of per-load; both are one round
loop over a list of (thread, interference map) passes.

Rounds reuse node results.  `AnalysisContext.node_memo` keeps, per label,
bump and interference sources, the pre-states of the node's last visit,
the states tuple the global set held at each of those sources other than
ctx, and its merged states before widening.  A visit whose pre-states are
equal and whose sources give equal tuples now takes the merged states
without running the transfer, as in demand-driven incremental computation
(Hammer et al., "Adapton", PLDI'14).  The round that only confirms the
fixpoint therefore runs no transfer.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, Optional

from . import interference, posets
from .interference import CTX
from .intervals import val_widen
from .litmus import AssertInst, Cfg, Label, Nop, Program, build_cfg
from .states import AbstractState, StateBucket, StateSet, _mo_join
from .transfer import (AnalysisContext, TransferConfig, Verdict, check_assert,
                       check_final_assert, transfer_node)


class Divergence(Exception):
    pass


@dataclass
class AnalysisResult:
    states: StateSet
    verdicts: Dict[str, Verdict]
    iterations_total: int
    iterations_effective: int
    widened: frozenset
    cfg: Cfg
    sb: posets.SbIndex

    @property
    def all_proved(self) -> bool:
        return all(v.proved for v in self.verdicts.values())


def _collapse(ctx: AnalysisContext, states) -> Optional[AbstractState]:
    """Fold a state list into a single state (variable-wise poset join,
    memory hull); used only when widening at loop headers."""
    if not states:
        return None
    cur = states[0]
    for s in states[1:]:
        cur = AbstractState(_mo_join(ctx.posets, cur.mo, s.mo),
                            ctx.values.mem_join(cur.mem, s.mem), cur.layout)
    return cur


def _widen_states(ctx: AnalysisContext, old_states, new_states) -> list:
    old = _collapse(ctx, old_states)
    new = _collapse(ctx, new_states)
    if old is None:
        return list(new_states)
    if new is None:
        return list(old_states)
    table, values = ctx.posets, ctx.values
    mo = tuple([table.intern(posets.widen(table.posets[p], table.posets[q]))
                for p, q in zip(old.mo, new.mo)])
    mem = tuple([values.intern(val_widen(values.values[a], values.values[b]))
                 for a, b in zip(old.mem, new.mem)])
    return [AbstractState(mo, mem, old.layout)]


def _node_states(ctx: AnalysisContext, lbl: Label, pre_states: tuple,
                 global_ss: StateSet, interfs: Dict[Label, tuple], bump: int) -> tuple:
    """The merged states of one visit of `lbl`, before widening, taken from
    the memo when the inputs are unchanged: the transfer is a function of
    the pre-states, the key, the context and the global states at the key's
    sources other than ctx, which are all it reads of the global set.

    A nop or an assert with one predecessor passes that predecessor's
    states tuple on as it is: the tuple is a sorted normal form already,
    which a merge would rebuild unchanged."""
    cfg = ctx.cfg
    if len(cfg.preds[lbl]) == 1 and isinstance(cfg.nodes[lbl], (Nop, AssertInst)):
        return pre_states
    srcs = interfs.get(lbl)
    key = (lbl, bump, srcs)
    reads = tuple([global_ss.at(src) for src in srcs if src != CTX]) if srcs else ()
    entry = ctx.node_memo.get(key)
    if entry is not None and entry[0] == pre_states and entry[1] == reads:
        return entry[2]
    bucket = StateBucket(ctx.posets)
    for s in transfer_node(ctx, lbl, pre_states, global_ss, interfs, bump=bump):
        bucket.merge(s)
    states = bucket.states()
    ctx.node_memo[key] = (pre_states, reads, states)
    return states


def seq_ai(ctx: AnalysisContext, tname: str, global_ss: StateSet,
           interfs: Dict[Label, tuple], widened: Optional[set] = None) -> Dict[Label, tuple]:
    """Worklist pass over one thread's CFG in reverse post-order, reading
    interference sources from the global state set."""
    cfg = ctx.cfg
    rpo = cfg.rpo[tname]
    index = ctx.rpo_index
    entry = rpo[0]
    local: Dict[Label, tuple] = {entry: (ctx.initial_states[tname],)}
    visits: Dict[Label, int] = {}
    # the RPO positions of the pending labels, popped in order: a heap, and
    # a set for membership; the first worklist is sorted, so a heap already
    heap = list(ctx.first_worklists[tname])
    pending = set(heap)
    while heap:
        i = heapq.heappop(heap)
        pending.discard(i)
        lbl = rpo[i]
        preds = cfg.preds[lbl]
        if len(preds) == 1:
            pre_states = local.get(preds[0], ())
        else:
            pre_states = tuple([s for p in preds for s in local.get(p, ())])
        bump = visits.get(lbl, 0)
        visits[lbl] = bump + 1
        new = _node_states(ctx, lbl, pre_states, global_ss, interfs, bump)
        if bump >= ctx.tc.widening_threshold and lbl in cfg.loop_headers:
            new = tuple(_widen_states(ctx, local.get(lbl, ()), new))
            if widened is not None:
                widened.add(lbl)
        if new != local.get(lbl, ()):
            local[lbl] = new
            for nxt in cfg.succs[lbl]:
                j = index[nxt]
                if j not in pending:
                    pending.add(j)
                    heapq.heappush(heap, j)
    local.pop(entry, None)
    return local


def _evaluate(ctx: AnalysisContext, ss: StateSet) -> Dict[str, Verdict]:
    verdicts: Dict[str, Verdict] = {}
    asserts = {lbl: i for lbl, i in ctx.cfg.nodes.items() if isinstance(i, AssertInst)}
    for lbl in sorted(asserts):
        slots = ctx.slots[ctx.cfg.thread_of[lbl]]
        verdicts[str(lbl)] = check_assert(ss.at(lbl), asserts[lbl].cond, slots)
    if ctx.program.postcondition is not None:
        verdicts["final"] = check_final_assert(ctx, ss, ctx.program.postcondition)
    return verdicts


def _fixpoint(ctx: AnalysisContext, passes: list, max_iterations: int) -> AnalysisResult:
    """The rounds' fixpoint with its assertions evaluated."""
    sigma, rounds, effective, widened = _rounds(ctx, passes, max_iterations)
    return AnalysisResult(sigma, _evaluate(ctx, sigma), rounds, effective,
                          frozenset(widened), ctx.cfg, ctx.sb)


def _rounds(ctx: AnalysisContext, passes: list, max_iterations: int) -> tuple:
    """Run every pass, a (thread, interference map) pair, once per round
    until the state set stops changing.  Returns σ, the rounds run, the
    rounds that changed σ and the widened labels.

    Every pass of a round reads the global set σ itself and returns its
    local map.  A pass reads σ only at the interference sources of its map,
    so σ takes the labels that no pass lists as a source right after each
    pass, and the source labels after the round's last pass, in pass order
    and then label order.  The sources do not change during a round, so
    every pass reads σ as it stood when the round began (a Jacobi round),
    and each label's merges come in pass order.  A round holds only its
    passes' states at source labels; in combinations mode that frees each
    combination's other labels before the next combination runs.

    The instruction-wise merge joins and replaces states, so the accumulator
    is not monotone and can in rare cases revisit an earlier value instead
    of settling (interacting merge chains).  Every merge output covers its
    inputs, so any revisited set already covers everything produced since;
    a repeat is therefore a sound stopping point.  A round that changes
    nothing and a revisit are both found by the sets' fingerprints, which
    are equal exactly when the sets are.
    """
    sigma = StateSet(ctx.posets)
    # the labels some pass reads σ at (ctx among them, which labels no state)
    sources = {src for _, interfs in passes for srcs in interfs.values() for src in srcs}
    widened: set = set()
    rounds = 0
    effective = 0
    fingerprint = sigma.fingerprint()
    seen: set = set()
    while True:
        if rounds >= max_iterations:
            raise Divergence(f"no fixpoint after {max_iterations} rounds")
        seen.add(fingerprint)
        rounds += 1
        held = []
        for tname, interfs in passes:
            local = seq_ai(ctx, tname, sigma, interfs, widened)
            for lbl in sorted(local):
                if lbl in sources:
                    held.append((lbl, local[lbl]))
                else:
                    sigma.merge_all(lbl, local[lbl])
        for lbl, states in held:
            sigma.merge_all(lbl, states)
        del held
        new = sigma.fingerprint()
        if new == fingerprint:
            break
        effective += 1
        if new in seen:
            break
        fingerprint = new
    return sigma, rounds, effective, widened


def tmai(program: Program, tc: TransferConfig = TransferConfig(),
         max_iterations: int = 1000, cfg: Optional[Cfg] = None) -> AnalysisResult:
    """Run each thread once per round, each load, rmw and lock against all
    its sources."""
    cfg = cfg or build_cfg(program)
    interfs = interference.get_interfs(program, cfg)
    return _fixpoint(AnalysisContext(program, cfg, tc),
                     [(t.name, interfs[t.name]) for t in program.threads], max_iterations)


def analyze_with_combinations(program: Program, tc: TransferConfig = TransferConfig(),
                              max_iterations: int = 1000, prune: bool = True,
                              cap: int = 4096,
                              cfg: Optional[Cfg] = None) -> AnalysisResult:
    """Run each thread once per round per feasible interference combination,
    with its loads pinned to the chosen sources, and union the results."""
    cfg = cfg or build_cfg(program)
    interfs = interference.get_interfs(program, cfg)
    combos = interference.feasible_combinations(interfs, cfg, prune=prune, cap=cap)
    passes = [(t.name, {**interfs[t.name], **{lbl: (chosen,) for lbl, chosen in combo.items()}})
              for t in program.threads for combo in combos[t.name]]
    return _fixpoint(AnalysisContext(program, cfg, tc), passes, max_iterations)
