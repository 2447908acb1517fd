"""Fixpoint driver: per-thread worklist analysis repeated over all threads
against the global state set until nothing changes, with assertions evaluated
on the fixpoint.  A combination-based variant runs each thread once per
feasible interference combination instead of per-load.

Rounds reuse node results.  `AnalysisContext.node_memo` keeps, per label,
bump and interference sources, the pre-states of the node's last visit,
the (label, states) pairs its transfer read from the global set, and its
merged states before widening.  A visit whose pre-states are equal and
whose recorded reads give equal tuples now takes the merged states without
running the transfer, as in demand-driven incremental computation
(Hammer et al., "Adapton", PLDI'14).  The round that only confirms the
fixpoint therefore runs no transfer.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, Optional

from . import interference, intervals, posets
from .intervals import val_widen
from .litmus import AssertInst, Cfg, Label, Nop, Program, build_cfg
from .states import AbstractState, StateBucket, StateSet
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


def _collapse(table: posets.PosetTable, states) -> Optional[AbstractState]:
    """Fold a state list into a single state (variable-wise poset join,
    memory hull); used only when widening at loop headers."""
    if not states:
        return None
    cur = states[0]
    for s in states[1:]:
        cur = AbstractState(tuple(map(table.join, cur.mo, s.mo)),
                            tuple(map(intervals.val_join, cur.mem, s.mem)), cur.layout)
    return cur


def _widen_states(table: posets.PosetTable, old_states, new_states) -> list:
    old = _collapse(table, old_states)
    new = _collapse(table, new_states)
    if old is None:
        return list(new_states)
    if new is None:
        return list(old_states)
    mo = tuple([table.intern(posets.widen(table.posets[p], table.posets[q]))
                for p, q in zip(old.mo, new.mo)])
    return [AbstractState(mo, tuple(map(val_widen, old.mem, new.mem)), old.layout)]


class _RecordedReads:
    """The global state set as `transfer_node` sees it: `.at()` only, with
    every read kept as a (label, states) pair."""

    __slots__ = ("_ss", "reads")

    def __init__(self, ss: StateSet):
        self._ss = ss
        self.reads: list = []

    def at(self, label: Label) -> tuple:
        states = self._ss.at(label)
        self.reads.append((label, states))
        return states


def _reads_unchanged(ss: StateSet, reads: list) -> bool:
    for label, old in reads:
        now = ss.at(label)
        if now is not old and now != old:
            return False
    return True


def _node_states(ctx: AnalysisContext, lbl: Label, pre_states: tuple,
                 global_ss: StateSet, interfs: Dict[Label, tuple], bump: int) -> tuple:
    """The merged states of one visit of `lbl`, before widening, taken from
    the memo when the inputs are unchanged: the transfer is a function of
    the pre-states, the global reads, the key and the context alone.

    A nop or an assert with one predecessor passes that predecessor's
    states tuple on as it is: the tuple is a sorted normal form already,
    which a merge would rebuild unchanged."""
    cfg = ctx.cfg
    if len(cfg.preds[lbl]) == 1 and isinstance(cfg.nodes[lbl], (Nop, AssertInst)):
        return pre_states
    key = (lbl, bump, interfs.get(lbl))
    entry = ctx.node_memo.get(key)
    if entry is not None and entry[0] == pre_states and _reads_unchanged(global_ss, entry[1]):
        return entry[2]
    reads = _RecordedReads(global_ss)
    bucket = StateBucket(ctx.posets)
    for s in transfer_node(ctx, lbl, pre_states, reads, interfs, bump=bump):
        bucket.merge(s)
    states = bucket.states()
    ctx.node_memo[key] = (pre_states, reads.reads, states)
    return states


def seq_ai(ctx: AnalysisContext, tname: str, global_ss: StateSet,
           interfs: Dict[Label, tuple], widened: Optional[set] = None) -> Dict[Label, tuple]:
    """Worklist pass over one thread's CFG in reverse post-order, reading
    interference sources from the global state set."""
    cfg = ctx.cfg
    rpo = cfg.rpo[tname]
    index = {lbl: i for i, lbl in enumerate(rpo)}
    entry = cfg.entries[tname]
    local: Dict[Label, tuple] = {entry: (ctx.initial_state(tname),)}
    visits: Dict[Label, int] = {}
    # the pending labels, popped in RPO order: a heap of RPO indices and
    # a set for membership
    pending = set(rpo) - {entry}
    heap = sorted(index[lbl] for lbl in pending)
    while heap:
        lbl = rpo[heapq.heappop(heap)]
        pending.discard(lbl)
        preds = cfg.preds[lbl]
        if len(preds) == 1:
            pre_states = local.get(preds[0], ())
        else:
            pre_states = tuple([s for p in preds for s in local.get(p, ())])
        visits[lbl] = visits.get(lbl, 0) + 1
        bump = visits[lbl] - 1
        new = _node_states(ctx, lbl, pre_states, global_ss, interfs, bump)
        if lbl in cfg.loop_headers and visits[lbl] > ctx.tc.widening_threshold:
            new = tuple(_widen_states(ctx.posets, local.get(lbl, ()), new))
            if widened is not None:
                widened.add(lbl)
        if new != local.get(lbl, ()):
            local[lbl] = new
            for nxt in cfg.succs[lbl]:
                if nxt not in pending:
                    pending.add(nxt)
                    heapq.heappush(heap, index[nxt])
    local.pop(entry, None)
    return local


def _evaluate(ctx: AnalysisContext, ss: StateSet) -> Dict[str, Verdict]:
    verdicts: Dict[str, Verdict] = {}
    for lbl, instr in sorted(ctx.cfg.nodes.items()):
        if isinstance(instr, AssertInst):
            env = ctx.envs[ctx.cfg.thread_of[lbl]]
            verdicts[str(lbl)] = check_assert(ss.at(lbl), instr.cond, env)
    if ctx.program.postcondition is not None:
        verdicts["final"] = check_final_assert(ctx, ss, ctx.program.postcondition)
    return verdicts


def _fixpoint(ctx: AnalysisContext, run_round, max_iterations: int) -> AnalysisResult:
    """Accumulate per-thread results until the state set stops changing.

    The instruction-wise merge joins and replaces states, so the accumulator
    is not monotone and can in rare cases revisit an earlier value instead
    of settling (interacting merge chains).  Every merge output covers its
    inputs, so any revisited set already covers everything produced since;
    a repeat is therefore a sound stopping point.  A round that changes
    nothing and a revisit are both found by the sets' fingerprints, which
    are equal exactly when the sets are.
    """
    sigma = StateSet(ctx.posets)
    widened: set = set()
    rounds = 0
    effective = 0
    fingerprint = sigma.fingerprint()
    seen: set = set()
    while True:
        if rounds >= max_iterations:
            raise Divergence(f"no fixpoint after {max_iterations} rounds")
        snapshot = sigma.copy()
        seen.add(fingerprint)
        rounds += 1
        run_round(sigma, snapshot, widened)
        new = sigma.fingerprint()
        if new == fingerprint:
            break
        effective += 1
        if new in seen:
            break
        fingerprint = new
    return AnalysisResult(sigma, _evaluate(ctx, sigma), rounds, effective,
                          frozenset(widened), ctx.cfg, ctx.sb)


def tmai(program: Program, tc: TransferConfig = TransferConfig(),
         max_iterations: int = 1000, cfg: Optional[Cfg] = None) -> AnalysisResult:
    cfg = cfg or build_cfg(program)
    ctx = AnalysisContext(program, cfg, tc)
    interfs = interference.get_interfs(program, cfg)

    def run_round(sigma, snapshot, widened):
        for t in program.threads:
            local = seq_ai(ctx, t.name, snapshot, interfs[t.name], widened)
            for lbl in sorted(local):
                sigma.merge_all(lbl, local[lbl])

    return _fixpoint(ctx, run_round, max_iterations)


def analyze_with_combinations(program: Program, tc: TransferConfig = TransferConfig(),
                              max_iterations: int = 1000, prune: bool = True,
                              cap: int = 4096,
                              cfg: Optional[Cfg] = None) -> AnalysisResult:
    """Run each thread once per feasible interference combination, with its
    loads pinned to the chosen sources, and union the results."""
    cfg = cfg or build_cfg(program)
    ctx = AnalysisContext(program, cfg, tc)
    interfs = interference.get_interfs(program, cfg)
    combos = interference.feasible_combinations(interfs, cfg, prune=prune, cap=cap)

    def run_round(sigma, snapshot, widened):
        for t in program.threads:
            base = interfs[t.name]
            for combo in combos[t.name]:
                pinned = dict(base)
                for lbl, chosen in combo.items():
                    pinned[lbl] = (chosen,)
                local = seq_ai(ctx, t.name, snapshot, pinned, widened)
                for lbl in sorted(local):
                    sigma.merge_all(lbl, local[lbl])

    return _fixpoint(ctx, run_round, max_iterations)
