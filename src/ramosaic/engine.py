"""Fixpoint driver: a worklist pass over each thread's CFG, repeated over
all threads against the global state set until nothing changes, with
assertions evaluated on the fixpoint.  Each load, rmw and lock reads every
source that the analysis's one interference map, `AnalysisContext.interfs`,
lists for it, after its own thread's state (ctx).

Only the heads iterate: the labels from which some other thread's
interference source is reachable.  The rounds run every thread's pass over
its heads until the state set repeats; then every thread runs one last
pass, which computes its tails, `AnalysisContext.tails`, once, against the
converged set.  No tail comes before a head, so the tails change nothing
the rounds compute.  Every thread has a tail, its exit, and each tail
holds a fresh merge of its tuple in that pass.  A thread with no head runs
no pass in the other rounds.

Past each thread's boundary (`AnalysisContext.boundaries`), the tail after
which no access and no loop is reachable, the states keep only the memory
slots a later check reads and no poset, as an exact set of live tuples;
`--dump-states` prints each dropped poset and slot as `_`.  The result
records the full states each boundary computed (`AnalysisResult.boundaries`)
for `oracle.check_soundness`.

Rounds work only where their inputs changed, as in demand-driven
incremental computation (Hammer et al., "Adapton", PLDI'14): a node whose
pre-states and reads of the global set are unchanged takes its merged
states from `AnalysisContext.node_memo`, which keeps per label and bump the
node's last pre-states, the states tuples the global set held at its
interference sources, and its merged states before widening.  The round
that only confirms the heads' fixpoint, and the heads of the last pass,
run as memo hits, and that round's merges change no bucket.  A tail, which only the last pass transfers, skips the memo.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, NamedTuple, Optional

from . import posets
from .intervals import val_widen
from .litmus import AssertInst, Cfg, Label, Program, build_cfg
from .states import AbstractState, StateBucket, StateSet, _mo_join
from .transfer import (AnalysisContext, TransferConfig, Verdict, check_assert,
                       check_final_assert, transfer_node)


class Divergence(Exception):
    pass


class Boundary(NamedTuple):
    """A projected thread's boundary: its label, the memory keys its states
    keep, and the full states it recorded (`AnalysisContext.boundaries`)."""

    label: Label
    live: frozenset
    states: tuple


@dataclass
class AnalysisResult:
    states: StateSet
    verdicts: Dict[str, Verdict]
    iterations_total: int
    iterations_effective: int
    widened: frozenset
    cfg: Cfg
    sb: posets.SbIndex
    boundaries: Dict[str, Boundary] = field(default_factory=dict)  # by thread

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
                 global_ss: StateSet, bump: int) -> tuple:
    """The merged states of one visit of `lbl`, before widening, taken from
    the memo when the inputs are unchanged: the transfer is a function of
    the pre-states, the key, the context and the global states at the
    label's interference sources, which are all it reads of the global
    set.  A tail is transferred once, in the last pass, so it neither reads
    nor fills the memo."""
    key = (lbl, bump)
    head = lbl not in ctx.tails
    reads = tuple(map(global_ss.at, ctx.interfs.get(lbl, ()))) if head else None
    entry = ctx.node_memo.get(key)
    # a predecessor that was a memo hit passes on the stored tuple itself,
    # so an unchanged node's pre-states are mostly found by identity
    if (entry is not None and (entry[0] is pre_states or entry[0] == pre_states)
            and entry[1] == reads):
        return entry[2]
    bucket = StateBucket(ctx.posets)
    for s in transfer_node(ctx, lbl, pre_states, global_ss, bump=bump):
        bucket.merge(s)
    states = bucket.states()
    if head:
        ctx.node_memo[key] = (pre_states, reads, states)
    return states


def seq_ai(ctx: AnalysisContext, tname: str, global_ss: StateSet,
           heads_only: bool = False) -> Dict[Label, tuple]:
    """Worklist pass over one thread's CFG in reverse post-order, reading
    interference sources from the global state set; a label of
    `ctx.pass_through` takes its predecessor's tuple itself, and the loop
    headers it widens join `ctx.widened`.  With `heads_only` the pass
    skips the labels of `ctx.tails`, which no head follows, so the heads'
    visits, and their results, are those of a pass over all labels."""
    cfg = ctx.cfg
    rpo = cfg.rpo[tname]
    index = ctx.rpo_index
    pass_through = ctx.pass_through
    skip = ctx.tails if heads_only else ()
    entry = rpo[0]
    local: Dict[Label, tuple] = {entry: (ctx.initial_states[tname],)}
    visits: Dict[Label, int] = {}
    # the RPO positions of the pending labels, popped in order: a heap, and
    # a set for membership; the first worklist is sorted, so a heap already
    heap = list(range(1, len(rpo)))
    pending = set(heap)
    while heap:
        i = heapq.heappop(heap)
        pending.discard(i)
        lbl = rpo[i]
        if lbl in skip:
            continue
        preds = cfg.preds[lbl]
        if len(preds) == 1:
            pre_states = local.get(preds[0], ())
        else:
            pre_states = tuple([s for p in preds for s in local.get(p, ())])
        if lbl in pass_through:
            new = pre_states
        else:
            bump = visits.get(lbl, 0)
            visits[lbl] = bump + 1
            new = _node_states(ctx, lbl, pre_states, global_ss, bump)
            if bump >= ctx.tc.widening_threshold and lbl in cfg.loop_headers:
                new = tuple(_widen_states(ctx, local.get(lbl, ()), new))
                ctx.widened.add(lbl)
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


def _rounds(ctx: AnalysisContext, max_iterations: int) -> tuple:
    """Run one pass per thread over its heads once per round until the
    state set stops changing, then one last pass for every thread over all
    its labels.  Returns σ, the rounds run and the rounds that changed σ;
    the widened labels are left in `ctx.widened`.

    Every pass of a round reads the global set σ itself and returns its
    local map, and σ takes the local maps after the round's last pass, in
    pass order and then label order.  So every pass reads σ as it stood
    when the round began (a Jacobi round), and since a label belongs to
    one thread, its merges come from one pass per round.

    The rounds skip `ctx.tails`: no other thread reads what a tail
    computes, and no head follows one, so leaving them out changes neither
    the heads' states nor the reads of σ nor the stop test.  Once σ has
    converged, the last pass computes each tail once, against that σ: its
    heads read what they read in the round before and are node-memo hits,
    and it merges only the tails, each thread's right after its pass,
    since no pass reads a tail.  No tail holds a state before then, so
    each holds a fresh merge of its tuple in the last pass, and the pass
    changes σ exactly when it merges a state.  It counts as a round,
    against `max_iterations` too, and as an effective one when it merges a
    state; it takes no fingerprint.

    A node whose inputs are unchanged is a hit of the node memo
    (`_node_states`), so a pass whose reads of σ are those of its
    thread's last pass computes nothing.  A state a bucket holds leaves
    the bucket, its `states()` tuple and frozenset included, as it is
    (`StateBucket.merge`).

    The instruction-wise merge joins and replaces states, so the accumulator
    is not monotone and can in rare cases revisit an earlier value instead
    of settling (interacting merge chains).  Every merge output covers its
    inputs, so any revisited set already covers everything produced since;
    a repeat is therefore a sound stopping point.  A head round that
    changes nothing and a revisit are both found by the sets'
    fingerprints, which are equal exactly when the sets are.
    """
    sigma = StateSet(ctx.posets)
    rounds = 0
    effective = 0
    fingerprint = sigma.fingerprint()
    seen: set = set()
    # a thread whose entry is a tail has no head
    with_heads = [t.name for t in ctx.program.threads
                  if ctx.cfg.entries[t.name] not in ctx.tails]
    while True:
        if rounds >= max_iterations:
            raise Divergence(f"no fixpoint after {max_iterations} rounds")
        seen.add(fingerprint)
        rounds += 1
        local_maps = [seq_ai(ctx, t, sigma, heads_only=True) for t in with_heads]
        for local in local_maps:
            for lbl in sorted(local):
                sigma.merge_all(lbl, local[lbl])
        del local_maps
        new = sigma.fingerprint()
        if new == fingerprint:
            break
        effective += 1
        if new in seen:
            break
        fingerprint = new
    if rounds >= max_iterations:
        raise Divergence(f"no fixpoint after {max_iterations} rounds")
    rounds += 1
    merged = False
    for t in ctx.program.threads:
        # a pass's map holds no entry and no empty tuple
        local = seq_ai(ctx, t.name, sigma)
        for lbl in sorted(ctx.tails.intersection(local)):
            sigma.merge_all(lbl, local[lbl])
            merged = True
    effective += merged
    return sigma, rounds, effective


def tmai(program: Program, tc: TransferConfig = TransferConfig(),
         max_iterations: int = 1000, cfg: Optional[Cfg] = None) -> AnalysisResult:
    """Run each thread's heads once per round and then its tails once, each
    load, rmw and lock against all its sources."""
    cfg = cfg or build_cfg(program)
    ctx = AnalysisContext(program, cfg, tc)
    sigma, rounds, effective = _rounds(ctx, max_iterations)
    boundaries = {}
    for lbl, layout in ctx.boundaries.items():
        live = frozenset(map(layout.mem_keys.__getitem__, layout.live))
        boundaries[cfg.thread_of[lbl]] = Boundary(lbl, live, ctx.boundary_states.get(lbl, ()))
    return AnalysisResult(sigma, _evaluate(ctx, sigma), rounds, effective,
                          frozenset(ctx.widened), cfg, ctx.sb, boundaries)
