"""Transfer functions for store, load, rmw, lock/unlock, assign, assume and
assertion checking, plus interference application.

Applying an interference appends the interfering write to the target's poset
for that variable, meets all per-variable posets, and combines memories
variable by variable: when one side's poset strictly extends the other's,
that side has observed every store the other has (and more), so its value for
the variable is the current one; incomparable or equal views fall back to the
interval hull.  The loaded variable always takes the source's value.
`apply_interference` does this for one target state and all the states at
one source label in a batch: the target's append, and the list of slots
whose target poset is not top and so need a meet, each with its row of the
poset table's meet memo, are computed once, and each meet is a lookup of
the source's poset id in that row; the memo holds every meet under both
operand orders.

Memories hold ids of the analysis's `intervals.ValueTable`: expressions read
the intervals at the slots they name, and the transfers intern only what they
write.  The transfers compile each condition and expression once per
analysis (`AnalysisContext.compiled`, `intervals.compile_cond` and
`compile_expr`), the assertion checks each negated condition once per
site and each slot shape of the postcondition's conjuncts once per check,
so components that differ only in the registers they name share one
compiled conjunct; the compiled comparisons and operators memoize their
results on value ids.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import attrgetter, itemgetter
from typing import Dict, Optional

from . import intervals, posets
from .intervals import compile_cond, compile_expr, exclude_value, singleton, val_meet
from .litmus import (AssertInst, Assign, Assume, BoolLit, Cas, Cfg, Fadd,
                     Label, Lit, LoadInst, LockInst, Name, Nop, Or, Program,
                     Store, UnlockInst, expr_names, negate)
from .interference import get_interfs
from .posets import TOP_ID, Event, SbIndex
from .states import AbstractState, Layout, StateSet


@dataclass(frozen=True)
class TransferConfig:
    abstract_mo: bool = True
    rmw_critical: bool = True
    widening_threshold: int = 3
    # project each thread's states past its boundary (AnalysisContext)
    project_tails: bool = True

    def __post_init__(self):
        if self.widening_threshold < 1:
            raise ValueError("widening threshold must be >= 1")


@dataclass(frozen=True)
class Verdict:
    proved: bool
    witnesses: tuple = ()

    def __str__(self) -> str:
        return "Proved" if self.proved else "PossiblyViolated"


class AnalysisContext:
    """Per-program analysis data: CFG, sb index, events, the interference
    map, the slot layouts of states, the labels widened so far, and the
    analysis's caches: the poset table and the value table that every
    transfer and merge builds its posets and intervals through, and the
    node memo of `engine.seq_ai`.

    `interfs[label]` lists, for each load, rmw and lock, the other threads'
    labels it may read from (`interference.get_interfs` without ctx, which
    every read tries first); their σ tuples key the node memo.  `tails`
    holds the labels from which no interference source is reachable:
    no other thread reads what they compute, and a pass over the other
    labels, the heads, skips them.
    A tail is transferred once, in the last pass, so only heads enter the
    memo.  `pass_through` holds the nops and asserts with one predecessor,
    whose states are that predecessor's tuple as it is: a sorted normal
    form already, which a merge would rebuild unchanged.
    `compiled(lbl)` gives the condition or expressions of the instruction at
    `lbl`, compiled on its first use and kept for the analysis.  The layout
    of the shared variables and mutexes is built once per analysis: the
    sorted poset keys and their slots, the sorted shared variables as the
    first memory slots, and their initial values.  Each thread's layout
    (`layouts[thread]`) adds its sorted registers to that prefix,
    `slots[thread]` maps each identifier of its expressions (a shared
    variable or a register) to its memory slot, and
    `initial_states[thread]` is its state at entry.  So one tuple,
    `shared_slots`, gives (memory slot, poset slot) per shared variable for
    the states of every thread, and `read_slots[k]` splits it for a read of
    the variable or mutex at poset slot k, for `apply_interference`.

    With `tc.project_tails`, `boundaries` maps each thread's boundary, if
    it has one, to the projected layout of its output states.  The boundary
    is the first tail outside loops after which no access (load, store,
    rmw, lock or unlock) and no loop is reachable in its thread, and which
    every label after it comes through; not a label of `pass_through`,
    which computes nothing.  The boundary's states, and so those of every
    label after it, keep only the live memory slots, all registers: the
    register the boundary writes, the registers that it, when it is not an
    access, or a later instruction names (an expression names only its
    thread's registers, `litmus._check_semantics`), and the thread's
    registers that the postcondition names; they drop every poset.  No
    other thread reads them, and no later instruction reads a poset or a
    dropped slot.
    `boundary_states[label]` holds the full states of the boundary's last
    visit, those it projected or, at a boundary load that computes none
    (`transfer_node`), its pre-states: the states that
    `oracle.check_soundness` reads in place of the projected ones.  The
    register the boundary writes is live since a load's pre-states hold its
    value from before the write.
    """

    def __init__(self, program: Program, cfg: Cfg, tc: TransferConfig):
        self.program = program
        self.cfg = cfg
        self.tc = tc
        self.sb = SbIndex.from_cfg(cfg)
        self.registers = {t.name: tuple(program.register_key(t.name, r)
                                        for r in program.thread_registers(t.name))
                          for t in program.threads}
        self.events: Dict[Label, Event] = {
            lbl: Event(lbl.name, lbl.instance, cfg.thread_of[lbl], kind, loc)
            for lbl, (kind, loc) in cfg.accesses.items() if kind != "load"}
        # the sources but ctx, which every read tries first (`_load_bases`)
        self.interfs: Dict[Label, tuple] = {
            lbl: srcs[1:] for per_thread in get_interfs(program, cfg).values()
            for lbl, srcs in per_thread.items()}
        self.pass_through = frozenset(
            lbl for lbl, instr in cfg.nodes.items()
            if len(cfg.preds[lbl]) == 1 and isinstance(instr, (Nop, AssertInst)))
        self.posets = posets.PosetTable(self.sb, tc.abstract_mo, tc.rmw_critical)
        self.values = intervals.ValueTable()
        # the shared prefix and its initial values, once; registers start at 0
        shared = program.shared_names()
        prefix = Layout((*shared, *program.mutexes), shared, self.posets, self.values)
        init = dict(program.shared)
        init = tuple([self.values.intern(singleton(init[v])) for v in prefix.mem_keys])
        zero = self.values.intern(singleton(0))
        top = (TOP_ID,) * len(prefix.mo_keys)
        self.layouts: Dict[str, Layout] = {}
        self.slots: Dict[str, dict] = {}
        self.initial_states: Dict[str, AbstractState] = {}
        for t, regs in self.registers.items():
            layout = self.layouts[t] = prefix.with_registers(regs)
            slots = self.slots[t] = prefix.mem_slot.copy()
            slots.update(zip(program.thread_registers(t), map(layout.mem_slot.__getitem__, regs)))
            self.initial_states[t] = AbstractState(top, (*init, *(zero,) * len(regs)), layout)
        # the same pairs in every thread's layout
        self.shared_slots = tuple((i, prefix.mo_slot[v]) for i, v in enumerate(prefix.mem_keys))
        # per poset slot read by interference: the memory slot that takes
        # the source's value (None for a mutex, which has none) and the
        # shared_slots pairs of the other shared variables
        mem_of = {j: i for i, j in self.shared_slots}
        self.read_slots = tuple((mem_of.get(k), tuple(ij for ij in self.shared_slots if ij[1] != k))
                                for k in range(len(top)))
        # the heads: the labels from which some interference source is
        # reachable, the sources included, found by one walk back from them;
        # the tails are the rest, and no tail precedes a head
        heads = {src for srcs in self.interfs.values() for src in srcs}
        stack = list(heads)
        while stack:
            for pred in cfg.preds[stack.pop()]:
                if pred not in heads:
                    heads.add(pred)
                    stack.append(pred)
        self.tails = frozenset(cfg.nodes.keys() - heads)
        # each label's position in its thread's reverse post-order
        self.rpo_index = {lbl: i for rpo in cfg.rpo.values() for i, lbl in enumerate(rpo)}
        self.boundaries = self._boundaries() if tc.project_tails else {}
        self.boundary_states: Dict[Label, tuple] = {}
        # (label, bump) -> (pre-states, global reads, merged states) of the
        # node's latest visit; see engine.seq_ai
        self.node_memo: dict = {}
        # the loop headers that engine.seq_ai has widened
        self.widened: set = set()
        self._compiled: dict = {}
        # write label -> (its states, the value ids they hold in its
        # variable's slot), for `_load_exists`: a bucket gives the identical
        # states tuple until it changes
        self.held_values: dict = {}

    def _boundaries(self) -> Dict[Label, Layout]:
        """Each thread's boundary, if it has one, with its projected layout."""
        cfg, program, post = self.cfg, self.program, self.program.postcondition_names
        nodes, preds, tails, pass_through = cfg.nodes, cfg.preds, self.tails, self.pass_through
        index = self.rpo_index
        accesses, loop_exits = cfg.accesses.keys(), set(cfg.back_edges.values())
        out = {}
        for tname, rpo in cfg.rpo.items():
            # every label that a boundary does not reach reaches it, and so
            # precedes it in reverse post-order, a loop's body before its exit:
            # no label from the last access or loop exit on reaches either
            start = len(rpo) - 1
            while start > 1 and rpo[start] not in accesses and rpo[start] not in loop_exits:
                start -= 1
            # from there on every edge leads forward in reverse post-order, so
            # a label is a boundary iff no edge leads over it, from before it
            # to after it: then every path to the exit passes it, and the
            # labels after it are the ones it reaches, whose predecessors are
            # it or among them.  One backward scan keeps the first such tail.
            found, low = None, len(rpo)
            for i in range(len(rpo) - 1, start - 1, -1):
                lbl = rpo[i]
                if low >= i and lbl in tails and lbl not in pass_through:
                    found = i
                for p in preds[lbl]:
                    if index[p] < low:
                        low = index[p]
            if found is None:
                continue
            lbl = rpo[found]
            names = set(post.intersection(program.thread_registers(tname)))
            reg = getattr(nodes[lbl], "reg", None)
            if reg is not None:
                names.add(reg)
            for a in rpo[found:]:
                if nodes[a].__class__ in _NAMING:
                    names.update(_names(nodes[a]))
            out[lbl] = self.layouts[tname].projected(map(self.slots[tname].__getitem__, names))
        return out

    def compiled(self, lbl: Label):
        """The compiled condition of an assume, the compiled value of a
        store or assign, the compiled addend of an fadd, or the compiled
        (expected, new) pair of a cas at `lbl`."""
        out = self._compiled.get(lbl)
        if out is None:
            instr = self.cfg.nodes[lbl]
            slots = self.slots[self.cfg.thread_of[lbl]]
            if isinstance(instr, Assume):
                out = compile_cond(instr.cond, slots, self.values)
            elif isinstance(instr, Cas):
                out = (compile_expr(instr.expected, slots, self.values),
                       compile_expr(instr.new, slots, self.values))
            else:
                out = compile_expr(instr.addend if isinstance(instr, Fadd) else instr.value,
                                   slots, self.values)
            self._compiled[lbl] = out
        return out

    def event_at(self, lbl: Label, bump: int = 0) -> Event:
        ev = self.events[lbl]
        if bump:
            ev = Event(ev.label, ev.instance + bump, ev.thread, ev.kind, ev.var)
        return ev


# the instructions other than accesses that name identifiers
_NAMING = frozenset({Assign, Assume, AssertInst})


def _names(instr) -> set:
    """The identifiers that an instruction of `_NAMING` names."""
    if isinstance(instr, Assign):
        return {instr.reg, *expr_names(instr.value)}
    return expr_names(instr.cond)


def _met_slots(table, tmo: tuple, k: int, src_event: Event) -> Optional[list]:
    """For a read of `src_event` at poset slot k by a state with posets
    `tmo`: (slot, target poset, the meet memo's row of it) for every slot
    that needs a meet, the appended slot k and those not top (the meet of
    top and p is p); None when the append gives bottom."""
    appended = table.append(tmo[k], src_event)
    if not appended:  # bottom
        return None
    meets = table.meets
    met_slots = []
    for i, pt in enumerate(tmo):
        if i == k:
            pt = appended
        elif pt == TOP_ID:
            continue
        met_slots.append((i, pt, meets[pt]))
    return met_slots


def apply_interference(ctx: AnalysisContext, target: AbstractState, sources,
                       src_event: Event, reg: Optional[int] = None,
                       cas: bool = False) -> list:
    """The target state after reading from the write `src_event` of each
    source state in turn, in order, with the sources whose views are
    inconsistent with the target's left out.  With `reg`, a memory slot of
    the target, the loaded value is also written there: a load's register.
    With `cas`, `src_event` is a cas, and a source state published it only
    when its poset holds the event or a loop-bumped instance of it; a failed
    cas leaves the poset as it was, so its states give nothing.  All states
    hold ids of `ctx.posets` and `ctx.values`.

    The target's part is done once for the batch (`_met_slots`)."""
    table = ctx.posets
    k = target.layout.mo_slot[src_event.var]
    tmo = target.mo
    met_slots = _met_slots(table, tmo, k, src_event)
    if met_slots is None:
        return []
    loaded_slot, views = ctx.read_slots[k]
    tmem = target.mem
    meet, published = table.meet, table.published
    values = ctx.values
    joins = values.joins
    layout = target.layout
    out = []
    for source in sources:
        smo = source.mo
        if cas and not published(smo[k], src_event):
            continue
        new_mo = list(smo)
        for i, pt, row in met_slots:
            ps = smo[i]
            met = row.get(ps)
            if met is None:
                met = meet(pt, ps)
            if not met:
                break
            new_mo[i] = met
        else:
            # Registers keep the target's values; shared variables go by the
            # views.  With every meet non-bottom, the source's poset is
            # `less` than the target's exactly when it equals their meet,
            # and the other way round; one poset strictly below the other is
            # `less` one way only, and the same poset on both sides is
            # neither view ahead.  Equal posets and equal intervals have
            # equal ids, so the tests compare ids and a hull is a lookup in
            # the value table's join memo.
            smem = source.mem
            new_mem = list(tmem)
            for i, j in views:
                sv = smem[i]
                tv = tmem[i]
                if tv != sv:
                    met = new_mo[j]
                    src_below = met == smo[j]
                    if src_below != (met == tmo[j]):
                        if src_below:  # the source's view is ahead
                            new_mem[i] = sv
                        continue  # otherwise the target's is
                    joined = joins.get((tv, sv))
                    new_mem[i] = values.join(tv, sv) if joined is None else joined
            if loaded_slot is not None:
                new_mem[loaded_slot] = smem[loaded_slot]
                if reg is not None:
                    new_mem[reg] = smem[loaded_slot]
            out.append(AbstractState(tuple(new_mo), tuple(new_mem), layout))
    return out


def _load_bases(ctx, s, lbl, global_ss, var, reg=None) -> list:
    """The states after the read of `var`, a variable or a mutex, at `lbl`,
    per interference source in order: s itself for ctx, and s after each
    source state's write otherwise, one kernel call per source label.  A
    variable's value read is in its memory slot; with `reg`, a memory slot,
    each base holds it there too."""
    out = [s if reg is None else s.slot_update(mem=((reg, s.mem[s.layout.mem_slot[var]]),))]
    for src in ctx.interfs[lbl]:
        sources = global_ss.at(src)
        if sources:
            out += apply_interference(ctx, s, sources, ctx.events[src], reg,
                                      isinstance(ctx.cfg.nodes[src], Cas))
    return out


def transfer_node(ctx: AnalysisContext, lbl: Label, pre_states,
                  global_ss: StateSet, bump: int = 0) -> list:
    """The states after `lbl` from its pre-states.  At a boundary they are
    projected, and the full states they come from are kept in
    `ctx.boundary_states`.  A boundary load computes no full state, since
    its live slots are registers: it gives each projected state once
    (`_load_exists`), and keeps its pre-states."""
    projected = ctx.boundaries.get(lbl)
    if projected is None:
        return _transfer(ctx, lbl, pre_states, global_ss, bump)
    instr = ctx.cfg.nodes[lbl]
    if isinstance(instr, LoadInst):
        ctx.boundary_states[lbl] = tuple(pre_states)
        return _load_exists(ctx, lbl, instr, projected, pre_states, global_ss)
    full = ctx.boundary_states[lbl] = tuple(_transfer(ctx, lbl, pre_states, global_ss, bump))
    return [projected.project(s.mem) for s in full]


def _load_exists(ctx, lbl, instr, projected: Layout, pre_states, global_ss) -> list:
    """The projected states after a boundary load.  Such a state is a
    pre-state's live registers with the loaded value in the load's register,
    so for each pair of the pre-state's other live values and a loaded value
    the first source state that the pre-state may read from, its meets all
    non-bottom, gives it, and the others are not tried.  The values each
    source label's states hold are gathered once per analysis and states
    tuple (`held_values`), and a label none of whose values is new for the
    pre-state's other live values is skipped, its target part
    (`_met_slots`) included."""
    table = ctx.posets
    meet, published = table.meet, table.published
    reg = ctx.slots[ctx.cfg.thread_of[lbl]][instr.reg]
    j = projected.mem_slot[instr.var]
    k = projected.mo_slot[instr.var]
    # the live slots, all registers, but the loaded one key the values
    # found so far
    rest = tuple(i for i in projected.live if i != reg)
    # ctx, the first source, reads the pre-state's own value
    sources = []
    for src in ctx.interfs[lbl]:
        states = global_ss.at(src)
        if states:
            held = ctx.held_values.get(src)
            if held is None or held[0] is not states:
                held = ctx.held_values[src] = (states, {source.mem[j] for source in states})
            sources.append((ctx.events[src], states, isinstance(ctx.cfg.nodes[src], Cas),
                            held[1]))
    empty = [None] * len(projected.mem_keys)
    found: dict = {}
    out = []
    for s in pre_states:
        mem = s.mem
        done = found.setdefault(tuple([mem[i] for i in rest]), set())
        values = [] if mem[j] in done else [mem[j]]
        done.add(mem[j])
        for event, states, cas, held in sources:
            if held <= done:
                continue
            met_slots = _met_slots(table, s.mo, k, event)
            if met_slots is None:
                continue
            for source in states:
                value = source.mem[j]
                if value in done:
                    continue
                smo = source.mo
                if cas and not published(smo[k], event):
                    continue
                for i, pt, row in met_slots:
                    met = row.get(smo[i])
                    if met is None:
                        met = meet(pt, smo[i])
                    if not met:
                        break
                else:
                    done.add(value)
                    values.append(value)
        for value in values:
            new = empty[:]
            for i in rest:
                new[i] = mem[i]
            new[reg] = value
            out.append(AbstractState(projected.dropped_mo, tuple(new), projected))
    return out


def _transfer(ctx: AnalysisContext, lbl: Label, pre_states, global_ss: StateSet,
              bump: int) -> list:
    instr = ctx.cfg.nodes[lbl]
    tname = ctx.cfg.thread_of[lbl]
    out: list = []

    if isinstance(instr, (Nop, AssertInst)):
        return list(pre_states)

    slots = ctx.slots[tname]
    values = ctx.values.values

    if isinstance(instr, Assume):
        cond = ctx.compiled(lbl)
        for s in pre_states:
            m = cond(s.mem)
            if m is not None:
                out.append(AbstractState(s.mo, m, s.layout))
        return out

    if isinstance(instr, Assign):
        expr, k = ctx.compiled(lbl), slots[instr.reg]
        for s in pre_states:
            val = expr(s.mem)
            if values[val].is_empty:
                continue
            out.append(s.slot_update(mem=((k, val),)))
        return out

    if isinstance(instr, Store):
        expr, ev = ctx.compiled(lbl), ctx.event_at(lbl, bump)
        i, j = ctx.layouts[tname].mo_slot[instr.var], slots[instr.var]
        for s in pre_states:
            p = ctx.posets.append(s.mo[i], ev)
            if not p:  # bottom
                continue
            val = expr(s.mem)
            if values[val].is_empty:
                continue
            out.append(s.slot_update(mo=((i, p),), mem=((j, val),)))
        return out

    if isinstance(instr, LoadInst):
        k = slots[instr.reg]
        for s in pre_states:
            out.extend(_load_bases(ctx, s, lbl, global_ss, instr.var, k))
        return out

    if isinstance(instr, (Cas, Fadd)):
        return _transfer_rmw(ctx, lbl, instr, pre_states, global_ss, bump)

    if isinstance(instr, LockInst):
        return _transfer_lock(ctx, lbl, instr, pre_states, global_ss, bump)

    if isinstance(instr, UnlockInst):
        return _transfer_unlock(ctx, lbl, instr, pre_states, bump)

    raise TypeError(instr)


def _transfer_rmw(ctx, lbl, instr, pre_states, global_ss, bump) -> list:
    tname = ctx.cfg.thread_of[lbl]
    slots = ctx.slots[tname]
    values = ctx.values.values
    intern = ctx.values.intern
    compiled = ctx.compiled(lbl)
    var = instr.var
    i = ctx.layouts[tname].mo_slot[var]
    j = slots[var]
    k = slots[instr.reg]
    ev = ctx.event_at(lbl, bump)
    out: list = []
    for s in pre_states:
        for base in _load_bases(ctx, s, lbl, global_ss, var):
            loaded_id = base.mem[j]
            loaded = values[loaded_id]
            # a base whose order already holds this rmw read from a write
            # after it: infeasible for the failed cas as for the success
            if loaded.is_empty or ev in ctx.posets.posets[base.mo[i]].events:
                continue
            if isinstance(instr, Fadd):
                stored = intervals.add(loaded, values[compiled(base.mem)])
                p = ctx.posets.append(base.mo[i], ev)
                if not p or stored.is_empty:
                    continue
                out.append(base.slot_update(mo=((i, p),),
                                            mem=((j, intern(stored)), (k, loaded_id))))
                continue
            expected = values[compiled[0](base.mem)]
            succ = val_meet(loaded, expected)
            if not succ.is_empty:
                stored = compiled[1](base.mem)
                p = ctx.posets.append(base.mo[i], ev)
                if p and not values[stored].is_empty:
                    out.append(base.slot_update(mo=((i, p),),
                                                mem=((j, stored), (k, intern(succ)))))
            certain_success = (loaded.is_singleton() and expected.is_singleton()
                               and loaded.lo == expected.lo)
            if not certain_success:
                fail = exclude_value(loaded, expected.lo) if expected.is_singleton() else loaded
                if fail.is_empty:
                    continue
                # a failed cas reads (and synchronizes) but publishes no event
                fail_id = intern(fail)
                out.append(base.slot_update(mem=((j, fail_id), (k, fail_id))))
    return out


def _transfer_lock(ctx, lbl, instr, pre_states, global_ss, bump) -> list:
    """A lock reads from the thread's own context or from a release of
    another thread, as a load reads from a store; the bases whose mutex
    order still ends in a lock do not hold a free mutex and are dropped,
    and the rest append the lock event."""
    i = ctx.layouts[ctx.cfg.thread_of[lbl]].mo_slot[instr.mutex]
    ev = ctx.event_at(lbl, bump)
    out: list = []
    for s in pre_states:
        for base in _load_bases(ctx, s, lbl, global_ss, instr.mutex):
            pm = base.mo[i]
            if any(e.kind == "lock" for e in ctx.posets.lasts(pm)):
                continue
            p = ctx.posets.append(pm, ev)
            if not p:
                continue
            out.append(base.slot_update(mo=((i, p),)))
    return out


def _transfer_unlock(ctx, lbl, instr, pre_states, bump) -> list:
    """States whose mutex order does not end in a lock of this thread do
    not hold the mutex here and are dropped.  The thread's last lock of
    the mutex may be any of several, one per branch, so no single matching
    lock is asked for; an unlock that some path does not hold was already
    rejected by the parser."""
    thread = ctx.cfg.thread_of[lbl]
    ev = ctx.event_at(lbl, bump)
    out: list = []
    i = ctx.layouts[thread].mo_slot[instr.mutex]
    for s in pre_states:
        pm = s.mo[i]
        if not any(e.kind == "lock" and e.thread == thread for e in ctx.posets.lasts(pm)):
            continue
        p = ctx.posets.append(pm, ev)
        if not p:
            continue
        out.append(s.slot_update(mo=((i, p),)))
    return out


def check_assert(states, cond, slots: dict) -> Verdict:
    """Proved iff the negated condition, compiled once per call, is
    infeasible in every state; the witnesses are the states where it is
    feasible, in order.  Each compiled comparison memoizes on its operands'
    value ids, so states that agree on the named slots are decided once."""
    if not states:
        return Verdict(True)
    feasible = compile_cond(negate(cond), slots, states[0].layout.values)
    witnesses = tuple(s for s in states if feasible(s.mem) is not None)
    return Verdict(not witnesses, witnesses)


def _negated_disjuncts(b) -> list:
    """The operands of the top-level And chain of negate(b), left to right:
    the negations of the operands of b's top-level Or chain."""
    out, stack = [], [b]
    while stack:
        c = stack.pop()
        if isinstance(c, Or):
            stack += (c.right, c.left)
        else:
            out.append(negate(c))
    return out


def _components(conjuncts, resolve, owner) -> list:
    """Group conjuncts into components of threads that share a conjunct; a
    conjunct that names no register is a component of its own.  `resolve`
    maps a name to its register key, once per name.  Returns [(threads,
    [(conjunct, {name: key})] in their original order)]."""
    parent: Dict[str, str] = {}

    def find(t: str) -> str:
        while parent.setdefault(t, t) != t:
            parent[t] = parent[parent[t]]
            t = parent[t]
        return t

    key_of: Dict[str, str] = {}
    entries = []
    for c in conjuncts:
        keys = {}
        for n in expr_names(c):
            if n not in key_of:
                key_of[n] = resolve(n)
            keys[n] = key_of[n]
        threads = [owner[k] for k in keys.values()]
        for t in threads[1:]:
            parent[find(t)] = find(threads[0])
        entries.append((c, keys, threads))
    groups: dict = {}
    for i, (c, keys, threads) in enumerate(entries):
        groups.setdefault(find(threads[0]) if threads else i, []).append((c, keys))
    return [(sorted({owner[k] for _, keys in part for k in keys.values()}), part)
            for part in groups.values()]


def _shape(e, slots: dict):
    """`e` with each name replaced by its slot: what `compile_cond` and
    `compile_expr` read of `e` and `slots`, so equal shapes compile to
    functions that agree on every memory."""
    if isinstance(e, Name):
        return slots[e.ident]
    if isinstance(e, (Lit, BoolLit)):
        return e.__class__, e.value
    return e.__class__, getattr(e, "op", None), _shape(e.left, slots), _shape(e.right, slots)


_MEM = attrgetter("mem")


def _joined(combo: tuple) -> tuple:
    return tuple(itertools.chain.from_iterable(combo))


def check_final_assert(ctx: AnalysisContext, ss: StateSet, cond) -> Verdict:
    """Evaluate the postcondition over the combinations of per-thread exit
    states, one component of threads at a time.

    The postcondition may only mention registers, which are disjoint across
    threads.  A conjunct of the negated postcondition reads and writes
    only the slots that it names, so conjuncts that share no thread
    cannot affect each other: the negation is feasible iff each
    component of threads linked by shared conjuncts has a combination of
    their exit states, projected onto the named registers, that satisfies
    the component's conjuncts in order.  A component's memory is the
    concatenation of its threads' distinct projections, as value ids, and
    each name maps to its position there once.  A thread without exit
    states leaves no complete execution, so the postcondition is proved.

    A conjunct is compiled once per call for each slot shape (`_shape`):
    components whose conjuncts differ only in the names share one compiled
    comparison and its memo of decisions on value ids.
    """
    exits = {t: ss.at(ctx.cfg.exits[t]) for t in ctx.registers}
    if not all(exits.values()):
        return Verdict(True)
    owner = {k: t for t, keys in ctx.registers.items() for k in keys}
    parts = _components(_negated_disjuncts(cond), ctx.program.resolve_postcondition_name, owner)
    table, shared = ctx.values, {}
    witness: Dict[str, int] = {}
    for threads, part in parts:
        named = {k for _, keys in part for k in keys.values()}
        keys, options = [], []
        for t in threads:
            tkeys = [k for k in ctx.registers[t] if k in named]
            project = itemgetter(*[ctx.layouts[t].mem_slot[k] for k in tkeys])
            distinct = dict.fromkeys(map(project, map(_MEM, exits[t])))
            # itemgetter of one slot reads the id itself
            options.append(list(distinct) if len(tkeys) > 1 else [(v,) for v in distinct])
            keys += tkeys
        slot_of = {k: i for i, k in enumerate(keys)}
        compiled = []
        for c, names in part:
            slots = {n: slot_of[k] for n, k in names.items()}
            shape = _shape(c, slots)
            feasible = shared.get(shape)
            if feasible is None:
                feasible = shared[shape] = compile_cond(c, slots, table)
            compiled.append(feasible)
        # a one-thread component's projections are its memories
        for combo in options[0] if len(options) == 1 else map(_joined, itertools.product(*options)):
            mem: Optional[tuple] = combo
            for feasible in compiled:
                mem = feasible(mem)
                if mem is None:
                    break
            if mem is not None:
                witness.update(zip(keys, combo))
                break
        else:
            return Verdict(True)
    values = table.values
    return Verdict(False, (tuple(sorted((k, str(values[v])) for k, v in witness.items())),))
