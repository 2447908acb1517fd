"""Transfer functions for store, load, rmw, lock/unlock, assign, assume and
assertion checking, plus interference application.

Applying an interference appends the interfering write to the target's poset
for that variable, meets all per-variable posets, and combines memories
variable by variable: when one side's poset strictly extends the other's,
that side has observed every store the other has (and more), so its value for
the variable is the current one; incomparable or equal views fall back to the
interval hull.  The loaded variable always takes the source's value.

Memories hold ids of the analysis's `intervals.ValueTable`: expressions read
the intervals at the slots they name, and the transfers intern only what they
write.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Optional

from . import intervals, posets
from .intervals import eval_expr, exclude_value, refine, val_meet
from .litmus import (AssertInst, Assign, Assume, Cas, Cfg, Fadd, Label,
                     LoadInst, LockInst, Nop, Or, Program, Store, UnlockInst,
                     expr_names, negate)
from .interference import CTX
from .posets import TOP_ID, Event, SbIndex
from .states import AbstractState, Layout, StateSet


@dataclass(frozen=True)
class TransferConfig:
    abstract_mo: bool = True
    rmw_critical: bool = True
    widening_threshold: int = 3

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
    """Per-program analysis data: CFG, sb index, events, the slot layouts
    of states, and the analysis's caches: the poset table and the value
    table that every transfer and merge builds its posets and intervals
    through, and the node memo of `engine.seq_ai`.

    `layouts[thread]` names the slots of that thread's states,
    `slots[thread]` maps each identifier of its expressions (a shared
    variable or a register) to its memory slot, and `initial_states[thread]`
    is the state at its entry, all once for the whole analysis, so
    transfers index value tuples instead of looking up names in each
    state.  `shared_slot_map(target layout, source layout)` lists
    (memory slot in the target, poset slot, memory slot in the source) per
    shared variable; the layouts share their poset keys, so a poset slot is
    one for both.  A pair's map is built when an interference first reads
    it, and `shared_slot_maps` memoizes it on the pair.
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
        self.posets = posets.PosetTable(self.sb, tc.abstract_mo, tc.rmw_critical)
        self.values = intervals.ValueTable()
        shared = program.shared_names()
        po_keys = (*shared, *program.mutexes)
        init = dict(program.shared)
        self.layouts: Dict[str, Layout] = {}
        self.slots: Dict[str, dict] = {}
        # every poset top, the shared variables at their initial values and
        # the registers 0
        self.initial_states: Dict[str, AbstractState] = {}
        for t, regs in self.registers.items():
            layout = self.layouts[t] = Layout(po_keys, (*shared, *regs), self.posets, self.values)
            self.slots[t] = dict(zip((*shared, *program.thread_registers(t)),
                                     map(layout.mem_slot.__getitem__, (*shared, *regs))))
            self.initial_states[t] = AbstractState(
                (TOP_ID,) * len(layout.mo_keys),
                tuple([self.values.intern(intervals.singleton(init.get(k, 0)))
                       for k in layout.mem_keys]),
                layout)
        self.shared_slot_maps: dict = {}
        # each label's position in its thread's reverse post-order, and per
        # thread the positions a pass of engine.seq_ai starts with pending:
        # all but the entry's, 0
        self.rpo_index = {lbl: i for rpo in cfg.rpo.values() for i, lbl in enumerate(rpo)}
        self.first_worklists = {t: tuple(range(1, len(rpo))) for t, rpo in cfg.rpo.items()}
        # (label, bump, interference sources) -> (pre-states, global reads,
        # merged states) of the node's latest visit; see engine.seq_ai
        self.node_memo: dict = {}

    def shared_slot_map(self, lt: Layout, ls: Layout) -> tuple:
        key = (lt, ls)
        out = self.shared_slot_maps.get(key)
        if out is None:
            out = self.shared_slot_maps[key] = tuple(
                (i, j, ls.mem_slot[v]) for v, i, j in lt.shared_slots)
        return out

    def event_at(self, lbl: Label, bump: int = 0) -> Event:
        ev = self.events[lbl]
        if bump:
            ev = Event(ev.label, ev.instance + bump, ev.thread, ev.kind, ev.var)
        return ev


def apply_interference(ctx: AnalysisContext, target: AbstractState,
                       source: AbstractState, src_event: Event,
                       reg: Optional[int] = None) -> Optional[AbstractState]:
    """The target state after reading from the source's write `src_event`,
    or None when the views are inconsistent.  With `reg`, a memory slot of
    the target, the loaded value is also written there: a load's register.
    Both states hold ids of `ctx.posets` and `ctx.values`."""
    table = ctx.posets
    k = target.layout.mo_slot[src_event.var]
    tmo, smo = target.mo, source.mo
    appended = table.append(tmo[k], src_event)
    if not appended:  # bottom
        return None
    meets = table.meets
    new_mo = []
    for i, ps in enumerate(smo):
        pt = appended if i == k else tmo[i]
        if pt == TOP_ID:  # the meet of top and p is p
            met = ps
        else:
            met = meets.get((pt, ps))
            if met is None:
                met = table.meet(pt, ps)
        if not met:
            return None
        new_mo.append(met)
    # Registers keep the target's values; shared variables go by the views.
    # With every meet non-bottom, the source's poset is `less` than the
    # target's exactly when it equals their meet, and the other way round;
    # one poset strictly below the other is `less` one way only, and the
    # same poset on both sides is neither view ahead.  Equal posets and
    # equal intervals have equal ids, so the tests compare ids and a hull
    # is a lookup in the value table's join memo.
    smem = source.mem
    new_mem = list(target.mem)
    joins = ctx.values.joins
    loaded = None
    lt, ls = target.layout, source.layout
    slot_map = ctx.shared_slot_maps.get((lt, ls))
    if slot_map is None:
        slot_map = ctx.shared_slot_map(lt, ls)
    for i, j, si in slot_map:
        sv = smem[si]
        if j == k:
            new_mem[i] = loaded = sv
            continue
        tv = new_mem[i]
        if tv != sv:
            met = new_mo[j]
            src_below = met == smo[j]
            if src_below != (met == tmo[j]):
                if src_below:  # the source's view is ahead
                    new_mem[i] = sv
                continue  # otherwise the target's is
            joined = joins.get((tv, sv))
            new_mem[i] = ctx.values.join(tv, sv) if joined is None else joined
    if reg is not None:
        new_mem[reg] = loaded
    return AbstractState(tuple(new_mo), tuple(new_mem), target.layout)


def _load_bases(ctx, s, interfs, global_ss, var, reg=None):
    """Yield the state after reading `var`, a variable or a mutex, once per
    interference choice: s itself for ctx, and s after each source state's
    write otherwise.  A variable's value read is in its memory slot; with
    `reg`, a memory slot, each base holds it there too."""
    for src in interfs:
        if src == CTX:
            yield s if reg is None else s.slot_update(mem=((reg, s.mem[s.layout.mem_slot[var]]),))
            continue
        ev = ctx.events[src]
        cas = isinstance(ctx.cfg.nodes[src], Cas)
        i = s.layout.mo_slot[var]  # the layouts share their poset keys
        for src_state in global_ss.at(src):
            # a state at a cas published its write when its poset holds
            # the event or a loop-bumped instance of it; a failed cas
            # leaves the poset as it was, so its states publish nothing
            if cas and not ctx.posets.published(src_state.mo[i], ev):
                continue
            r = apply_interference(ctx, s, src_state, ev, reg)
            if r is not None:
                yield r


def transfer_node(ctx: AnalysisContext, lbl: Label, pre_states,
                  global_ss: StateSet, interf_map, bump: int = 0) -> list:
    instr = ctx.cfg.nodes[lbl]
    tname = ctx.cfg.thread_of[lbl]
    out: list = []

    if isinstance(instr, (Nop, AssertInst)):
        return list(pre_states)

    layout = ctx.layouts[tname]
    slots = ctx.slots[tname]
    values = ctx.values

    if isinstance(instr, Assume):
        for s in pre_states:
            m = refine(s.mem, instr.cond, slots, values)
            if m is not None:
                out.append(AbstractState(s.mo, m, layout))
        return out

    if isinstance(instr, Assign):
        k = slots[instr.reg]
        for s in pre_states:
            val = eval_expr(instr.value, s.mem, slots, values)
            if val.is_empty:
                continue
            out.append(s.slot_update(mem=((k, values.intern(val)),)))
        return out

    if isinstance(instr, Store):
        ev = ctx.event_at(lbl, bump)
        i, j = layout.mo_slot[instr.var], slots[instr.var]
        for s in pre_states:
            p = ctx.posets.append(s.mo[i], ev)
            if not p:  # bottom
                continue
            val = eval_expr(instr.value, s.mem, slots, values)
            if val.is_empty:
                continue
            out.append(s.slot_update(mo=((i, p),), mem=((j, values.intern(val)),)))
        return out

    if isinstance(instr, LoadInst):
        k = slots[instr.reg]
        interfs = interf_map.get(lbl, (CTX,))
        for s in pre_states:
            out.extend(_load_bases(ctx, s, interfs, global_ss, instr.var, k))
        return out

    if isinstance(instr, (Cas, Fadd)):
        return _transfer_rmw(ctx, lbl, instr, pre_states, global_ss, interf_map, bump)

    if isinstance(instr, LockInst):
        return _transfer_lock(ctx, lbl, instr, pre_states, global_ss, interf_map, bump)

    if isinstance(instr, UnlockInst):
        return _transfer_unlock(ctx, lbl, instr, pre_states, bump)

    raise TypeError(instr)


def _transfer_rmw(ctx, lbl, instr, pre_states, global_ss, interf_map, bump) -> list:
    tname = ctx.cfg.thread_of[lbl]
    slots = ctx.slots[tname]
    values = ctx.values
    intern = values.intern
    var = instr.var
    i = ctx.layouts[tname].mo_slot[var]
    j = slots[var]
    k = slots[instr.reg]
    ev = ctx.event_at(lbl, bump)
    interfs = interf_map.get(lbl, (CTX,))
    out: list = []
    for s in pre_states:
        for base in _load_bases(ctx, s, interfs, global_ss, var):
            loaded_id = base.mem[j]
            loaded = values.values[loaded_id]
            # a base whose order already holds this rmw read from a write
            # after it: infeasible for the failed cas as for the success
            if loaded.is_empty or ev in ctx.posets.posets[base.mo[i]].events:
                continue
            if isinstance(instr, Fadd):
                addend = eval_expr(instr.addend, base.mem, slots, values)
                stored = intervals.add(loaded, addend)
                p = ctx.posets.append(base.mo[i], ev)
                if not p or stored.is_empty:
                    continue
                out.append(base.slot_update(mo=((i, p),),
                                            mem=((j, intern(stored)), (k, loaded_id))))
                continue
            expected = eval_expr(instr.expected, base.mem, slots, values)
            succ = val_meet(loaded, expected)
            if not succ.is_empty:
                stored = eval_expr(instr.new, base.mem, slots, values)
                p = ctx.posets.append(base.mo[i], ev)
                if p and not stored.is_empty:
                    out.append(base.slot_update(mo=((i, p),),
                                                mem=((j, intern(stored)), (k, intern(succ)))))
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


def _transfer_lock(ctx, lbl, instr, pre_states, global_ss, interf_map, bump) -> list:
    """A lock reads from the thread's own context or from a release of
    another thread, as a load reads from a store; the bases whose mutex
    order still ends in a lock do not hold a free mutex and are dropped,
    and the rest append the lock event."""
    i = ctx.layouts[ctx.cfg.thread_of[lbl]].mo_slot[instr.mutex]
    ev = ctx.event_at(lbl, bump)
    interfs = interf_map.get(lbl, (CTX,))
    out: list = []
    for s in pre_states:
        for base in _load_bases(ctx, s, interfs, global_ss, instr.mutex):
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
    """Proved iff the negated condition is infeasible in every state.
    `refine` reads only the slots the condition names, so feasibility is
    decided once per distinct projection of the states onto those slots,
    as value ids, on the first state with that projection; the witnesses
    are the states whose projection is feasible, in order."""
    neg = negate(cond)
    named = sorted({slots[n] for n in expr_names(neg)})
    feasible: dict = {}
    witnesses = []
    for s in states:
        ids = tuple([s.mem[i] for i in named])
        ok = feasible.get(ids)
        if ok is None:
            ok = feasible[ids] = refine(s.mem, neg, slots, s.layout.values) is not None
        if ok:
            witnesses.append(s)
    return Verdict(not witnesses, tuple(witnesses))


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


def _components(key_sets, owner) -> list:
    """Group conjuncts, given as the sets of register keys they name, into
    components of threads that share a conjunct; a conjunct that names no
    register is a component of its own.  Returns [(threads, conjunct
    indices in their original order)]."""
    parent: Dict[str, str] = {}

    def find(t: str) -> str:
        while parent.setdefault(t, t) != t:
            parent[t] = parent[parent[t]]
            t = parent[t]
        return t

    for keys in key_sets:
        threads = [owner[k] for k in keys]
        for t in threads[1:]:
            parent[find(t)] = find(threads[0])
    groups: dict = {}
    for i, keys in enumerate(key_sets):
        root = find(owner[next(iter(keys))]) if keys else i
        groups.setdefault(root, []).append(i)
    return [(sorted({owner[k] for i in idx for k in key_sets[i]}), idx)
            for idx in groups.values()]


def check_final_assert(ctx: AnalysisContext, ss: StateSet, cond) -> Verdict:
    """Evaluate the postcondition over the combinations of per-thread exit
    states, one component of threads at a time.

    The postcondition may only mention registers, which are disjoint across
    threads.  `refine` on a conjunct of the negated postcondition reads and
    writes only the slots that conjunct names, so conjuncts that share no
    thread cannot affect each other: the negation is feasible iff each
    component of threads linked by shared conjuncts has a combination of
    their exit states, projected onto the named registers, that satisfies
    the component's conjuncts in order.  A component's memory is the
    concatenation of its threads' projections, as value ids, and each name
    maps to its position there once.  A thread without exit states leaves
    no complete execution, so the postcondition is proved.
    """
    exits = {t: ss.at(ctx.cfg.exits[t]) for t in ctx.registers}
    if not all(exits.values()):
        return Verdict(True)
    owner = {k: t for t, keys in ctx.registers.items() for k in keys}
    conjuncts = _negated_disjuncts(cond)
    names = [expr_names(c) for c in conjuncts]
    key_of = {n: ctx.program.resolve_postcondition_name(n) for n in set().union(*names)}
    key_sets = [{key_of[n] for n in ns} for ns in names]
    witness: Dict[str, int] = {}
    for threads, idx in _components(key_sets, owner):
        named = set().union(*(key_sets[i] for i in idx))
        keys, options = [], []
        for t in threads:
            tkeys = [k for k in ctx.registers[t] if k in named]
            mem_slots = [ctx.layouts[t].mem_slot[k] for k in tkeys]
            keys += tkeys
            options.append(list(dict.fromkeys(tuple([s.mem[i] for i in mem_slots])
                                              for s in exits[t])))
        slots = {n: keys.index(key_of[n]) for i in idx for n in names[i]}
        for combo in itertools.product(*options):
            mem: Optional[tuple] = tuple(itertools.chain.from_iterable(combo))
            for i in idx:
                mem = refine(mem, conjuncts[i], slots, ctx.values)
                if mem is None:
                    break
            if mem is not None:
                witness.update(zip(keys, itertools.chain.from_iterable(combo)))
                break
        else:
            return Verdict(True)
    values = ctx.values.values
    return Verdict(False, (tuple(sorted((k, str(values[v])) for k, v in witness.items())),))
