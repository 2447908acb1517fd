"""Exhaustive enumerator of release-acquire-consistent executions for small
loop-free programs; the ground truth for soundness testing.

An execution candidate is a per-thread control path, a reads-from choice for
every read, a serialization of each mutex's critical sections, and a
per-variable total order over the writes.  A candidate is kept when

  * happens-before, the transitive closure of program order, reads-from and
    unlock-to-lock synchronization, is irreflexive;
  * each modification order linearizes happens-before restricted to that
    variable's writes;
  * no read takes its value from a write that another write overwrites
    before the read happens (per-location coherence);
  * every successful read-modify-write reads its immediate modification-order
    predecessor; and
  * every assume and branch guard holds along the chosen paths.

Assertion failures do not invalidate an execution; they are recorded as
violation witnesses.
"""

from __future__ import annotations

import heapq
import itertools
import operator
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .litmus import (AssertInst, Assign, Assume, BinOp, BoolExpr, BoolLit,
                     Cas, Cfg, Cmp, Fadd, Label, Lit, LoadInst, LockInst,
                     Name, Program, Store, UnlockInst, And, Or, build_cfg)
from .posets import Event, LosetSet, SbIndex, TooLarge, alpha, beta_related, join, loset_set


class SoundnessViolation(AssertionError):
    pass


@dataclass(frozen=True)
class Execution:
    order: Tuple[Label, ...]  # all executed nodes, the label-least topological order
    rf: Tuple[Tuple[Label, Optional[Label]], ...]  # read label -> write label or None (init)
    mo: Tuple[Tuple[str, Tuple[Event, ...]], ...]  # var -> loset over writes (init excluded)
    cs_order: Tuple[Tuple[str, Tuple[Label, ...]], ...]  # mutex -> lock labels in order
    read_values: Tuple[Tuple[Label, int], ...]
    registers: Tuple[Tuple[str, int], ...]  # qualified register -> final value
    violations: Tuple[str, ...]  # assert sites ("final" or label text)

    def rf_map(self) -> Dict[Label, Optional[Label]]:
        return dict(self.rf)

    def mo_map(self) -> Dict[str, Tuple[Event, ...]]:
        return dict(self.mo)

    def register_map(self) -> Dict[str, int]:
        return dict(self.registers)


_CMP = {"==": operator.eq, "!=": operator.ne, "<": operator.lt,
        "<=": operator.le, ">": operator.gt, ">=": operator.ge}
_READS = (LoadInst, Cas, Fadd)
_WRITES = (Store, Cas, Fadd)


def _eval_int(e, regs: Dict[str, int]) -> int:
    if isinstance(e, Lit):
        return e.value
    if isinstance(e, Name):
        return regs.get(e.ident, 0)
    if isinstance(e, BinOp):
        l, r = _eval_int(e.left, regs), _eval_int(e.right, regs)
        return l + r if e.op == "+" else l - r if e.op == "-" else l * r
    raise TypeError(e)


def _eval_bool(e: BoolExpr, regs: Dict[str, int]) -> bool:
    if isinstance(e, BoolLit):
        return e.value
    if isinstance(e, Cmp):
        return _CMP[e.op](_eval_int(e.left, regs), _eval_int(e.right, regs))
    if isinstance(e, And):
        return _eval_bool(e.left, regs) and _eval_bool(e.right, regs)
    if isinstance(e, Or):
        return _eval_bool(e.left, regs) or _eval_bool(e.right, regs)
    raise TypeError(e)


def _thread_paths(cfg: Cfg, tname: str) -> List[Tuple[Label, ...]]:
    """Every entry-to-exit path of a loop-free thread, in depth-first order."""
    out: List[Tuple[Label, ...]] = []
    stack = [(cfg.entries[tname],)]
    while stack:
        path = stack.pop()
        succs = cfg.succs[path[-1]]
        if not succs:
            out.append(path)
        stack.extend(path + (nxt,) for nxt in reversed(succs))
    return out


# --------------------------------------------------------------------------
# The enumeration kernel.  Within one combination of per-thread paths the
# nodes are numbered 0..n-1 in sorted label order, so that integer order is
# label order; edges are successor lists and happens-before rows are int
# bitmasks.  Labels and events come back only when an execution is emitted.
# --------------------------------------------------------------------------

def _topological_order(succ: List[List[int]]) -> Optional[List[int]]:
    """Kahn's algorithm, always taking the smallest ready node: the
    lexicographically least topological order, or None on a cycle."""
    n = len(succ)
    indeg = [0] * n
    for bs in succ:
        for b in bs:
            indeg[b] += 1
    ready = [a for a in range(n) if not indeg[a]]  # ascending, so a heap
    order: List[int] = []
    while ready:
        a = heapq.heappop(ready)
        order.append(a)
        for b in succ[a]:
            indeg[b] -= 1
            if not indeg[b]:
                heapq.heappush(ready, b)
    return order if len(order) == n else None


def _least_order(anc: List[int]) -> List[int]:
    """The label-least topological order of an acyclic happens-before given
    as closed `anc` rows: each step takes the least node not yet placed
    whose ancestors all are."""
    pending = list(range(len(anc)))
    order: List[int] = []
    placed = 0
    while pending:
        for a in pending:
            if anc[a] | placed == placed:
                break
        pending.remove(a)
        order.append(a)
        placed |= 1 << a
    return order


def _hb_masks(order: List[int], succ: List[List[int]]) -> List[int]:
    """Strict reachability as bitmask rows, one reverse-topological pass."""
    masks = [0] * len(succ)
    for a in reversed(order):
        m = 0
        for b in succ[a]:
            m |= 1 << b | masks[b]
        masks[a] = m
    return masks


# Instruction kinds, as `_Prefix.run` dispatches on them.
_SKIP, _LOAD, _FADD, _CAS, _ASSUME, _ASSIGN, _STORE, _ASSERT = range(8)
_KIND = {LoadInst: _LOAD, Fadd: _FADD, Cas: _CAS, Assume: _ASSUME,
         Assign: _ASSIGN, Store: _STORE, AssertInst: _ASSERT}
_NO_WRITE = object()  # the written value of a cas that failed


class _Prefix:
    """Each thread's run as far as the reads assigned so far determine it:
    the oracle's only evaluator of program values.

    A thread stops at its first read that is unassigned or whose source has
    not been run yet; the initial value and every write that a run has
    passed are known.  `run(k)`, with the first `k` reads assigned, moves
    every thread on as far as it can and returns False when the values
    already doom the choice: an assume or branch guard fails, or a read
    takes its value from a cas that did not write.  `save` and `restore`
    bracket one step of the search; a run copies a thread's registers
    before it changes them, so a saved state is never written.

    Passing a node writes its slot: `out` holds a write's value
    (`_NO_WRITE` for a failed cas), `got` a read's value or whether an
    assert held.  A slot is written only when a run passes its node, and
    `restore` only moves `pcs` back, so a slot is read only once the
    current descent has passed its node.  Once every read is assigned and
    `run` succeeds, every thread has run to its end (program order and
    reads-from are acyclic), so every slot and register holds this
    choice's value."""

    def __init__(self, tables: "_Tables", paths, instrs, kinds, tids, pos, read_index, rf):
        self.init = tables.init
        self.rf = rf
        self.paths = paths
        self.instrs = instrs
        self.kinds = kinds
        self.tids = tids
        self.pos = pos  # each node's position in its thread's path
        self.read_index = read_index
        self.pcs = [0] * len(paths)  # per thread: the nodes run so far
        self.regs: List[Dict[str, int]] = [{} for _ in paths]
        self.out: List[object] = [None] * len(instrs)
        self.got: List[object] = [None] * len(instrs)

    def save(self):
        return self.pcs[:], self.regs[:]

    def restore(self, saved) -> None:
        self.pcs[:], self.regs[:] = saved

    def run(self, k: int) -> bool:
        pcs, regs, out, got = self.pcs, self.regs, self.out, self.got
        instrs, kinds, read_index, pos, tids = (self.instrs, self.kinds, self.read_index,
                                                self.pos, self.tids)
        moved = True
        while moved:
            moved = False
            for t, path in enumerate(self.paths):
                pc = start = pcs[t]
                tr = regs[t]
                copied = False
                while pc < len(path):
                    i = path[pc]
                    kind = kinds[i]
                    if kind == _SKIP:
                        pc += 1
                        continue
                    instr = instrs[i]
                    if kind == _ASSUME:
                        if not _eval_bool(instr.cond, tr):
                            return False
                    elif kind == _ASSERT:
                        got[i] = _eval_bool(instr.cond, tr)
                    elif kind == _STORE:
                        out[i] = _eval_int(instr.value, tr)
                    else:  # a read or an assign: it changes a register
                        if kind == _ASSIGN:
                            v = _eval_int(instr.value, tr)
                        else:
                            if read_index[i] >= k:
                                break  # unassigned
                            w = self.rf[i]
                            if w is None:
                                v = self.init[instr.var]
                            else:
                                if tids[w] != t and pcs[tids[w]] <= pos[w]:
                                    break  # its source has not run yet
                                v = out[w]
                                if v is _NO_WRITE:
                                    return False
                            got[i] = v
                        if not copied:
                            tr = regs[t] = dict(tr)
                            copied = True
                        tr[instr.reg] = v
                        if kind == _FADD:
                            out[i] = v + _eval_int(instr.addend, tr)
                        elif kind == _CAS:
                            out[i] = (_eval_int(instr.new, tr)
                                      if v == _eval_int(instr.expected, tr) else _NO_WRITE)
                    pc += 1
                if pc != start:
                    pcs[t] = pc
                    moved = True
        return True


def _acyclic_rf_assignments(reads, rf_candidates, overwriters, prior, desc, anc, rf, prefix):
    """Depth-first choice of one source per read (None: the initial value).

    Happens-before is kept closed as bitmask rows: `desc[a]`, what `a`
    happens before, and `anc[a]`, what happens before `a`.  A reads-from
    edge w->r ORs {r}|desc[r] into the row of every node of {w}|anc[w], and
    {w}|anc[w] into the other way round; backing out of the edge restores
    the saved rows.

    A source is pruned when
      * its edge would close a cycle;
      * the graph so far already makes it stale: a write of `overwriters[i]`
        (the writes to the read's variable that always take effect: stores
        and fadds, never a cas, which may fail) happens before the read
        and, for a write source, after that source;
      * it crosses the source of one of `prior[i]`, the earlier reads of
        the same variable: such a read r2 reads some s2 other than w with
        s2 hb r and w hb r2, so coherence would need s2 before w and w
        before s2 in modification order;
      * `prefix.run` finds that the values the reads assigned so far fix
        fail a guard, or that a read takes its value from a failed cas.
    Edges are only ever added, and the values of a thread's prefix stay
    fixed once its reads are assigned, so a pruned choice has no execution
    in any completion, and the choices that survive come out in the same
    order as without the prunes.  An edge added later can still make an
    earlier choice stale; `_coherent_orders` finds no order for such a
    complete choice, as it decides coherence for every one.

    Yields once per complete choice, with the choice in `rf`, happens-before
    in `desc` and `anc`, and every thread run to its end in `prefix`; all
    are undone when the search resumes."""
    n_reads = len(reads)

    def descend(i: int):
        saved = prefix.save()
        if prefix.run(i):
            if i == n_reads:
                yield
            else:
                yield from assign(i)
        prefix.restore(saved)

    def assign(i: int):
        r = reads[i]
        hidden = anc[r] & overwriters[i]  # would hide an older source
        for w in rf_candidates[i]:
            if w is None:
                if not hidden:
                    rf[r] = None
                    yield from descend(i + 1)
                continue
            if desc[r] >> w & 1 or hidden & ~(1 << w) & desc[w]:
                continue  # a cycle, or stale
            saved = None
            if not desc[w] >> r & 1:
                saved = desc[:], anc[:]
                src = rest = anc[w] | 1 << w
                dst = desc[r] | 1 << r
                while rest:  # every x of src, lowest first
                    low = rest & -rest
                    rest ^= low
                    desc[low.bit_length() - 1] |= dst
                rest = dst
                while rest:
                    low = rest & -rest
                    rest ^= low
                    anc[low.bit_length() - 1] |= src
            for r2 in prior[i]:
                s2 = rf[r2]
                if s2 is not None and s2 != w and desc[s2] >> r & 1 and desc[w] >> r2 & 1:
                    break  # crossed sources
            else:
                rf[r] = w
                yield from descend(i + 1)
            if saved is not None:
                desc[:], anc[:] = saved

    try:
        yield from descend(0)
    finally:
        # descend and assign reach each other through their closure cells;
        # emptying the cells breaks the cycle, so neither the prefix nor the
        # program's CFG waits for the cyclic collector
        del descend, assign


class _Tables:
    """Per-program data the kernel reads for every path combination."""

    def __init__(self, program: Program, cfg: Cfg):
        self.cfg = cfg
        self.events: Dict[Label, Event] = {}
        for lbl, instr in cfg.nodes.items():
            if isinstance(instr, Store):
                self.events[lbl] = Event(lbl.name, lbl.instance, cfg.thread_of[lbl],
                                         "store", instr.var)
            elif isinstance(instr, (Cas, Fadd)):
                self.events[lbl] = Event(lbl.name, lbl.instance, cfg.thread_of[lbl],
                                         "rmw", instr.var)
        self.thread_index = {t.name: i for i, t in enumerate(program.threads)}
        slots = {program.register_key(t.name, r): (self.thread_index[t.name], r)
                 for t in program.threads for r in program.thread_registers(t.name)}
        self.register_slots = sorted(slots.items())
        self.init = dict(program.shared)
        self.postcondition = program.postcondition


def enumerate_executions(program: Program, guard: int = 14) -> Tuple[Execution, ...]:
    """Every consistent execution, in a fixed, deterministic order.

    The order nests, outermost first: combinations of per-thread paths
    (each thread's paths depth-first, threads in program order); mutex
    serializations (permutations of each mutex's sections, mutexes by
    name); reads-from choices (depth-first over the reads in thread and
    program order, the initial value first, then the writes in that same
    order); modification orders (lexicographic in label order, variables by
    name).  Each execution's `order` is its label-least topological order."""
    cfg = build_cfg(program)
    if cfg.loop_headers:
        raise ValueError("oracle requires a loop-free program; unroll first")
    n_events = len(cfg.accesses)
    if n_events > guard:
        raise TooLarge(f"{n_events} shared-memory events exceed oracle guard {guard}")

    tables = _Tables(program, cfg)
    results: List[Execution] = []
    paths_per_thread = [_thread_paths(cfg, t.name) for t in program.threads]
    for combo in itertools.product(*paths_per_thread):
        results.extend(_combo_executions(tables, combo))
    return tuple(results)


def _combo_executions(tables: _Tables, combo):
    """The executions along one combination of per-thread paths.

    What stays fixed across the combination's choices is built once: the
    table of variables that `_choice_orders` reads, with each variable's
    memo of modification orders, the labels of the reads and the assert
    sites.  A choice's `order` comes from its closed `anc` rows
    (`_least_order`), without a copy of the graph."""
    cfg = tables.cfg
    labels = sorted((lbl for path in combo for lbl in path),
                    key=lambda l: (l.name, l.instance))
    ids = {lbl: i for i, lbl in enumerate(labels)}
    instrs = [cfg.nodes[lbl] for lbl in labels]
    kinds = [_KIND.get(type(instr), _SKIP) for instr in instrs]
    tids = [tables.thread_index[cfg.thread_of[lbl]] for lbl in labels]
    events = [tables.events.get(lbl) for lbl in labels]
    paths = [[ids[lbl] for lbl in path] for path in combo]
    nodes = [i for path in paths for i in path]  # thread by thread, in program order
    pos_in_thread = [0] * len(labels)
    for path in paths:
        for k, i in enumerate(path):
            pos_in_thread[i] = k
    thread_succ: List[List[int]] = [[] for _ in labels]
    for path in paths:
        for a, b in zip(path, path[1:]):
            thread_succ[a].append(b)

    reads = [i for i in nodes if isinstance(instrs[i], _READS)]
    sites = [(i, str(labels[i])) for i in nodes if kinds[i] == _ASSERT]
    sorted_reads = sorted(reads)
    read_labels = [labels[r] for r in sorted_reads]
    source_label: Dict[Optional[int], Optional[Label]] = dict(enumerate(labels))
    source_label[None] = None
    read_index = [len(reads)] * len(labels)  # past every read: never unassigned
    for k, r in enumerate(reads):
        read_index[r] = k
    maybe_writes: Dict[str, List[int]] = {}
    always_writes: Dict[str, int] = {}  # var -> bitmask of its stores and fadds
    for i in nodes:
        instr = instrs[i]
        if isinstance(instr, _WRITES):
            maybe_writes.setdefault(instr.var, []).append(i)
            if not isinstance(instr, Cas):  # a failed cas writes nothing
                always_writes[instr.var] = always_writes.get(instr.var, 0) | 1 << i
    reads_of: Dict[str, List[int]] = {}
    prior = []  # per read: the earlier reads of its variable
    for r in reads:
        var_reads = reads_of.setdefault(instrs[r].var, [])
        prior.append(list(var_reads))
        var_reads.append(r)
    overwriters = [always_writes.get(instrs[r].var, 0) for r in reads]

    rf_candidates = []
    for r in reads:
        cands: List[Optional[int]] = [None]
        for w in maybe_writes.get(instrs[r].var, ()):
            if w == r:
                continue
            if tids[w] == tids[r] and pos_in_thread[w] > pos_in_thread[r]:
                continue  # reading a program-order-later own write is a cycle
            cands.append(w)
        rf_candidates.append(cands)

    cs_by_mutex: Dict[str, List[Tuple[int, Optional[int]]]] = {}
    for path in paths:
        open_locks: Dict[str, int] = {}
        for i in path:
            instr = instrs[i]
            if isinstance(instr, LockInst):
                open_locks[instr.mutex] = i
                cs_by_mutex.setdefault(instr.mutex, []).append((i, None))
            elif isinstance(instr, UnlockInst):
                held = open_locks.pop(instr.mutex)  # parse rejects an unheld unlock
                css = cs_by_mutex[instr.mutex]
                for k, (l, u) in enumerate(css):
                    if l == held:
                        css[k] = (l, i)

    variables = []
    for var in sorted(maybe_writes):
        writes = maybe_writes[var]
        var_reads = reads_of.get(var, [])
        always = not any(isinstance(instrs[w], Cas) for w in writes)
        # a variable is named by the string object of its first read, else of
        # its first write that took effect, so that equal executions also
        # pickle to equal bytes; None: that write depends on the choice
        name = (instrs[var_reads[0]].var if var_reads
                else instrs[writes[0]].var if always else None)
        variables.append((name, writes, always, sum(1 << w for w in writes), var_reads,
                          sum(1 << r for r in var_reads), {}))

    def cs_orders(css):
        for perm in itertools.permutations(css):
            if any(u is None for _, u in perm[:-1]):
                continue  # a never-released section can only be last
            yield perm

    mutex_names = sorted(cs_by_mutex)
    rf: List[Optional[int]] = [None] * len(labels)
    prefix = _Prefix(tables, paths, instrs, kinds, tids, pos_in_thread, read_index, rf)
    out, got, regs = prefix.out, prefix.got, prefix.regs  # updated in place
    for cs_combo in itertools.product(*(cs_orders(cs_by_mutex[m]) for m in mutex_names)):
        succ = [list(bs) for bs in thread_succ]
        for perm in cs_combo:
            for (_, u1), (l2, _) in zip(perm, perm[1:]):
                succ[u1].append(l2)
        topo = _topological_order(succ)
        if topo is None:
            continue
        cs_order = tuple((m, tuple(labels[l] for l, _ in perm))
                         for m, perm in zip(mutex_names, cs_combo))
        desc = _hb_masks(topo, succ)
        anc = [sum(1 << a for a, row in enumerate(desc) if row >> b & 1)
               for b in range(len(labels))]

        for _ in _acyclic_rf_assignments(reads, rf_candidates, overwriters, prior,
                                         desc, anc, rf, prefix):
            valid_mos = _choice_orders(variables, desc, anc, rf, instrs, out, events)
            if valid_mos is None:
                continue
            order = tuple([labels[i] for i in _least_order(anc)])
            rf_t = tuple(zip(read_labels, [source_label[rf[r]] for r in sorted_reads]))
            read_values = tuple(zip(read_labels, [got[r] for r in sorted_reads]))
            registers = tuple([(key, regs[t].get(reg, 0))
                               for key, (t, reg) in tables.register_slots])
            violations = [site for i, site in sites if not got[i]]
            if tables.postcondition is not None:
                flat: Dict[str, int] = {}
                for tr in regs:
                    flat.update(tr)
                if not _eval_bool(tables.postcondition, flat):
                    violations.append("final")
            violations = tuple(sorted(violations))
            for mo in itertools.product(*valid_mos):
                yield Execution(order, rf_t, mo, cs_order, read_values,
                                registers, violations)


def _choice_orders(variables, desc, anc, rf, instrs, out, events):
    """The coherent modification orders of one complete choice: per variable
    that a write took effect on, by name, its `(var, events)` orders; None
    when some variable has none.  This is the one judge of a complete
    choice's coherence, stale reads included.

    `variables` holds per variable its name (None when it is that of its
    first write to take effect), its writes, whether none is a cas (then all
    take effect, and their bitmask is fixed), that bitmask, its reads and
    their bitmask, and a memo local to the path combination.  The memo is
    keyed on exactly what `_coherent_orders` reads: the writes that took
    effect, happens-before from writes to writes and from writes to the
    variable's reads, and each read's source.  A successful rmw is one of
    those writes, so its cas outcome is in the key too."""
    valid_mos = []
    for name, writes, always, wmask, var_reads, rmask, memo in variables:
        if always:
            ws = writes
        else:
            ws = [w for w in writes if out[w] is not _NO_WRITE]
            if not ws:
                continue
            wmask = sum(1 << w for w in ws)
        key = (wmask, tuple([anc[w] & wmask for w in ws]),
               tuple([desc[w] & rmask for w in ws]), tuple([rf[r] for r in var_reads]))
        orders = memo.get(key)
        if orders is None:
            if name is None:
                name = instrs[ws[0]].var
            orders = memo[key] = [(name, tuple([events[w] for w in perm]))
                                  for perm in _coherent_orders(ws, desc, anc, rf, var_reads,
                                                               instrs, out)]
        if not orders:
            return None
        valid_mos.append(orders)
    return valid_mos


def _coherent_orders(writes, desc, anc, rf, var_reads, instrs, out) -> List[Tuple[int, ...]]:
    """All coherent modification orders of one variable: linear extensions of
    happens-before over the writes (initial write implicitly first), pruned by
    the no-stale-read rule and rmw immediacy during construction.

    Placing a write after the source of an already-seen read is only legal if
    it does not happen before that read; a successful rmw must be placed right
    after its source (first, when it reads the initial value)."""
    # reader bitmasks keyed by their source; None collects initial-value readers
    readers: Dict[Optional[int], int] = {None: 0}
    rmw_after: Dict[Optional[int], int] = {}
    successful_rmws = 0
    for r in var_reads:
        readers[rf[r]] = readers.get(rf[r], 0) | 1 << r
        if isinstance(instrs[r], (Cas, Fadd)) and out[r] is not _NO_WRITE:
            successful_rmws |= 1 << r
            rmw_after[rf[r]] = r
    candidates = sorted(writes)
    orders: List[Tuple[int, ...]] = []

    def place(prefix: tuple, remaining: int, exposed: int, last: Optional[int]):
        # an rmw reading `last` must be the very next write; anything else
        # buries its source for good
        forced = rmw_after.get(last)
        for w in candidates if forced is None else (forced,):
            if not remaining >> w & 1:
                continue
            if anc[w] & remaining:
                continue  # a remaining write happens before w
            if desc[w] & exposed:
                continue  # w would overwrite a value before it is read
            if successful_rmws >> w & 1 and rf[w] != last:
                continue
            rest = remaining & ~(1 << w)
            if rest:
                place(prefix + (w,), rest, exposed | readers.get(w, 0), w)
            else:
                orders.append(prefix + (w,))

    place((), sum(1 << w for w in writes), readers[None], None)
    del place  # it reaches itself through its closure cell: break the cycle
    return orders


# --------------------------------------------------------------------------
# Independent axiom validator (self-check)
# --------------------------------------------------------------------------

class _Validation:
    """What `validate_execution` keeps per program: each statement's thread
    and instruction, from one walk of the program, and the happens-before
    graph of the last execution it validated, with the `order`, `rf` and
    `cs_order` that determine it."""

    def __init__(self, program: Program):
        self.thread_of: Dict[Label, str] = {}
        self.nodes: Dict[Label, object] = {}
        for t, (instrs, _) in zip(program.threads, program._walked):
            for st in instrs:
                self.thread_of[st.label] = t.name
                self.nodes[st.label] = st
        self.graph_of = None  # (order, rf, cs_order) of `idx` and `rows`
        self.idx: Dict[Label, int] = {}
        self.rows: List[int] = []

    def graph(self, e: Execution) -> Tuple[Dict[Label, int], List[int]]:
        """Each label's index in `e.order`, and happens-before as bit rows:
        `rows[i] >> j & 1` when node i happens before node j.  Built anew
        unless `e.order`, `e.rf` and `e.cs_order` equal those of the last
        graph built."""
        last = self.graph_of
        if last is not None and all(a is b or a == b for a, b in
                                    zip(last, (e.order, e.rf, e.cs_order))):
            return self.idx, self.rows
        thread_of, nodes = self.thread_of, self.nodes
        n = len(e.order)
        idx = {lbl: i for i, lbl in enumerate(e.order)}
        succ: List[List[int]] = [[] for _ in range(n)]
        latest: Dict[str, int] = {}  # per thread: its statement met last
        for i, lbl in enumerate(e.order):
            t = thread_of.get(lbl)
            if t is not None:
                if t in latest:
                    succ[latest[t]].append(i)
                latest[t] = i
        for r, w in e.rf:
            if w is not None:
                succ[idx[w]].append(idx[r])
        for mutex, locks in e.cs_order:
            for l1, l2 in zip(locks, locks[1:]):
                u1 = _matching_unlock_on(e.order, thread_of, nodes, l1, mutex)
                assert u1 is not None, "mid-order critical section never unlocks"
                succ[idx[u1]].append(idx[l2])
        rows = [0] * n
        if all(a < b for a, bs in enumerate(succ) for b in bs):
            for a in reversed(range(n)):
                row = 0
                for b in succ[a]:
                    row |= 1 << b | rows[b]
                rows[a] = row
        else:
            for a, bs in enumerate(succ):
                for b in bs:
                    rows[a] |= 1 << b
            for k in range(n):  # Warshall's transitive closure over bit rows
                bit, row_k = 1 << k, rows[k]
                for i in range(n):
                    if rows[i] & bit:
                        rows[i] |= row_k
            for i in range(n):
                assert not rows[i] >> i & 1, "happens-before is cyclic"
        self.graph_of, self.idx, self.rows = (e.order, e.rf, e.cs_order), idx, rows
        return idx, rows


def validate_execution(program: Program, e: Execution) -> None:
    """Recheck the axioms from the definitions, independently of the
    generator's incremental filters; raises AssertionError on failure.

    Thread and instruction of each label come from one walk of the
    program's statements, made once per program and kept with it.  The
    CFG's synthetic nodes (entries, exits, branch assumes) are not among
    them; they carry no memory access, so leaving them out of program order
    keeps happens-before between the statements as it is.  When every edge
    goes forward in `e.order`, one reverse pass closes happens-before;
    otherwise Warshall's algorithm does, and finds any cycle.  The graph
    depends on `e.order`, `e.rf` and `e.cs_order` alone, so consecutive
    executions that share them, as those of one reads-from choice do, share
    it.  Modification order, staleness and rmw immediacy are checked for
    every execution, the first two by bit tests on the rows."""
    validation = vars(program).get("_oracle_validation")
    if validation is None:
        validation = vars(program)["_oracle_validation"] = _Validation(program)
    idx, rows = validation.graph(e)
    nodes = validation.nodes
    mo = e.mo_map()
    rf = e.rf_map()
    # per variable: the indices of its writes in modification order, and
    # each write's position there
    mo_nodes = {}
    mo_index = {}
    for var, loset in mo.items():
        lbls = [ev[:2] for ev in loset]  # (name, instance): equal to the Label
        ks = mo_nodes[var] = [idx[lbl] for lbl in lbls]
        mo_index[var] = {lbl: i for i, lbl in enumerate(lbls)}
        earlier = 0
        for k in ks:
            assert not rows[k] & earlier, "modification order contradicts happens-before"
            earlier |= 1 << k
    for r, w in rf.items():
        var = nodes[r].var
        ks = mo_nodes.get(var, ())
        if w is None:
            for k in ks:
                assert not rows[k] >> idx[r] & 1, "read of the initial value is stale"
        else:
            for k in ks[mo_index.get(var, {})[w] + 1:]:
                assert not rows[k] >> idx[r] & 1, "stale read"
    for var, loset in mo.items():
        index = mo_index[var]
        for i, ev in enumerate(loset):
            if ev.kind == "rmw" and ev[:2] in rf:
                w = rf[ev[:2]]
                if w is None:
                    assert i == 0, "rmw reading the initial value is not first"
                else:
                    assert index[w] == i - 1, \
                        "rmw does not read its immediate predecessor"


def _matching_unlock_on(order, thread_of, nodes, lock_lbl, mutex) -> Optional[Label]:
    tname = thread_of[lock_lbl]
    after = False
    for lbl in order:
        if lbl == lock_lbl:
            after = True
            continue
        if after and thread_of.get(lbl) == tname:
            instr = nodes[lbl]
            if isinstance(instr, UnlockInst) and instr.mutex == mutex:
                return lbl
    return None


# --------------------------------------------------------------------------
# Bridges and soundness checking
# --------------------------------------------------------------------------

def outcomes(execs) -> frozenset:
    return frozenset(e.registers for e in execs)


def losets_by_write_set(execs, var: str) -> List[LosetSet]:
    groups: Dict[frozenset, set] = {}
    for e in execs:
        lo = e.mo_map().get(var, ())
        groups.setdefault(frozenset(lo), set()).add(lo)
    return [loset_set(v) for _, v in sorted(groups.items(), key=lambda kv: sorted(kv[0]))]


_UNSEEN = object()


def _uncovered(regmap: Dict[str, int], exits) -> Optional[str]:
    """The problem of the first thread whose exit states, or boundary
    states, cover none of its final registers in `regmap`, or None."""
    for tname, where, keys, states, covered in exits:
        values = tuple([regmap[k] for k in keys])
        ok = covered.get(values)
        if ok is None:
            ok = covered[values] = any(all(v in s.val(k) for k, v in zip(keys, values))
                                       for s in states)
        if not ok:
            return (f"final registers {list(zip(keys, values))} "
                    f"of thread {tname} are not covered at {where}")
    return None


@dataclass
class SoundnessReport:
    problems: List[str]

    @property
    def ok(self) -> bool:
        return not self.problems

    def raise_if_unsound(self):
        if self.problems:
            raise SoundnessViolation("; ".join(self.problems))


def check_soundness(program: Program, result, guard: int = 14,
                    execs=None) -> SoundnessReport:
    """Three checks against the enumerated ground truth: violated assertions
    must not be proved, reachable final register values must be covered, and
    the per-variable abstraction of the oracle's modification orders must be
    below the analyzer's joined exit posets under the soundness relation.
    The CFG and sb index come from the result when it carries them.

    A thread that the result projects past its boundary (`boundaries`) has
    no posets at its exit and only its live registers: its exit states
    answer for those, and the full states its boundary recorded answer for
    the dropped registers, which no instruction from the boundary on
    writes, and for its posets."""
    cfg = getattr(result, "cfg", None) or build_cfg(program)
    sb = getattr(result, "sb", None) or SbIndex.from_cfg(cfg)
    if execs is None:
        execs = enumerate_executions(program, guard)
    problems: List[str] = []

    oracle_violated = {site for e in execs for site in e.violations}
    for site in oracle_violated:
        v = result.verdicts.get(site)
        if v is None or v.proved:
            problems.append(f"assertion {site} is violated by the oracle but "
                            f"the analyzer proves it")

    # per thread with registers: where the states are, the register keys
    # they answer for, the states, and whether they cover each projection
    # of an outcome onto those keys; and the states whose posets join
    boundaries = getattr(result, "boundaries", {})
    exits = []
    poset_states = []
    for t in program.threads:
        keys = [program.register_key(t.name, r) for r in program.thread_registers(t.name)]
        exit_states = result.states.at(cfg.exits[t.name])
        b = boundaries.get(t.name)
        if b is None:
            parts = (("exit", keys, exit_states),)
            poset_states += exit_states
        else:
            parts = (("exit", [k for k in keys if k in b.live], exit_states),
                     (f"its boundary {b.label}", [k for k in keys if k not in b.live], b.states))
            poset_states += b.states
        exits += [(t.name, where, part, states, {}) for where, part, states in parts if part]
    uncovered: Dict[tuple, Optional[str]] = {}  # registers -> the message, if any
    for e in execs:
        message = uncovered.get(e.registers, _UNSEEN)
        if message is _UNSEEN:
            message = uncovered[e.registers] = _uncovered(e.register_map(), exits)
        if message is not None:
            problems.append(message)

    if execs and poset_states:
        distinct_mo = list({e.mo: e for e in execs}.values())
        for var in program.shared_names():
            joined = None
            for s in poset_states:
                joined = s.po(var) if joined is None else join(joined, s.po(var))
            for group in losets_by_write_set(distinct_mo, var):
                concrete = alpha(group)
                if not beta_related(concrete, joined, sb):
                    problems.append(f"joined exit poset for {var!r} is not a sound "
                                    f"abstraction of the oracle orders")
                    break
    return SoundnessReport(problems)
