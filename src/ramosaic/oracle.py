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
                     Name, Program, Store, UnlockInst, And, Or, build_cfg,
                     walk_simple)
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
    earlier choice stale; `_stale_read` drops those complete choices.

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

    yield from descend(0)


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
    """The executions along one combination of per-thread paths."""
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
    asserts = [i for i in nodes if kinds[i] == _ASSERT]
    sorted_reads = sorted(reads)
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
            if _stale_read(reads, overwriters, rf, desc, anc):
                continue  # made stale by an edge added after its choice

            # the writes that took effect; a variable is named by the string
            # object of its first read, else of its first such write, so that
            # equal executions also pickle to equal bytes
            actual: Dict[str, List[int]] = {}
            for candidates in maybe_writes.values():
                ws = [w for w in candidates if out[w] is not _NO_WRITE]
                if ws:
                    actual[instrs[ws[0]].var] = ws
            valid_mos = []
            for var in sorted(set(reads_of) | set(actual)):
                writes = actual.get(var)
                if not writes:
                    continue
                perms = _coherent_orders(writes, desc, anc, rf, reads_of.get(var, ()),
                                         instrs, out)
                if not perms:
                    break
                valid_mos.append([(var, tuple([events[w] for w in perm])) for perm in perms])
            else:
                full = [list(bs) for bs in succ]
                for r in reads:
                    if rf[r] is not None:
                        full[rf[r]].append(r)
                order = tuple(labels[i] for i in _topological_order(full))
                rf_t = tuple((labels[r], None if rf[r] is None else labels[rf[r]])
                             for r in sorted_reads)
                read_values = tuple((labels[r], got[r]) for r in sorted_reads)
                registers = tuple((key, regs[t].get(reg, 0))
                                  for key, (t, reg) in tables.register_slots)
                violations = [str(labels[i]) for i in asserts if not got[i]]
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


def _stale_read(reads, overwriters, rf, desc, anc) -> bool:
    """Whether happens-before (as `desc` and `anc` rows) puts a write of some
    read's `overwriters` after that read's source and before the read."""
    for r, ws in zip(reads, overwriters):
        hidden = anc[r] & ws
        if hidden and (rf[r] is None or hidden & ~(1 << rf[r]) & desc[rf[r]]):
            return True
    return False


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
    out: List[Tuple[int, ...]] = []

    def place(prefix: tuple, remaining: int, exposed: int, last: Optional[int]):
        if not remaining:
            out.append(prefix)
            return
        # an rmw reading `last` must be the very next write; anything else
        # buries its source for good
        forced = rmw_after.get(last)
        for w in candidates:
            if not remaining >> w & 1:
                continue
            if forced is not None and w != forced:
                continue
            if successful_rmws >> w & 1 and rf[w] != last:
                continue
            if anc[w] & remaining:
                continue  # a remaining write happens before w
            if desc[w] & exposed:
                continue  # w would overwrite a value before it is read
            place(prefix + (w,), remaining & ~(1 << w), exposed | readers.get(w, 0), w)

    place((), sum(1 << w for w in writes), readers[None], None)
    return out


# --------------------------------------------------------------------------
# Independent axiom validator (self-check)
# --------------------------------------------------------------------------

def validate_execution(program: Program, e: Execution) -> None:
    """Recheck the axioms from the definitions, independently of the
    generator's incremental filters; raises AssertionError on failure.

    Thread and instruction of each label come from one walk of the
    program's statements.  The CFG's synthetic nodes (entries, exits,
    branch assumes) are not among them; they carry no memory access, so
    leaving them out of program order keeps happens-before between the
    statements as it is.  When every edge goes forward in `e.order`, one
    reverse pass closes happens-before; otherwise Warshall's algorithm
    does, and finds any cycle."""
    thread_of: Dict[Label, str] = {}
    nodes: Dict[Label, object] = {}
    for t in program.threads:
        for st in walk_simple(t.body):
            thread_of[st.label] = t.name
            nodes[st.label] = st
    n = len(e.order)
    idx = {lbl: i for i, lbl in enumerate(e.order)}
    succ: List[List[int]] = [[] for _ in range(n)]

    def edge(a: Label, b: Label) -> None:
        succ[idx[a]].append(idx[b])

    by_thread: Dict[str, List[Label]] = {}
    for lbl in e.order:
        if lbl in thread_of:
            by_thread.setdefault(thread_of[lbl], []).append(lbl)
    for seq in by_thread.values():
        for a, b in zip(seq, seq[1:]):  # e.order lists them by index already
            edge(a, b)
    for r, w in e.rf:
        if w is not None:
            edge(w, r)
    for mutex, locks in e.cs_order:
        for l1, l2 in zip(locks, locks[1:]):
            u1 = _matching_unlock_on(e.order, thread_of, nodes, l1, mutex)
            assert u1 is not None, "mid-order critical section never unlocks"
            edge(u1, l2)
    rows = [0] * n  # rows[i] >> j & 1: node i happens before node j
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

    def hb(a: Label, b: Label) -> bool:
        return bool(rows[idx[a]] >> idx[b] & 1)

    mo = e.mo_map()
    rf = e.rf_map()
    # per variable: the writes in modification order, and each one's index
    mo_labels = {var: [Label(ev.label, ev.instance) for ev in loset]
                 for var, loset in mo.items()}
    mo_index = {var: {lbl: i for i, lbl in enumerate(lbls)} for var, lbls in mo_labels.items()}
    for lbls in mo_labels.values():
        for j, b in enumerate(lbls):
            for a in lbls[j + 1:]:
                assert not hb(a, b), "modification order contradicts happens-before"
    for r, w in rf.items():
        lbls = mo_labels.get(nodes[r].var, [])
        if w is None:
            for wl in lbls:
                assert not hb(wl, r), "read of the initial value is stale"
        else:
            for wl in lbls[mo_index.get(nodes[r].var, {})[w] + 1:]:
                assert not hb(wl, r), "stale read"
    for var, loset in mo.items():
        index = mo_index[var]
        for i, ev in enumerate(loset):
            lbl = Label(ev.label, ev.instance)
            if ev.kind == "rmw" and lbl in rf:
                w = rf[lbl]
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
    The CFG and sb index come from the result when it carries them."""
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

    exits = []  # (thread, register keys, exit states), for threads with registers
    for t in program.threads:
        keys = [program.register_key(t.name, r) for r in program.thread_registers(t.name)]
        if keys:
            exits.append((t.name, keys, result.states.at(cfg.exits[t.name])))
    uncovered: Dict[tuple, Optional[str]] = {}  # registers -> the message, if any
    for e in execs:
        if e.registers not in uncovered:
            uncovered[e.registers] = None
            regmap = e.register_map()
            for tname, keys, exit_states in exits:
                if not any(all(regmap[k] in s.val(k) for k in keys) for s in exit_states):
                    uncovered[e.registers] = (f"final registers {[(k, regmap[k]) for k in keys]} "
                                              f"of thread {tname} are not covered at exit")
                    break
        if uncovered[e.registers] is not None:
            problems.append(uncovered[e.registers])

    all_exit_states = [s for t in program.threads
                       for s in result.states.at(cfg.exits[t.name])]
    if execs and all_exit_states:
        distinct_mo = list({e.mo: e for e in execs}.values())
        for var in program.shared_names():
            joined = None
            for s in all_exit_states:
                joined = s.po(var) if joined is None else join(joined, s.po(var))
            for group in losets_by_write_set(distinct_mo, var):
                concrete = alpha(group)
                if not beta_related(concrete, joined, sb):
                    problems.append(f"joined exit poset for {var!r} is not a sound "
                                    f"abstraction of the oracle orders")
                    break
    return SoundnessReport(problems)
