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
                     Name, Nop, Program, Store, UnlockInst, And, Or, build_cfg,
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


def count_memory_events(program: Program) -> int:
    return len(build_cfg(program).accesses)


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


def _reach(adj: List[List[int]], a: int) -> int:
    """The nodes reachable from `a` in one or more steps along `adj`, as a
    bitmask."""
    seen = 0
    stack = [a]
    while stack:
        for c in adj[stack.pop()]:
            if not seen >> c & 1:
                seen |= 1 << c
                stack.append(c)
    return seen


def _acyclic_rf_assignments(reads, rf_candidates, overwriters, succ, pred, rf):
    """Depth-first choice of one source per read (None: the initial value).

    A choice is pruned when its reads-from edge would close a cycle, or when
    the graph so far already makes it stale: a write of `overwriters[i]` (the
    writes to the read's variable that always take effect: stores and fadds,
    never a cas, which may fail) happens before the read and, for a write
    source, after that source.  Edges are only ever added, so a pruned
    choice has no coherent modification order in any completion, and the
    choices that survive come out in the same order as without the prune.
    An edge added later can still make an earlier choice stale;
    `_stale_read` drops those complete choices.

    Yields once per complete choice, with the choice in `rf` and its edges
    appended to `succ` and `pred`; all are undone when the search resumes."""

    def assign(i: int):
        if i == len(reads):
            yield
            return
        r = reads[i]
        after_r = _reach(succ, r)
        hidden = _reach(pred, r) & overwriters[i]  # would hide an older source
        for w in rf_candidates[i]:
            if w is None:
                if hidden:
                    continue
                rf[r] = None
                yield from assign(i + 1)
            elif not after_r >> w & 1 and not (hidden & ~(1 << w)
                                               and _reach(succ, w) & hidden):
                succ[w].append(r)
                pred[r].append(w)
                rf[r] = w
                yield from assign(i + 1)
                succ[w].pop()
                pred[r].pop()

    yield from assign(0)


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
        self.n_threads = len(program.threads)
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
    tids = [tables.thread_index[cfg.thread_of[lbl]] for lbl in labels]
    events = [tables.events.get(lbl) for lbl in labels]
    paths = [[ids[lbl] for lbl in path] for path in combo]
    nodes = [i for path in paths for i in path]  # thread by thread, in program order
    pos_in_thread = {i: k for path in paths for k, i in enumerate(path)}
    thread_succ: List[List[int]] = [[] for _ in labels]
    for path in paths:
        for a, b in zip(path, path[1:]):
            thread_succ[a].append(b)

    reads = [i for i in nodes if isinstance(instrs[i], _READS)]
    sorted_reads = sorted(reads)
    maybe_writes: Dict[str, List[int]] = {}
    always_writes: Dict[str, int] = {}  # var -> bitmask of its stores and fadds
    for i in nodes:
        instr = instrs[i]
        if isinstance(instr, _WRITES):
            maybe_writes.setdefault(instr.var, []).append(i)
            if not isinstance(instr, Cas):  # a failed cas writes nothing
                always_writes[instr.var] = always_writes.get(instr.var, 0) | 1 << i
    reads_of: Dict[str, List[int]] = {}
    for r in reads:
        reads_of.setdefault(instrs[r].var, []).append(r)
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
                held = open_locks.pop(instr.mutex, None)
                if held is None:
                    continue  # malformed path; values phase never reaches it anyway
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
    for cs_combo in itertools.product(*(cs_orders(cs_by_mutex[m]) for m in mutex_names)):
        succ = [list(bs) for bs in thread_succ]
        for perm in cs_combo:
            for (_, u1), (l2, _) in zip(perm, perm[1:]):
                succ[u1].append(l2)
        if _topological_order(succ) is None:
            continue
        cs_order = tuple((m, tuple(labels[l] for l, _ in perm))
                         for m, perm in zip(mutex_names, cs_combo))
        pred: List[List[int]] = [[] for _ in labels]
        for a, bs in enumerate(succ):
            for b in bs:
                pred[b].append(a)

        for _ in _acyclic_rf_assignments(reads, rf_candidates, overwriters, succ, pred, rf):
            topo = _topological_order(succ)  # acyclic: the search closes no cycle
            masks = _hb_masks(topo, succ)
            if _stale_read(reads, overwriters, rf, masks):
                continue  # made stale by an edge added after its choice
            run = _run_values(tables, topo, instrs, tids, labels, rf)
            if run is None:
                continue
            regs, read_vals, written, violations = run

            # the writes that took effect; a variable is named by the string
            # object of its first read, else of its first such write, so that
            # equal executions also pickle to equal bytes
            actual: Dict[str, List[int]] = {}
            for candidates in maybe_writes.values():
                ws = [w for w in candidates if w in written]
                if ws:
                    actual[instrs[ws[0]].var] = ws
            valid_mos = []
            for var in sorted(set(reads_of) | set(actual)):
                writes = actual.get(var)
                if not writes:
                    continue
                perms = _coherent_orders(writes, masks, rf, reads_of.get(var, ()),
                                         instrs, written)
                if not perms:
                    break
                valid_mos.append([(var, perm) for perm in perms])
            else:
                order = tuple(labels[i] for i in topo)
                rf_t = tuple((labels[r], None if rf[r] is None else labels[rf[r]])
                             for r in sorted_reads)
                read_values = tuple((labels[r], read_vals[r]) for r in sorted_reads)
                registers = tuple((key, regs[t].get(reg, 0))
                                  for key, (t, reg) in tables.register_slots)
                violations = tuple(sorted(violations))
                for mo_combo in itertools.product(*valid_mos):
                    mo = tuple((var, tuple(events[w] for w in perm))
                               for var, perm in mo_combo)
                    yield Execution(order, rf_t, mo, cs_order, read_values,
                                    registers, violations)


def _stale_read(reads, overwriters, rf, masks) -> bool:
    """Whether happens-before (as `masks` rows) puts a write of some read's
    `overwriters` after that read's source and before the read."""
    for r, ws in zip(reads, overwriters):
        w = rf[r]
        while ws:
            low = ws & -ws
            ws ^= low
            s = low.bit_length() - 1
            if s != w and masks[s] >> r & 1 and (w is None or masks[w] >> s & 1):
                return True
    return False


def _run_values(tables: _Tables, topo, instrs, tids, labels, rf):
    """Concrete value phase along one topological order: per-thread
    registers, read values, the values of the writes that took effect, and
    the violated assertion sites; None when an assume or branch guard fails,
    or a read takes its value from a cas that did not write."""
    regs: List[Dict[str, int]] = [{} for _ in range(tables.n_threads)]
    read_vals: Dict[int, int] = {}
    written: Dict[int, int] = {}
    violations: List[str] = []
    for i in topo:
        instr = instrs[i]
        tr = regs[tids[i]]
        if isinstance(instr, Nop):
            continue
        if isinstance(instr, Assume):
            if not _eval_bool(instr.cond, tr):
                return None
        elif isinstance(instr, AssertInst):
            if not _eval_bool(instr.cond, tr):
                violations.append(str(labels[i]))
        elif isinstance(instr, Assign):
            tr[instr.reg] = _eval_int(instr.value, tr)
        elif isinstance(instr, Store):
            written[i] = _eval_int(instr.value, tr)
        elif isinstance(instr, _READS):
            w = rf[i]
            if w is None:
                v = tables.init[instr.var]
            elif w in written:
                v = written[w]
            else:
                return None  # reads from a cas that did not write
            read_vals[i] = v
            tr[instr.reg] = v
            if isinstance(instr, Fadd):
                written[i] = v + _eval_int(instr.addend, tr)
            elif isinstance(instr, Cas) and v == _eval_int(instr.expected, tr):
                written[i] = _eval_int(instr.new, tr)
    if tables.postcondition is not None:
        flat: Dict[str, int] = {}
        for tr in regs:
            flat.update(tr)
        if not _eval_bool(tables.postcondition, flat):
            violations.append("final")
    return regs, read_vals, written, violations


def _coherent_orders(writes, masks, rf, var_reads, instrs, written) -> List[Tuple[int, ...]]:
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
        if isinstance(instrs[r], (Cas, Fadd)) and r in written:
            successful_rmws |= 1 << r
            rmw_after[rf[r]] = r
    candidates = sorted(writes)
    # earlier[w]: the other writes that happen before w
    earlier = {w: sum(1 << o for o in writes if o != w and masks[o] >> w & 1)
               for w in writes}
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
            if earlier[w] & remaining:
                continue  # a remaining write happens before w
            if masks[w] & exposed:
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
    statements as it is."""
    thread_of: Dict[Label, str] = {}
    nodes: Dict[Label, object] = {}
    for t in program.threads:
        for st in walk_simple(t.body):
            thread_of[st.label] = t.name
            nodes[st.label] = st
    n = len(e.order)
    idx = {lbl: i for i, lbl in enumerate(e.order)}
    rows = [0] * n  # rows[i] >> j & 1: node i happens before node j

    def edge(a: Label, b: Label) -> None:
        rows[idx[a]] |= 1 << idx[b]

    by_thread: Dict[str, List[Label]] = {}
    for lbl in e.order:
        if lbl in thread_of:
            by_thread.setdefault(thread_of[lbl], []).append(lbl)
    for seq in by_thread.values():
        seq.sort(key=idx.__getitem__)
        for a, b in zip(seq, seq[1:]):
            edge(a, b)
    for r, w in e.rf:
        if w is not None:
            edge(w, r)
    for mutex, locks in e.cs_order:
        for l1, l2 in zip(locks, locks[1:]):
            u1 = _matching_unlock_on(e.order, thread_of, nodes, l1, mutex)
            assert u1 is not None, "mid-order critical section never unlocks"
            edge(u1, l2)
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
    for var, loset in mo.items():
        lpos = {ev: i for i, ev in enumerate(loset)}
        lbls = [Label(ev.label, ev.instance) for ev in loset]
        for a in lbls:
            for b in lbls:
                if a != b and hb(a, b):
                    assert lpos[_ev(loset, a)] < lpos[_ev(loset, b)], \
                        "modification order contradicts happens-before"
    for r, w in rf.items():
        var = nodes[r].var
        loset = mo.get(var, ())
        if w is None:
            for ev in loset:
                wl = Label(ev.label, ev.instance)
                assert not hb(wl, r), "read of the initial value is stale"
        else:
            wev = _ev(loset, w)
            for ev in loset[list(loset).index(wev) + 1:]:
                wl = Label(ev.label, ev.instance)
                assert not hb(wl, r), "stale read"
    for var, loset in mo.items():
        for i, ev in enumerate(loset):
            lbl = Label(ev.label, ev.instance)
            if ev.kind == "rmw" and lbl in rf:
                w = rf[lbl]
                if w is None:
                    assert i == 0, "rmw reading the initial value is not first"
                else:
                    assert list(loset).index(_ev(loset, w)) == i - 1, \
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


def _ev(loset, lbl: Label) -> Event:
    for ev in loset:
        if (ev.label, ev.instance) == (lbl.name, lbl.instance):
            return ev
    raise KeyError(lbl)


# --------------------------------------------------------------------------
# Bridges and soundness checking
# --------------------------------------------------------------------------

def outcomes(execs) -> frozenset:
    return frozenset(e.registers for e in execs)


def losets_of(execs, var: str) -> LosetSet:
    """Distinct modification orders of var across executions; requires every
    execution to have written the same event set."""
    losets = {e.mo_map().get(var, ()) for e in execs}
    sets = {frozenset(l) for l in losets}
    if len(sets) > 1:
        raise ValueError(f"executions write different {var!r} event sets; "
                         f"group them first")
    return loset_set(losets)


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
    for e in execs:
        regmap = e.register_map()
        for tname, keys, exit_states in exits:
            if not any(all(regmap[k] in s.val(k) for k in keys) for s in exit_states):
                problems.append(f"final registers {[(k, regmap[k]) for k in keys]} "
                                f"of thread {tname} are not covered at exit")
                break

    all_exit_states = [s for t in program.threads
                       for s in result.states.at(cfg.exits[t.name])]
    if execs and all_exit_states:
        for var in program.shared_names():
            joined = None
            for s in all_exit_states:
                joined = s.po(var) if joined is None else join(joined, s.po(var))
            for group in losets_by_write_set(execs, var):
                concrete = alpha(group)
                if not beta_related(concrete, joined, sb):
                    problems.append(f"joined exit poset for {var!r} is not a sound "
                                    f"abstraction of the oracle orders")
                    break
    return SoundnessReport(problems)
