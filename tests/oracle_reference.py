"""The execution enumerator as it stood before its integer-indexed rewrite,
kept verbatim as the reference that `oracle.enumerate_executions` must match
execution for execution and in the same order (see test_oracle_kernel.py).

Everything here works on `Label` objects: label-keyed edge dicts, a sorted
ready list for the topological order, one depth-first search per node for
happens-before.  It is slow and obviously faithful to the definitions in
`ramosaic.oracle`'s module docstring; do not optimize it.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Tuple

from ramosaic.litmus import (AssertInst, Assign, Assume, BinOp, BoolExpr, BoolLit,
                             Cas, Cfg, Cmp, Fadd, Label, Lit, LoadInst, LockInst,
                             Name, Nop, Program, Store, UnlockInst, And, Or, build_cfg)
from ramosaic.oracle import Execution
from ramosaic.posets import Event, TooLarge


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
        l, r = _eval_int(e.left, regs), _eval_int(e.right, regs)
        return {"==": l == r, "!=": l != r, "<": l < r,
                "<=": l <= r, ">": l > r, ">=": l >= r}[e.op]
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


def _reach(edges: Dict[Label, set], nodes) -> Dict[Label, frozenset]:
    out = {}
    for a in nodes:
        seen: set = set()
        stack = list(edges.get(a, ()))
        while stack:
            b = stack.pop()
            if b not in seen:
                seen.add(b)
                stack.extend(edges.get(b, ()))
        out[a] = frozenset(seen)
    return out


def _acyclic_rf_assignments(reads, rf_candidates, static_edges):
    """Depth-first choice of one source per read, pruning as soon as an added
    reads-from edge closes a cycle."""
    edges: Dict[Label, set] = {a: set(bs) for a, bs in static_edges.items()}

    def reaches(a: Label, b: Label) -> bool:
        seen = set()
        stack = [a]
        while stack:
            cur = stack.pop()
            if cur == b:
                return True
            if cur in seen:
                continue
            seen.add(cur)
            stack.extend(edges.get(cur, ()))
        return False

    rf: Dict[Label, Optional[Label]] = {}

    def assign(i: int):
        if i == len(reads):
            yield dict(rf)
            return
        r = reads[i]
        for w in rf_candidates[i]:
            if w is None:
                rf[r] = None
                yield from assign(i + 1)
                continue
            if reaches(r, w):
                continue  # the new edge w->r would close a cycle
            edges.setdefault(w, set()).add(r)
            rf[r] = w
            yield from assign(i + 1)
            edges[w].discard(r)
        rf.pop(r, None)

    yield from assign(0)


def _toposort(nodes, edges: Dict[Label, set]) -> Optional[List[Label]]:
    indeg = {n: 0 for n in nodes}
    for a, bs in edges.items():
        for b in bs:
            indeg[b] += 1
    ready = sorted([n for n, d in indeg.items() if d == 0])
    order: List[Label] = []
    while ready:
        n = ready.pop(0)
        order.append(n)
        for b in sorted(edges.get(n, ())):
            indeg[b] -= 1
            if indeg[b] == 0:
                ready.append(b)
        ready.sort()
    return order if len(order) == len(nodes) else None


def count_memory_events(program: Program) -> int:
    cfg = build_cfg(program)
    return sum(1 for i in cfg.nodes.values()
               if isinstance(i, (Store, LoadInst, Cas, Fadd, LockInst, UnlockInst)))


def reference_executions(program: Program, guard: int = 14) -> Tuple[Execution, ...]:
    cfg = build_cfg(program)
    if cfg.loop_headers:
        raise ValueError("oracle requires a loop-free program; unroll first")
    n_events = count_memory_events(program)
    if n_events > guard:
        raise TooLarge(f"{n_events} shared-memory events exceed oracle guard {guard}")

    events: Dict[Label, Event] = {}
    for lbl, instr in cfg.nodes.items():
        tname = cfg.thread_of[lbl]
        if isinstance(instr, Store):
            events[lbl] = Event(lbl.name, lbl.instance, tname, "store", instr.var)
        elif isinstance(instr, (Cas, Fadd)):
            events[lbl] = Event(lbl.name, lbl.instance, tname, "rmw", instr.var)

    results: List[Execution] = []
    seen: set = set()
    paths_per_thread = [_thread_paths(cfg, t.name) for t in program.threads]
    for combo in itertools.product(*paths_per_thread):
        nodes: List[Label] = [lbl for path in combo for lbl in path]
        pos_in_thread = {lbl: i for path in combo for i, lbl in enumerate(path)}
        thread_edges: Dict[Label, set] = {}
        for path in combo:
            for a, b in zip(path, path[1:]):
                thread_edges.setdefault(a, set()).add(b)

        reads = [lbl for lbl in nodes
                 if isinstance(cfg.nodes[lbl], (LoadInst, Cas, Fadd))]
        maybe_writes: Dict[str, List[Label]] = {}
        for lbl in nodes:
            instr = cfg.nodes[lbl]
            if isinstance(instr, (Store, Cas, Fadd)):
                maybe_writes.setdefault(instr.var, []).append(lbl)

        def read_var(lbl: Label) -> str:
            return cfg.nodes[lbl].var

        rf_candidates = []
        for r in reads:
            cands: List[Optional[Label]] = [None]
            for w in maybe_writes.get(read_var(r), ()):
                if w == r:
                    continue
                if cfg.thread_of[w] == cfg.thread_of[r] and pos_in_thread[w] > pos_in_thread[r]:
                    continue  # reading a program-order-later own write is a cycle
                cands.append(w)
            rf_candidates.append(cands)

        cs_by_mutex: Dict[str, List[Tuple[Label, Optional[Label]]]] = {}
        for path in combo:
            open_locks: Dict[str, Label] = {}
            for lbl in path:
                instr = cfg.nodes[lbl]
                if isinstance(instr, LockInst):
                    open_locks[instr.mutex] = lbl
                    cs_by_mutex.setdefault(instr.mutex, []).append((lbl, None))
                elif isinstance(instr, UnlockInst):
                    held = open_locks.pop(instr.mutex, None)
                    if held is None:
                        continue  # malformed path; values phase never reaches it anyway
                    css = cs_by_mutex[instr.mutex]
                    for i, (l, u) in enumerate(css):
                        if l == held:
                            css[i] = (l, lbl)

        def cs_orders(css):
            for perm in itertools.permutations(css):
                if any(u is None for _, u in perm[:-1]):
                    continue  # a never-released section can only be last
                yield perm

        mutex_names = sorted(cs_by_mutex)
        for cs_combo in itertools.product(*(cs_orders(cs_by_mutex[m]) for m in mutex_names)):
            sync_edges: Dict[Label, set] = {}
            for perm in cs_combo:
                for (l1, u1), (l2, _) in zip(perm, perm[1:]):
                    sync_edges.setdefault(u1, set()).add(l2)

            static_edges: Dict[Label, set] = {a: set(bs) for a, bs in thread_edges.items()}
            for u, ls in sync_edges.items():
                static_edges.setdefault(u, set()).update(ls)
            if _toposort(nodes, static_edges) is None:
                continue

            for rf in _acyclic_rf_assignments(reads, rf_candidates, static_edges):
                edges: Dict[Label, set] = {a: set(bs) for a, bs in static_edges.items()}
                for r, w in rf.items():
                    if w is not None:
                        edges.setdefault(w, set()).add(r)
                topo = _toposort(nodes, edges)
                if topo is None:
                    continue

                exe = _evaluate_candidate(program, cfg, topo, rf, events)
                if exe is None:
                    continue
                regs, read_vals, write_vals, write_ok, violations = exe

                # a read must take its value from an actual write
                if any(w is not None and not write_ok[w] for w in rf.values()):
                    continue

                hb = _reach(edges, nodes)
                actual_writes: Dict[str, List[Label]] = {}
                for lbl in nodes:
                    if lbl in events and write_ok[lbl]:
                        actual_writes.setdefault(events[lbl].var, []).append(lbl)
                var_reads = {var: [r for r in reads if read_var(r) == var]
                             for var in set(read_var(r) for r in reads) | set(actual_writes)}
                valid_mos: List[List[Tuple[str, Tuple[Label, ...]]]] = []
                ok = True
                for var in sorted(var_reads):
                    perms = _coherent_orders(actual_writes.get(var, ()), hb, rf,
                                             var_reads[var], cfg, write_ok)
                    if not perms:
                        ok = False
                        break
                    if actual_writes.get(var):
                        valid_mos.append([(var, perm) for perm in perms])
                if not ok:
                    continue
                for mo_combo in itertools.product(*valid_mos) if valid_mos else [()]:
                    mo = tuple((var, tuple(events[l] for l in perm))
                               for var, perm in mo_combo)
                    exe_obj = Execution(
                        order=tuple(topo),
                        rf=tuple(sorted(rf.items())),
                        mo=mo,
                        cs_order=tuple((m, tuple(l for l, _ in perm))
                                       for m, perm in zip(mutex_names, cs_combo)),
                        read_values=tuple(sorted(read_vals.items())),
                        registers=tuple(sorted(regs.items())),
                        violations=tuple(sorted(violations)),
                    )
                    if exe_obj not in seen:
                        seen.add(exe_obj)
                        results.append(exe_obj)
    return tuple(results)


def _run_values(cfg, topo, thread_regs, src_value, read_vals, write_vals,
                write_ok, violations):
    for lbl in topo:
        instr = cfg.nodes[lbl]
        tname = cfg.thread_of[lbl]
        tr = thread_regs[tname]
        if isinstance(instr, Nop):
            continue
        if isinstance(instr, Assume):
            if not _eval_bool(instr.cond, tr):
                raise _Infeasible
        elif isinstance(instr, AssertInst):
            if not _eval_bool(instr.cond, tr):
                violations.append(str(lbl))
        elif isinstance(instr, Assign):
            tr[instr.reg] = _eval_int(instr.value, tr)
        elif isinstance(instr, Store):
            write_vals[lbl] = _eval_int(instr.value, tr)
            write_ok[lbl] = True
        elif isinstance(instr, LoadInst):
            v = src_value(lbl, instr.var)
            read_vals[lbl] = v
            tr[instr.reg] = v
        elif isinstance(instr, Cas):
            v = src_value(lbl, instr.var)
            read_vals[lbl] = v
            tr[instr.reg] = v
            if v == _eval_int(instr.expected, tr):
                write_vals[lbl] = _eval_int(instr.new, tr)
                write_ok[lbl] = True
            else:
                write_ok[lbl] = False
        elif isinstance(instr, Fadd):
            v = src_value(lbl, instr.var)
            read_vals[lbl] = v
            tr[instr.reg] = v
            write_vals[lbl] = v + _eval_int(instr.addend, tr)
            write_ok[lbl] = True


class _Infeasible(Exception):
    pass


def _evaluate_candidate(program, cfg, topo, rf, events):
    """Concrete value phase along one topological order; None when an assume
    or branch guard fails, or a read takes its value from a failed cas."""
    init = dict(program.shared)
    regs: Dict[str, int] = {}
    thread_regs: Dict[str, Dict[str, int]] = {t.name: {} for t in program.threads}
    read_vals: Dict[Label, int] = {}
    write_vals: Dict[Label, int] = {}
    write_ok: Dict[Label, bool] = {}
    violations: List[str] = []

    def src_value(lbl: Label, var: str) -> int:
        w = rf[lbl]
        if w is None:
            return init[var]
        if not write_ok.get(w):
            raise _Infeasible  # reads from a cas that did not write
        return write_vals[w]

    try:
        _run_values(cfg, topo, thread_regs, src_value, read_vals, write_vals,
                    write_ok, violations)
    except _Infeasible:
        return None

    for t in program.threads:
        for r in program.thread_registers(t.name):
            regs[program.register_key(t.name, r)] = thread_regs[t.name].get(r, 0)
    if program.postcondition is not None:
        flat = {}
        for t in program.threads:
            flat.update(thread_regs[t.name])
        if not _eval_bool(program.postcondition, flat):
            violations.append("final")
    return regs, read_vals, write_vals, write_ok, violations


def _coherent_orders(writes, hb, rf, var_reads, cfg, write_ok) -> List[Tuple[Label, ...]]:
    """All coherent modification orders of one variable: linear extensions of
    happens-before over the writes (initial write implicitly first), pruned by
    the no-stale-read rule and rmw immediacy during construction.

    Placing a write after the source of an already-seen read is only legal if
    it does not happen before that read; a successful rmw must be placed right
    after its source (first, when it reads the initial value)."""
    # readers keyed by their source; None collects initial-value readers
    readers: Dict[Optional[Label], List[Label]] = {None: []}
    for r in var_reads:
        readers.setdefault(rf[r], []).append(r)
    rmw_after: Dict[Optional[Label], Label] = {}
    successful_rmws = set()
    for r in var_reads:
        if isinstance(cfg.nodes[r], (Cas, Fadd)) and write_ok.get(r):
            successful_rmws.add(r)
            rmw_after[rf[r]] = r
    out: List[Tuple[Label, ...]] = []

    def place(prefix: tuple, remaining: frozenset, exposed: tuple):
        if not remaining:
            out.append(prefix)
            return
        last = prefix[-1] if prefix else None
        # an rmw reading `last` must be the very next write; anything else
        # buries its source for good
        forced = rmw_after.get(last)
        for w in sorted(remaining):
            if forced is not None and w != forced:
                continue
            if w in successful_rmws and rf[w] != last:
                continue
            if any(w in hb[o] for o in remaining if o != w):
                continue  # a remaining write happens before w
            if any(r in hb[w] for r in exposed):
                continue  # w would overwrite a value before it is read
            place(prefix + (w,), remaining - {w}, exposed + tuple(readers.get(w, ())))
        return

    place((), frozenset(writes), tuple(readers[None]))
    return out
