"""Layer tracing from outside the program.

`Tracer.install` wraps the public functions of every module of the
`ramosaic` package, plus a few methods named in `METHODS`, and replaces every
binding of them, including the names other modules took with
`from .x import f`.  A layer is a module.  Each wrapped call times itself and
adds its duration to its caller, so a layer's self time is its calls' time
minus the time of the calls they made into wrapped functions.  A layer's
total time and call count take only calls not nested in the same layer.

The calls named in `SPANS` are also kept in memory as spans (name, start,
end, parent span, operation); the many small calls of the lattice layers
are only summed, since one round of the peterson workload makes about
280 000 of them.
Everything is written out by `write` when the run ends.
"""

from __future__ import annotations

import collections
import functools
import importlib
import inspect
import json
import time

MODULES = ("litmus", "posets", "intervals", "states", "transfer", "interference",
           "engine", "oracle", "randprog", "cli")

# (module, class, method): the methods that carry a layer's work.  Name
# resolution in the final assertion is litmus work done for transfer, so it
# is a span of its own; Program.thread_registers, which it calls for every
# thread in every combination of exit states, is not: timing each of those
# calls made the traced round of the readers workload about three times as
# long.
METHODS = (("litmus", "Program", "resolve_postcondition_name"),
           ("states", "StateBucket", "merge"),
           ("states", "StateSet", "copy"),
           ("states", "StateSet", "dump"))

SPANS = frozenset({"cli.analyze_file", "engine.tmai", "engine.seq_ai",
                   "interference.get_interfs", "litmus.parse", "litmus.unroll",
                   "litmus.build_cfg", "transfer.check_final_assert",
                   "oracle.enumerate_executions", "oracle.validate_execution",
                   "oracle.check_soundness", "randprog.random_program"})

# The fixpoint's revisit check: snapshot, dump and compare, when engine calls them.
FIXPOINT_CHECK = frozenset({"states.StateSet.copy", "states.StateSet.dump",
                            "states.equal_sets"})


def _interference_sources(result):
    return sum(len(cands) - 1 for per_thread in result.values()
               for cands in per_thread.values())


def _final_combinations(args):
    ctx, ss = args[0], args[1]
    n = 1
    for t in ctx.program.threads:
        n *= max(1, len(ss.at(ctx.cfg.exits[t.name])))
    return n


# Counts taken where the work happens: name -> (counter, before, after).
# `before(args)` runs ahead of the call; `after(result, args, before_value)`
# returns the amount to add.
HOOKS = {
    "litmus.build_cfg": (("litmus.cfg_nodes", None, lambda r, a, b: len(r.nodes)),),
    "interference.get_interfs": (("interference.sources", None,
                                  lambda r, a, b: _interference_sources(r)),),
    "engine.tmai": (("engine.rounds", None, lambda r, a, b: r.iterations_total),
                    ("states.fixpoint_states", None,
                     lambda r, a, b: r.states.total_states())),
    "transfer.apply_interference": (("transfer.interference_feasible", None,
                                     lambda r, a, b: r is not None),),
    "transfer.check_final_assert": (("transfer.final_combinations",
                                     _final_combinations, lambda r, a, b: b),),
    "states.StateBucket.merge": (("states.merge_kept", lambda a: len(a[0]),
                                  lambda r, a, b: len(a[0]) == b + 1),),
    "oracle.enumerate_executions": (("oracle.executions", None, lambda r, a, b: len(r)),),
}


class Tracer:
    def __init__(self):
        self.layers = {}   # layer -> [depth, calls, total_s, self_s]
        self.funcs = {}    # key -> [depth, calls, total_s, self_s]
        self.counts = collections.Counter()
        self.spans = []    # (id, parent, op, name, start, end)
        self.op = 0
        self._stack = []   # frames: [child_s, span_id, layer]
        self._next_span = 0
        self._patches = []

    def install(self) -> None:
        modules = {name: importlib.import_module(f"ramosaic.{name}") for name in MODULES}
        holders = [importlib.import_module("ramosaic"), *modules.values()]
        for layer, module in modules.items():
            for name, fn in list(vars(module).items()):
                if (name.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__
                        or inspect.isgeneratorfunction(fn)):
                    continue
                wrapper = self._wrap(fn, layer, f"{layer}.{name}")
                for holder in holders:
                    for bound, value in list(vars(holder).items()):
                        if value is fn:
                            self._patch(holder, bound, wrapper)
        for layer, cls_name, meth in METHODS:
            cls = getattr(modules[layer], cls_name)
            fn = cls.__dict__[meth]
            self._patch(cls, meth, self._wrap(fn, layer, f"{layer}.{cls_name}.{meth}"))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def _patch(self, owner, name, wrapper) -> None:
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, wrapper)

    def _wrap(self, fn, layer, key):
        stack = self._stack
        lstat = self.layers.setdefault(layer, [0, 0, 0.0, 0.0])
        fstat = self.funcs.setdefault(key, [0, 0, 0.0, 0.0])
        counts = self.counts
        spans = self.spans if key in SPANS else None
        hooks = HOOKS.get(key, ())
        fixpoint_part = key in FIXPOINT_CHECK
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            before = [h[1](args) if h[1] else None for h in hooks] if hooks else None
            parent_span = stack[-1][1] if stack else 0
            span = parent_span
            if spans is not None:
                tracer._next_span += 1
                span = tracer._next_span
            frame = [0.0, span, layer]
            stack.append(frame)
            lstat[0] += 1
            fstat[0] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                dur = end - start
                stack.pop()
                lstat[0] -= 1
                fstat[0] -= 1
                own = dur - frame[0]
                lstat[3] += own
                fstat[3] += own
                if not lstat[0]:
                    lstat[1] += 1
                    lstat[2] += dur
                if not fstat[0]:
                    fstat[1] += 1
                    fstat[2] += dur
                if stack:
                    caller = stack[-1]
                    caller[0] += dur
                    if fixpoint_part and caller[2] == "engine":
                        counts["engine.fixpoint_check_s"] += dur
                if spans is not None:
                    spans.append((span, parent_span, tracer.op, key, start, end))
            for (name, _, after), b in zip(hooks, before or ()):
                counts[name] += after(result, args, b)
            return result

        return wrapper

    def operation(self, op: int, fn, *args):
        """Run one benchmark operation as a root span."""
        self.op = op
        self._next_span += 1
        span = self._next_span
        frame = [0.0, span, "bench"]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((span, 0, op, "bench.operation", start, end))

    def func(self, key: str) -> list:
        return self.funcs.get(key, [0, 0, 0.0, 0.0])

    def metrics(self) -> dict:
        """The per-layer metrics, each as (value, unit)."""
        f, c = self.func, self.counts
        out = {}
        for layer in MODULES:
            _, calls, total, own = self.layers.get(layer, [0, 0, 0.0, 0.0])
            out[f"{layer}.calls"] = (calls, "count")
            out[f"{layer}.total_s"] = (total, "s")
            out[f"{layer}.self_s"] = (own, "s")
        interference_calls = f("transfer.apply_interference")[1]
        merges = f("states.StateBucket.merge")[1]
        enumerate_s = f("oracle.enumerate_executions")[2]
        out.update({
            "litmus.parse_s": (f("litmus.parse")[2], "s"),
            "litmus.unroll_s": (f("litmus.unroll")[2], "s"),
            "litmus.cfg_s": (f("litmus.build_cfg")[2], "s"),
            "litmus.cfg_nodes": (c["litmus.cfg_nodes"], "count"),
            "interference.get_interfs_s": (f("interference.get_interfs")[2], "s"),
            "interference.sources": (c["interference.sources"], "count"),
            "engine.rounds": (c["engine.rounds"], "count"),
            "engine.seq_ai_calls": (f("engine.seq_ai")[1], "count"),
            "engine.seq_ai_s": (f("engine.seq_ai")[2], "s"),
            "engine.fixpoint_check_s": (c["engine.fixpoint_check_s"], "s"),
            "transfer.node_calls": (f("transfer.transfer_node")[1], "count"),
            "transfer.node_s": (f("transfer.transfer_node")[2], "s"),
            "transfer.interference_calls": (interference_calls, "count"),
            "transfer.interference_feasible": (
                c["transfer.interference_feasible"] / interference_calls
                if interference_calls else 0.0, "ratio"),
            "transfer.interference_s": (f("transfer.apply_interference")[2], "s"),
            "transfer.final_assert_s": (f("transfer.check_final_assert")[2], "s"),
            "transfer.final_combinations": (c["transfer.final_combinations"], "count"),
            "states.merge_calls": (merges, "count"),
            "states.merge_s": (f("states.StateBucket.merge")[2], "s"),
            "states.fixpoint_states": (c["states.fixpoint_states"], "count"),
            "states.merge_kept": (c["states.merge_kept"] / merges if merges else 0.0,
                                  "ratio"),
            "posets.append_calls": (f("posets.append")[1], "count"),
            "posets.meet_calls": (f("posets.meet")[1], "count"),
            "posets.join_calls": (f("posets.join")[1], "count"),
            "posets.ops_s": (self.layers.get("posets", [0, 0, 0.0])[2], "s"),
            "intervals.val_join_calls": (f("intervals.val_join")[1], "count"),
            "intervals.val_join_s": (f("intervals.val_join")[2], "s"),
            "intervals.refine_calls": (f("intervals.refine")[1], "count"),
            "intervals.refine_s": (f("intervals.refine")[2], "s"),
            "oracle.enumerate_s": (enumerate_s, "s"),
            "oracle.executions": (c["oracle.executions"], "count"),
            "oracle.executions_per_s": (
                c["oracle.executions"] / enumerate_s if enumerate_s else 0.0, "1/s"),
            "oracle.validate_s": (f("oracle.validate_execution")[2], "s"),
            "oracle.soundness_s": (f("oracle.check_soundness")[2], "s"),
            "randprog.generate_s": (f("randprog.random_program")[2], "s"),
            "cli.analyze_file_s": (f("cli.analyze_file")[3], "s"),
        })
        return out

    def write(self, path) -> None:
        """Write the spans, then one line per wrapped function, as JSON lines."""
        with open(path, "w") as fh:
            for span, parent, op, name, start, end in self.spans:
                fh.write(json.dumps({"span": span, "parent": parent, "op": op,
                                     "name": name, "start": start, "end": end}) + "\n")
            for key, (_, calls, total, own) in sorted(self.funcs.items()):
                if calls:
                    fh.write(json.dumps({"function": key, "calls": calls,
                                         "total_s": total, "self_s": own}) + "\n")
