"""Interference sources, per thread and label.

A load's or rmw's candidates are ctx, which stands for reading the
propagated in-thread state, then every other thread's writes of the same
variable; a lock's are ctx, then the other threads' unlocks of its mutex.
`transfer.AnalysisContext` builds its one map of label to sources from
`get_interfs` when the analysis starts, and the transfer tries every
candidate and keeps the feasible results.
"""

from __future__ import annotations

from typing import Dict, Tuple

from .litmus import Cfg, Label, Program

CTX = Label("%ctx")


def get_interfs(program: Program, cfg: Cfg) -> Dict[str, Dict[Label, Tuple[Label, ...]]]:
    """ctx plus all other-thread writes of the variable, per load/rmw label;
    for lock labels, other threads' unlocks of the mutex."""
    # Writes and unlocks publish to their location, loads and locks read
    # from it; a variable and a mutex never share a name.
    accesses = sorted(cfg.accesses.items())
    published: Dict[str, list] = {}
    for lbl, (kind, loc) in accesses:
        if kind in ("store", "rmw", "unlock"):
            published.setdefault(loc, []).append(lbl)
    thread_of = cfg.thread_of
    out: Dict[str, Dict[Label, Tuple[Label, ...]]] = {t.name: {} for t in program.threads}
    for lbl, (kind, loc) in accesses:
        if kind in ("load", "rmw", "lock"):
            tname = thread_of[lbl]
            out[tname][lbl] = (CTX, *(l for l in published.get(loc, ())
                                      if thread_of[l] != tname))
    return out
