"""The analyzer's static facts (write events, the sequenced-before index,
the interference maps and each thread's boundary) read the CFG's access
table and `Cfg.reachable`.  Each must equal what the per-module `isinstance`
scans computed before, or a brute-force scan of its definition, which are
kept here and in `conftest.sb_after` as the references."""

from typing import Dict, Tuple

from ramosaic.engine import tmai
from ramosaic.interference import CTX, get_interfs
from ramosaic.litmus import (AssertInst, Assign, Assume, Cas, Cfg, Fadd,
                             Label, LoadInst, LockInst, Nop, Program, Store,
                             UnlockInst, build_cfg, expr_names, parse, unroll)
from ramosaic.posets import Event, SbIndex
from ramosaic.randprog import random_program
from ramosaic.transfer import AnalysisContext, TransferConfig

from conftest import LOOPED_SOURCES, corpus_files, sb_after

TWO_SECTIONS_IN_A_LOOP = """
vars x = 0;
locks m;
thread t {
  i: r = 0;
  while (r < 2) {
    l1: lock m; s1: store x 1; u1: unlock m;
    l2: lock m; s2: store x 2; u2: unlock m;
    f: r = r + 1;
  }
}
thread u {
  while (q < 2) { l3: lock m; s3: store x 3; u3: unlock m; g: q = q + 1; }
}
"""

# t's last access comes before its loop, which no boundary precedes
LOOP_AFTER_THE_LAST_ACCESS = """
vars x = 0;
thread t { l: r = load x; while (q < 2) { g: q = q + 1; } h: q = r + q; }
thread u { w: store x 1; }
"""

# t's last access is a store that u reads, so no label before t's branches
# is a boundary; an edge that leads over a label, from the branch whose
# condition fails to the join, keeps the label from being one
BRANCHES_AFTER_A_SOURCE = tuple(
    "vars x = 0;\n"
    f"thread t {{ i: r = 1; a: store x 1; {tail} }}\n"
    "thread u { w: s = load x; }\n"
    for tail in (
        "if (r == 1) { b: q = 1; } else { e: q = 2; } c: q = q + 1;",
        "if (r == 1) { b: q = 1; } c: q = q + 1;",
        "if (r == 1) { if (q == 0) { b: q = 1; } d: q = q + 2; } else { e: q = 2; }",
        "if (r == 1) { b: q = 1; } if (q == 1) { e: q = 2; } c: q = q + 1;",
        "while (q < 2) { g: q = q + 1; } if (q == 2) { b: r = 2; } c: q = r;",
    ))


def sections_thread(n: int) -> Program:
    body = " ".join(f"l{i}: lock m; s{i}: store x {i}; u{i}: unlock m;" for i in range(n))
    return parse(f"vars x = 0;\nlocks m;\nthread t {{ {body} }}\n")


# --------------------------------------------------------------------------
# The references, as the analyzer computed them before the access table
# --------------------------------------------------------------------------

def _events(cfg: Cfg) -> Dict[Label, Event]:
    events: Dict[Label, Event] = {}
    for lbl, instr in cfg.nodes.items():
        tname = cfg.thread_of[lbl]
        if isinstance(instr, Store):
            events[lbl] = Event(lbl.name, lbl.instance, tname, "store", instr.var)
        elif isinstance(instr, (Cas, Fadd)):
            events[lbl] = Event(lbl.name, lbl.instance, tname, "rmw", instr.var)
        elif isinstance(instr, LockInst):
            events[lbl] = Event(lbl.name, lbl.instance, tname, "lock", instr.mutex)
        elif isinstance(instr, UnlockInst):
            events[lbl] = Event(lbl.name, lbl.instance, tname, "unlock", instr.mutex)
    return events


def _get_interfs(program: Program, cfg: Cfg) -> Dict[str, Dict[Label, Tuple[Label, ...]]]:
    writes: Dict[str, list] = {}
    unlocks: Dict[str, list] = {}
    for lbl, instr in sorted(cfg.nodes.items()):
        if isinstance(instr, (Store, Cas, Fadd)):
            writes.setdefault(instr.var, []).append(lbl)
        elif isinstance(instr, UnlockInst):
            unlocks.setdefault(instr.mutex, []).append(lbl)
    out: Dict[str, Dict[Label, Tuple[Label, ...]]] = {t.name: {} for t in program.threads}
    for lbl, instr in sorted(cfg.nodes.items()):
        tname = cfg.thread_of[lbl]
        if isinstance(instr, (LoadInst, Cas, Fadd)):
            cands = [l for l in writes.get(instr.var, ())
                     if cfg.thread_of[l] != tname]
            out[tname][lbl] = (CTX, *cands)
        elif isinstance(instr, LockInst):
            cands = [l for l in unlocks.get(instr.mutex, ())
                     if cfg.thread_of[l] != tname]
            out[tname][lbl] = (CTX, *cands)
    return out


def _walk(cfg: Cfg, a: Label) -> set:
    """The labels reachable from `a` along CFG edges, `a` only through a
    loop."""
    seen, stack = set(), list(cfg.succs[a])
    while stack:
        b = stack.pop()
        if b not in seen:
            seen.add(b)
            stack.extend(cfg.succs[b])
    return seen


def _boundaries(program: Program, cfg: Cfg) -> Dict[Label, list]:
    """Each thread's boundary -> the sorted memory keys its states keep.
    Scans every label of the thread in reverse post-order, the entry aside,
    and takes the first that is a tail (no interference source is reachable
    from it, and it is none), not a nop or assert with one predecessor, and
    from which neither itself, an access nor a loop header is reachable,
    while every label reachable from it has all its predecessors reachable
    from it or equal to it."""
    reach = {a: _walk(cfg, a) for a in cfg.nodes}
    sources = {src for per_thread in _get_interfs(program, cfg).values()
               for srcs in per_thread.values() for src in srcs if src is not CTX}
    shared = set(program.shared_names())
    out = {}
    for tname, rpo in cfg.rpo.items():
        found = [
            lbl for lbl in rpo[1:]
            if lbl not in sources and not reach[lbl] & sources
            and not (isinstance(cfg.nodes[lbl], (Nop, AssertInst)) and len(cfg.preds[lbl]) == 1)
            and lbl not in reach[lbl]
            and not any(a in cfg.accesses or a in cfg.loop_headers for a in reach[lbl])
            and all(p == lbl or p in reach[lbl] for a in reach[lbl] for p in cfg.preds[a])]
        if not found:
            continue
        lbl = found[0]
        names = set(program.thread_registers(tname)) & program.postcondition_names
        for a in (lbl, *reach[lbl]):
            instr = cfg.nodes[a]
            if isinstance(instr, (LoadInst, Cas, Fadd)) and a == lbl:
                names.add(instr.reg)
            elif isinstance(instr, Assign):
                names |= {instr.reg, *expr_names(instr.value)}
            elif isinstance(instr, (Assume, AssertInst)):
                names |= expr_names(instr.cond)
        out[lbl] = sorted(n if n in shared else program.register_key(tname, n) for n in names)
    return out


# --------------------------------------------------------------------------
# Equality over the corpus, random programs, loops and a long thread
# --------------------------------------------------------------------------

def _check(program: Program) -> None:
    cfg = build_cfg(program)
    assert get_interfs(program, cfg) == _get_interfs(program, cfg)
    assert SbIndex.from_cfg(cfg)._after == sb_after(cfg)
    ctx = AnalysisContext(program, cfg, TransferConfig())
    assert list(ctx.events.items()) == list(_events(cfg).items())
    assert {lbl: sorted(layout.mem_keys[i] for i in layout.live)
            for lbl, layout in ctx.boundaries.items()} == _boundaries(program, cfg)


def test_static_facts_on_the_corpus():
    for f in corpus_files():
        program = parse(f.read_text())
        _check(program)
        _check(unroll(program, 2))


def test_static_facts_on_random_programs():
    for seed in range(200):
        _check(random_program(seed))


def test_static_facts_on_looped_programs():
    for src in (*LOOPED_SOURCES, TWO_SECTIONS_IN_A_LOOP, LOOP_AFTER_THE_LAST_ACCESS):
        _check(parse(src))
        _check(unroll(parse(src), 2))


def test_static_facts_on_branches_after_the_last_access():
    for src in BRANCHES_AFTER_A_SOURCE:
        _check(parse(src))
        _check(unroll(parse(src), 2))


def test_static_facts_on_a_thread_of_300_sections():
    _check(sections_thread(300))


class _CountingPreds(dict):
    """A predecessor map that counts the reads of one thread's labels."""

    def __init__(self, cfg: Cfg, thread: str):
        super().__init__(cfg.preds)
        self.thread_of, self.thread, self.reads = cfg.thread_of, thread, 0

    def __getitem__(self, lbl):
        self.reads += self.thread_of[lbl] == self.thread
        return super().__getitem__(lbl)


def test_a_long_tail_after_a_loop_is_walked_once():
    """The boundary search scans a thread backward once, from its end to
    its last access or loop exit, and reads each scanned label's
    predecessors once: after a loop and a load, t's 600 assignments are
    scanned once each, where a scan that looks past each label again
    would read their predecessors about 180 000 times."""
    assigns = " ".join(f"a{i}: s = s + {i};" for i in range(600))
    program = parse("vars x = 0;\n"
                    f"thread t {{ while (q < 2) {{ g: q = q + 1; }} l: r = load x; {assigns} }}\n"
                    "thread u { w: store x 1; }\n")
    cfg = build_cfg(program)
    ctx = AnalysisContext(program, cfg, TransferConfig())
    assert Label("l") in ctx.boundaries
    cfg.preds = counting = _CountingPreds(cfg, "t")
    again = ctx._boundaries()
    assert {lbl: layout.live for lbl, layout in again.items()} == \
        {lbl: layout.live for lbl, layout in ctx.boundaries.items()}
    assert 600 <= counting.reads <= 2 * len(cfg.rpo["t"])
    _check(program)


def test_two_sections_in_a_loop_are_analyzed_natively():
    """Within one iteration t's first section precedes its second, not the
    other way round, so every lock finds an unlock to read from: every
    unlock and each thread's exit has states."""
    program = parse(TWO_SECTIONS_IN_A_LOOP)
    cfg = build_cfg(program)
    states = tmai(program, cfg=cfg).states
    unlocks = [lbl for lbl, (kind, _) in cfg.accesses.items() if kind == "unlock"]
    assert len(unlocks) == 3
    assert all(states.at(lbl) for lbl in (*unlocks, *cfg.exits.values()))


def test_two_sections_in_a_loop_are_analyzed_when_unrolled():
    """Unrolled, every lock reads from the unlocks before it: each unlock
    and each thread's exit has states."""
    unrolled = unroll(parse(TWO_SECTIONS_IN_A_LOOP), 2)
    cfg = build_cfg(unrolled)
    states = tmai(unrolled, cfg=cfg).states
    unlocks = [lbl for lbl, (kind, _) in cfg.accesses.items() if kind == "unlock"]
    assert len(unlocks) == 6
    assert all(states.at(lbl) for lbl in (*unlocks, *cfg.exits.values()))
