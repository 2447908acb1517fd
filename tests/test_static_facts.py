"""The analyzer's static facts (write events, the sequenced-before index and
the interference maps) read the CFG's access table and reach sets.  Each
must equal what the per-module `isinstance` scans computed before, which
are kept here as the references."""

from typing import Dict, Tuple

from ramosaic.engine import tmai
from ramosaic.interference import CTX, get_interfs
from ramosaic.litmus import (Cas, Cfg, Fadd, Label, LoadInst, LockInst,
                             Program, Store, UnlockInst, build_cfg, parse,
                             unroll)
from ramosaic.posets import Event, SbIndex
from ramosaic.randprog import random_program
from ramosaic.transfer import AnalysisContext, TransferConfig

from conftest import LOOPED_SOURCES, corpus_files

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


def _sb_after(cfg: Cfg) -> dict:
    groups: dict = {}
    for lbl, instr in cfg.nodes.items():
        if isinstance(instr, (Store, Cas, Fadd)):
            groups.setdefault((cfg.thread_of[lbl], instr.var), []).append(lbl)
        elif isinstance(instr, (LockInst, UnlockInst)):
            groups.setdefault((cfg.thread_of[lbl], instr.mutex), []).append(lbl)
    after = {}
    for labels in groups.values():
        key_of = {lbl: (lbl.name, lbl.instance) for lbl in labels}
        members = frozenset(labels)
        for a in labels:
            after[key_of[a]] = frozenset(
                key_of[b] for b in cfg.reachable(a) & members if b != a)
    return after


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


# --------------------------------------------------------------------------
# Equality over the corpus, random programs, loops and a long thread
# --------------------------------------------------------------------------

def _check(program: Program) -> None:
    cfg = build_cfg(program)
    assert get_interfs(program, cfg) == _get_interfs(program, cfg)
    assert SbIndex.from_cfg(cfg)._after == _sb_after(cfg)
    ctx = AnalysisContext(program, cfg, TransferConfig())
    assert list(ctx.events.items()) == list(_events(cfg).items())


def test_static_facts_on_the_corpus():
    for f in corpus_files():
        program = parse(f.read_text())
        _check(program)
        _check(unroll(program, 2))


def test_static_facts_on_random_programs():
    for seed in range(200):
        _check(random_program(seed))


def test_static_facts_on_looped_programs():
    for src in (*LOOPED_SOURCES, TWO_SECTIONS_IN_A_LOOP):
        _check(parse(src))
        _check(unroll(parse(src), 2))


def test_static_facts_on_a_thread_of_300_sections():
    _check(sections_thread(300))


def test_two_sections_in_a_loop_are_analyzed_when_unrolled():
    """Inside t's loop each of its two sections reaches the other, which
    no lock pairing could match.  Unrolled, every lock reads from the
    unlocks before it: each unlock and each thread's exit has states."""
    unrolled = unroll(parse(TWO_SECTIONS_IN_A_LOOP), 2)
    cfg = build_cfg(unrolled)
    states = tmai(unrolled, cfg=cfg).states
    unlocks = [lbl for lbl, (kind, _) in cfg.accesses.items() if kind == "unlock"]
    assert len(unlocks) == 6
    assert all(states.at(lbl) for lbl in (*unlocks, *cfg.exits.values()))
