"""The fixpoint's shortcuts against the code they replaced, kept here as the
reference: the batched interference kernel against, per source state, the
view test with two `posets.less` tests and a second build for the loaded
register, the compiled assertion check against the reference `refine` over
each state's full memory, nodes that pass their predecessor's states on against
a fresh bucket merge, passes over the heads against passes over all labels,
and the round loop that iterates only the heads and computes the tails in
a last pass against the plain one, which iterates every label.

Every call the analyses make is checked, each (target, source) pair of an
interference batch on its own, over the corpus, `random_program(0..999)`,
Peterson-3 and -4 and the looped programs.  The analyses run with full
tails (`TransferConfig.project_tails` off), so every label holds full
states, and the default, which projects them past each thread's boundary,
must prove every site that they prove.  The random programs assert
only a postcondition, so the assertion check also runs on drawn conditions
at every label of the fixpoints of `random_program(0..499)`.  The plain
round loop runs every program but `random_program(500..999)`."""

import copy
import random

import pytest

from ramosaic import engine, transfer
from ramosaic import posets as P
from ramosaic.engine import tmai
from ramosaic.intervals import val_join
from ramosaic.litmus import (And, AssertInst, BinOp, BoolLit, Cmp, Label, Lit, Name, Nop,
                             Or, build_cfg, negate, parse, unroll)
from ramosaic.randprog import random_program
from ramosaic.states import AbstractState, StateBucket, StateSet
from ramosaic.transfer import AnalysisContext, TransferConfig, Verdict

from conftest import BENCH_DIR, LOOPED_SOURCES, corpus_files, peterson
from intervals_reference import refine

FULL_TAILS = TransferConfig(project_tails=False)


def apply_interference_by_less(ctx, target, source, src_event, reg=None):
    """The view rule with `less` tested both ways on the target's and the
    source's posets, read off the table's id-to-poset map, intervals joined
    with `val_join` in place of the join memo, and the loaded register
    written by a second build."""
    table = ctx.posets
    var = src_event.var
    k = target.layout.mo_slot[var]
    new_mo = []
    for i, (pt, ps) in enumerate(zip(target.mo, source.mo)):
        if i == k:
            pt = table.append(pt, src_event)
            if table.posets[pt].bottom:
                return None
        met = table.meet(pt, ps)
        if table.posets[met].bottom:
            return None
        new_mo.append(met)
    src_slot = source.layout.mem_slot
    values = ctx.values
    new_mem = list(target.mem)
    for v in ctx.program.shared_names():
        i, j = target.layout.mem_slot[v], target.layout.mo_slot[v]
        sv = source.mem[src_slot[v]]
        if v == var:
            new_mem[i] = sv
            continue
        pt, ps = table.posets[target.mo[j]], table.posets[source.mo[j]]
        if pt is not ps:
            src_below = P.less(ps, pt)
            if src_below != P.less(pt, ps):
                if src_below:
                    new_mem[i] = sv
                continue
        new_mem[i] = values.intern(val_join(values.values[new_mem[i]], values.values[sv]))
    out = AbstractState(tuple(new_mo), tuple(new_mem), target.layout)
    if reg is not None:
        out = out.slot_update(mem=((reg, source.mem[src_slot[var]]),))
    return out


def _published_by_scan(p, ev) -> bool:
    """p holds ev or an instance of ev's label and thread bumped past it."""
    return any(e.label == ev.label and e.thread == ev.thread and e.instance >= ev.instance
               for e in p.events)


def check_assert_full(states, cond, slots) -> Verdict:
    """One `refine` over the full memory of every state."""
    neg = negate(cond)
    witnesses = tuple(s for s in states
                      if refine(s.mem, neg, slots, s.layout.values) is not None)
    return Verdict(not witnesses, witnesses)


CMP_OPS = ("==", "!=", "<", "<=", ">", ">=")


def drawn_conditions(rng: random.Random, idents: list) -> tuple:
    """Three conditions over the given identifiers."""
    a, b = rng.choice(idents), rng.choice(idents)
    k = rng.randint(0, 3)
    op = lambda: rng.choice(CMP_OPS)  # noqa: E731
    return (Cmp(op(), Name(a), Lit(k)),
            Or(Cmp(op(), Name(a), Name(b)), And(Cmp(op(), Name(b), Lit(k)), BoolLit(False))),
            And(Cmp(op(), BinOp("+", Name(a), Lit(1)), Name(b)), Cmp(op(), Name(b), Lit(k))))


class _PairMemoTable(P.PosetTable):
    """The poset table with the meet memo as it was before it had rows:
    one dict keyed by operand pairs, each meet stored under both orders."""

    __slots__ = ("pair_meets",)

    def __init__(self, *args):
        self.pair_meets = {}
        super().__init__(*args)

    def meet(self, p1: int, p2: int) -> int:
        memo = self.pair_meets
        out = memo.get((p1, p2))
        if out is None:
            posets = self.posets
            out = memo[p1, p2] = memo[p2, p1] = self.intern(
                P.meet(posets[p1], posets[p2], self.sb, self.abstract, self.rmw_critical))
        return out


def interference_per_pair(ctx, target, sources, src_event, reg=None, cas=False):
    """The batch as the reference rule on each source state that published
    the event, in order."""
    k = target.layout.mo_slot[src_event.var]
    out = []
    for source in sources:
        if cas and not _published_by_scan(ctx.posets.posets[source.mo[k]], src_event):
            continue
        s = apply_interference_by_less(ctx, target, source, src_event, reg)
        if s is not None:
            out.append(s)
    return out


def plain_rounds(ctx, max_iterations: int) -> tuple:
    """The round loop with no reuse: every pass runs over all labels in
    every round, and each label's local tuple is merged, state by state,
    into a bucket of the label's own.  Returns σ, its rounds and effective
    rounds, those after which the heads' part of σ first repeated, and the
    local maps of the last round."""
    sigma = StateSet(ctx.posets)
    rounds = effective = 0
    fingerprint = sigma.fingerprint()
    seen = set()
    heads_stop = None
    heads_fingerprint = _heads_fingerprint(ctx, sigma)
    heads_seen = set()
    while True:
        if rounds >= max_iterations:
            raise engine.Divergence(f"no fixpoint after {max_iterations} rounds")
        seen.add(fingerprint)
        heads_seen.add(heads_fingerprint)
        rounds += 1
        local_maps = [engine.seq_ai(ctx, t.name, sigma) for t in ctx.program.threads]
        for local in local_maps:
            for lbl in sorted(local):
                bucket = sigma._by_label.setdefault(lbl, StateBucket(ctx.posets))
                for s in local[lbl]:
                    bucket.merge(s)
        new = _heads_fingerprint(ctx, sigma)
        if heads_stop is None:
            if new == heads_fingerprint:
                heads_stop = (rounds, effective)
            elif new in heads_seen:
                heads_stop = (rounds, effective + 1)
            heads_fingerprint = new
        new = sigma.fingerprint()
        if new == fingerprint:
            break
        effective += 1
        if new in seen:
            break
        fingerprint = new
    assert heads_stop is not None  # the heads repeat no later than all of σ
    return sigma, rounds, effective, heads_stop, local_maps


def _heads_fingerprint(ctx, sigma) -> frozenset:
    return frozenset(item for item in sigma.fingerprint() if item[0] not in ctx.tails)


def _digest(states, verdicts, rounds, effective, widened) -> tuple:
    return (states.dump(),
            sorted((site, v.proved, [w.fmt() if isinstance(w, AbstractState) else w
                                     for w in v.witnesses]) for site, v in verdicts.items()),
            rounds, effective, sorted(map(str, widened)))


def plain_digest(program, max_iterations: int = 100) -> tuple:
    """The digest of the plain round loop with the reference interference
    rule and the pair-keyed meet memo, with the schedule that iterates only
    the heads: σ at every head as the plain loop leaves it, and at every
    tail a fresh merge of the tail's tuple in the plain loop's last round;
    the rounds and effective rounds after which the heads repeat, plus one
    for the last pass, effective when it gives states."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(P, "PosetTable", _PairMemoTable)
        mp.setattr(transfer, "apply_interference", interference_per_pair)
        ctx = AnalysisContext(program, build_cfg(program), FULL_TAILS)
        assert isinstance(ctx.posets, _PairMemoTable)
        plain, _, _, (rounds, effective), last_round = plain_rounds(ctx, max_iterations)
        last_local = {lbl: states for local in last_round for lbl, states in local.items()}
        sigma = StateSet(ctx.posets)
        for lbl in ctx.cfg.nodes.keys() - ctx.cfg.entries.values():
            sigma.merge_all(lbl, last_local.get(lbl, ()) if lbl in ctx.tails else plain.at(lbl))
        rounds += 1
        effective += any(sigma.at(lbl) for lbl in ctx.tails)
        return _digest(sigma, engine._evaluate(ctx, sigma), rounds, effective, ctx.widened)


def _same_state(a, b) -> bool:
    if a is None or b is None:
        return a is b
    return a == b and a.layout is b.layout


def _result_digest(r) -> tuple:
    return _digest(r.states, r.verdicts, r.iterations_total, r.iterations_effective, r.widened)


@pytest.fixture(scope="module")
def checked():
    """Run the analyses with each replaced step checked against its
    reference; per check, the number of calls and the calls that differ."""
    calls = {"interference": [0, []], "assert": [0, []], "pass": [0, []], "heads": [0, []],
             "runs": []}  # (program, digest) of every run with a plain twin
    real_apply = transfer.apply_interference
    real_check = engine.check_assert
    real_seq_ai = engine.seq_ai

    def apply_checked(ctx, target, sources, src_event, reg=None, cas=False):
        """The batch against the reference on each (target, source) pair
        whose source published the event, concatenated in order."""
        got = real_apply(ctx, target, sources, src_event, reg, cas)
        want = []
        k = target.layout.mo_slot[src_event.var]
        for source in sources:
            if cas and not _published_by_scan(ctx.posets.posets[source.mo[k]], src_event):
                continue
            calls["interference"][0] += 1
            out = apply_interference_by_less(ctx, target, source, src_event, reg)
            if out is not None:
                want.append(out)
        if len(got) != len(want) or not all(map(_same_state, got, want)):
            calls["interference"][1].append((target.fmt(), [s.fmt() for s in sources],
                                             src_event))
        return got

    def check_checked(states, cond, slots):
        got = real_check(states, cond, slots)
        want = check_assert_full(states, cond, slots)
        calls["assert"][0] += 1
        if (got.proved != want.proved or len(got.witnesses) != len(want.witnesses)
                or not all(a is b for a, b in zip(got.witnesses, want.witnesses))):
            calls["assert"][1].append((cond, len(states)))
        return got

    def check_pass_through(ctx, tname, local, heads_only):
        """The tuple of each nop or assert with one predecessor that the
        pass computed against a fresh merge of that predecessor's tuple,
        and, past the entry, to be that very tuple."""
        cfg = ctx.cfg
        entry = cfg.entries[tname]
        for lbl in cfg.rpo[tname]:
            preds = cfg.preds[lbl]
            if len(preds) != 1 or not isinstance(cfg.nodes[lbl], (Nop, AssertInst)):
                continue
            if heads_only and lbl in ctx.tails:
                continue
            pre = (ctx.initial_states[tname],) if preds[0] == entry else local.get(preds[0], ())
            got = local.get(lbl, ())
            bucket = StateBucket(ctx.posets)
            for s in pre:
                bucket.merge(s)
            calls["pass"][0] += 1
            if got != bucket.states() or (preds[0] != entry and got and got is not pre):
                calls["pass"][1].append((lbl, len(pre)))

    def seq_ai_checked(ctx, tname, global_ss, heads_only=False):
        """The pass, with its pass-through labels checked; a pass over the
        heads alone is also checked to give, at every label, the tuple of
        a pass over all labels, with an empty node memo, at the heads, and
        nothing at the tails, and that pass's pass-through labels are
        checked too."""
        local = real_seq_ai(ctx, tname, global_ss, heads_only)
        check_pass_through(ctx, tname, local, heads_only)
        if heads_only:
            fresh = copy.copy(ctx)
            fresh.node_memo, fresh.widened = {}, set()
            full = real_seq_ai(fresh, tname, global_ss)
            check_pass_through(fresh, tname, full, False)
            calls["heads"][0] += 1
            if local != {lbl: states for lbl, states in full.items() if lbl not in ctx.tails}:
                calls["heads"][1].append(tname)
        return local

    corpus = [unroll(parse(f.read_text()), 2) for f in corpus_files()]
    runs = corpus + [parse(peterson(n)) for n in (3, 4)]
    runs += [parse(src) for src in LOOPED_SOURCES]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(transfer, "apply_interference", apply_checked)
        mp.setattr(engine, "check_assert", check_checked)
        mp.setattr(engine, "seq_ai", seq_ai_checked)
        for program in runs:
            r = tmai(program, FULL_TAILS, max_iterations=100)
            calls["runs"].append((program, _result_digest(r)))
        for seed in range(1000):
            program = random_program(seed)
            result = tmai(program, FULL_TAILS, max_iterations=100)
            if seed >= 500:  # these add checked kernel and pass-through calls
                continue
            calls["runs"].append((program, _result_digest(result)))
            ctx = AnalysisContext(program, result.cfg, FULL_TAILS)
            rng = random.Random(seed)
            for lbl in result.states.labels():
                slots = ctx.slots[result.cfg.thread_of[lbl]]
                for cond in drawn_conditions(rng, sorted(slots)):
                    check_checked(result.states.at(lbl), cond, slots)
    return calls


def test_view_test_from_the_meet_matches_less(checked):
    n, mismatches = checked["interference"]
    assert n > 10_000 and not mismatches, (n, mismatches[:5])


def test_projected_assert_check_matches_full_refine(checked):
    n, mismatches = checked["assert"]
    assert n > 5_000 and not mismatches, (n, mismatches[:5])


def test_pass_through_nodes_match_a_fresh_merge(checked):
    n, mismatches = checked["pass"]
    assert n > 4_000 and not mismatches, (n, mismatches[:5])



def test_a_pass_over_the_heads_matches_a_full_pass(checked):
    n, mismatches = checked["heads"]
    assert n > 4_000 and not mismatches, (n, mismatches[:5])


def test_rounds_match_the_plain_round_loop(checked):
    """The rounds over the heads and the last pass, with the meet memo's
    rows, give the plain round loop's states at the heads, byte for byte,
    with the per-pair reference rule and the pair-keyed meet memo.  Each
    tail holds a fresh merge of its tuple in the plain loop's last round,
    and the verdicts, the widened labels, and the rounds, those after which
    the plain loop's heads repeat plus the last pass, follow.  The inputs
    hold a widened loop header and a thread with no instruction, whose
    exit, right after its entry, holds the entry state."""
    runs = checked["runs"]
    assert len(runs) > 500
    mismatches = [i for i, (program, want) in enumerate(runs) if plain_digest(program) != want]
    assert not mismatches, mismatches[:5]
    assert any(want[4] for _, want in runs)
    empty = random_program(69)
    cfg = build_cfg(empty)
    assert cfg.rpo["t1"] == (cfg.entries["t1"], cfg.exits["t1"])
    assert cfg.exits["t1"] in tmai(empty, FULL_TAILS).states.labels()


def test_projection_loses_no_proof(checked):
    """The default, which projects past each thread's boundary, proves every
    site that the full-tails run proves on the same inputs, and some more:
    corpus `lamport_fp`'s `i` among them."""
    gained = []
    for program, want in checked["runs"]:
        full = {site: proved for site, proved, _ in want[1]}
        got = {site: v.proved for site, v in tmai(program, max_iterations=100).verdicts.items()}
        assert got.keys() == full.keys()
        assert all(got[site] for site, proved in full.items() if proved), program
        gained += [site for site, proved in full.items() if got[site] and not proved]
    assert "i" in gained and len(gained) >= 4, gained


# a reader that spins on a load after its last store, which w reads,
# counting its spins: the loop is a tail, so only the last pass visits it,
# and widens it
SPIN_AFTER_STORE_SRC = """
vars y = 0, d = 0;
thread w { o: v = load d; a: store d 7; b: store y 1; }
thread t {
  s: store d 1;
  l0: r = load y;
  i0: k = 0;
  while (r != 1) { l1: r = load y; i1: k = k + 1; }
  g: q = load d;
  z: assert(k >= 0);
  u: assert(q == 7);
}
"""


def test_a_spin_after_the_last_store_is_widened_in_the_last_pass(monkeypatch):
    """The loop is widened in t's last pass, not before, and the run ends
    with the verdicts and the widened header of the plain round loop.  The
    last pass runs w and then t over all labels, after the passes over the
    heads."""
    program = parse(SPIN_AFTER_STORE_SRC)
    widened_before = []
    real_seq_ai = engine.seq_ai

    def recording_seq_ai(ctx, tname, global_ss, heads_only=False):
        widened_before.append((heads_only, set(ctx.widened)))
        return real_seq_ai(ctx, tname, global_ss, heads_only)

    monkeypatch.setattr(engine, "seq_ai", recording_seq_ai)
    r = tmai(program, FULL_TAILS)
    header = next(lbl for lbl in r.cfg.loop_headers)
    assert r.widened == {header}
    assert widened_before[-2:] == [(False, set()), (False, set())]
    assert all(heads_only for heads_only, _ in widened_before[:-2])
    assert {site: v.proved for site, v in r.verdicts.items()} == {"z": True, "u": False}
    monkeypatch.undo()
    assert plain_digest(program) == _result_digest(tmai(program, FULL_TAILS))
    ctx = AnalysisContext(program, build_cfg(program), FULL_TAILS)
    plain, *_ = plain_rounds(ctx, 100)
    assert ctx.widened == {header}
    assert {site: v.proved for site, v in engine._evaluate(ctx, plain).items()} == \
        {site: v.proved for site, v in r.verdicts.items()}


def test_threads_that_end_in_a_head_run_one_last_pass():
    """With full tails, each thread of `lb.lit` ends in a store that the
    other thread reads, so its one tail past the entry is its exit.  Each
    thread still runs one last pass, after the passes over the heads; each
    exit holds, in a bucket of its own, a fresh merge of its store's tuple
    in that pass; and the rounds are those of the plain loop plus the last
    pass, which is effective."""
    program = parse((BENCH_DIR / "lb.lit").read_text())
    cfg = build_cfg(program)
    ctx = AnalysisContext(program, cfg, FULL_TAILS)
    exits = {t: cfg.exits[t] for t in ("t1", "t2")}
    assert ctx.tails - set(cfg.entries.values()) == set(exits.values())
    assert (cfg.preds[exits["t1"]], cfg.preds[exits["t2"]]) == ((Label("a"),), (Label("b"),))
    passes = []
    real_seq_ai = engine.seq_ai

    def recording_seq_ai(ctx, tname, global_ss, heads_only=False):
        local = real_seq_ai(ctx, tname, global_ss, heads_only)
        passes.append((tname, heads_only, local))
        return local

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "seq_ai", recording_seq_ai)
        r = tmai(program, FULL_TAILS)
    heads_passes = [(t, heads_only) for t, heads_only, _ in passes[:-2]]
    assert heads_passes == [("t1", True), ("t2", True)] * (r.iterations_total - 1)
    for (tname, heads_only, local), (want, exit_) in zip(passes[-2:], exits.items()):
        assert (tname, heads_only) == (want, False)
        pred = cfg.preds[exit_][0]
        assert local[exit_] is local[pred]
        assert r.states.at(exit_) == local[pred] != ()
        assert r.states._by_label[exit_] is not r.states._by_label[pred]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(P, "PosetTable", _PairMemoTable)
        mp.setattr(transfer, "apply_interference", interference_per_pair)
        plain_ctx = AnalysisContext(program, cfg, FULL_TAILS)
        _, rounds, effective, _, _ = plain_rounds(plain_ctx, 100)
    assert (r.iterations_total, r.iterations_effective) == (rounds + 1, effective + 1) == (5, 4)
    assert plain_digest(program) == _result_digest(r)
