"""The fixpoint's shortcuts against the code they replaced, kept here as the
reference: the batched interference kernel against, per source state, the
view test with two `posets.less` tests and a second build for the loaded
register, the assertion check on projections against a `refine` over each
state's full memory, nodes that pass their predecessor's states on against
a fresh bucket merge, and the round loop that shares buckets against the
plain one.

Every call the analyses make is checked, each (target, source) pair of an
interference batch on its own, over the corpus, `random_program(0..999)`,
Peterson-3 and -4 and the looped programs.  The random programs assert
only a postcondition, so the assertion check also runs on drawn conditions
at every label of the fixpoints of `random_program(0..499)`.  The plain
round loop runs every program but `random_program(500..999)`."""

import random

import pytest

from ramosaic import engine, transfer
from ramosaic import posets as P
from ramosaic.engine import tmai
from ramosaic.intervals import refine, val_join
from ramosaic.litmus import (And, AssertInst, BinOp, BoolLit, Cmp, Lit, Name, Nop, Or,
                             build_cfg, negate, parse, unroll)
from ramosaic.randprog import random_program
from ramosaic.states import AbstractState, StateBucket, StateSet
from ramosaic.transfer import AnalysisContext, TransferConfig, Verdict

from conftest import LOOPED_SOURCES, corpus_files, peterson


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
    """The round loop with no reuse: every pass runs in every round, and
    each label's local tuple is merged, state by state, into a bucket of
    the label's own."""
    sigma = StateSet(ctx.posets)
    rounds = effective = 0
    fingerprint = sigma.fingerprint()
    seen = set()
    while True:
        if rounds >= max_iterations:
            raise engine.Divergence(f"no fixpoint after {max_iterations} rounds")
        seen.add(fingerprint)
        rounds += 1
        local_maps = [engine.seq_ai(ctx, t.name, sigma) for t in ctx.program.threads]
        for local in local_maps:
            for lbl in sorted(local):
                bucket = sigma._by_label.setdefault(lbl, StateBucket(ctx.posets))
                for s in local[lbl]:
                    bucket.merge(s)
        new = sigma.fingerprint()
        if new == fingerprint:
            break
        effective += 1
        if new in seen:
            break
        fingerprint = new
    return sigma, rounds, effective


def _digest(states, verdicts, rounds, effective, widened) -> tuple:
    return (states.dump(),
            sorted((site, v.proved, [w.fmt() if isinstance(w, AbstractState) else w
                                     for w in v.witnesses]) for site, v in verdicts.items()),
            rounds, effective, sorted(map(str, widened)))


def plain_digest(program, max_iterations: int = 100) -> tuple:
    """The digest of the plain round loop with the reference interference
    rule and the pair-keyed meet memo."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(P, "PosetTable", _PairMemoTable)
        mp.setattr(transfer, "apply_interference", interference_per_pair)
        ctx = AnalysisContext(program, build_cfg(program), TransferConfig())
        assert isinstance(ctx.posets, _PairMemoTable)
        sigma, rounds, effective = plain_rounds(ctx, max_iterations)
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
    calls = {"interference": [0, []], "assert": [0, []], "pass": [0, []],
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

    def seq_ai_checked(ctx, tname, global_ss):
        """The pass, with the tuple of each nop or assert with one
        predecessor checked against a fresh merge of that predecessor's
        tuple, and, past the entry, to be that very tuple."""
        local = real_seq_ai(ctx, tname, global_ss)
        cfg = ctx.cfg
        entry = cfg.entries[tname]
        for lbl in cfg.rpo[tname]:
            preds = cfg.preds[lbl]
            if len(preds) != 1 or not isinstance(cfg.nodes[lbl], (Nop, AssertInst)):
                continue
            pre = (ctx.initial_states[tname],) if preds[0] == entry else local.get(preds[0], ())
            got = local.get(lbl, ())
            bucket = StateBucket(ctx.posets)
            for s in pre:
                bucket.merge(s)
            calls["pass"][0] += 1
            if got != bucket.states() or (preds[0] != entry and got and got is not pre):
                calls["pass"][1].append((lbl, len(pre)))
        return local

    corpus = [unroll(parse(f.read_text()), 2) for f in corpus_files()]
    runs = [(tmai, p) for p in corpus]
    runs += [(tmai, parse(peterson(n))) for n in (3, 4)]
    runs += [(tmai, parse(src)) for src in LOOPED_SOURCES]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(transfer, "apply_interference", apply_checked)
        mp.setattr(engine, "check_assert", check_checked)
        mp.setattr(engine, "seq_ai", seq_ai_checked)
        for analyze, program in runs:
            r = analyze(program, max_iterations=100)
            calls["runs"].append((program, _result_digest(r)))
        for seed in range(1000):
            program = random_program(seed)
            result = tmai(program, max_iterations=100)
            if seed >= 500:  # these add checked kernel and pass-through calls
                continue
            calls["runs"].append((program, _result_digest(result)))
            ctx = AnalysisContext(program, result.cfg, TransferConfig())
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



def test_rounds_match_the_plain_round_loop(checked):
    """The shared buckets, with the meet memo's rows, give the dumps,
    verdicts, rounds, effective rounds and widened labels of the plain
    round loop with the per-pair reference rule and the pair-keyed meet
    memo.  The inputs hold a widened loop header and a thread with no
    instruction, whose exit follows its entry and so keeps a bucket of its
    own."""
    runs = checked["runs"]
    assert len(runs) > 500
    mismatches = [i for i, (program, want) in enumerate(runs) if plain_digest(program) != want]
    assert not mismatches, mismatches[:5]
    assert any(want[4] for _, want in runs)
    empty = random_program(69)
    cfg = build_cfg(empty)
    assert cfg.rpo["t1"] == (cfg.entries["t1"], cfg.exits["t1"])
    assert cfg.exits["t1"] in tmai(empty).states.labels()
