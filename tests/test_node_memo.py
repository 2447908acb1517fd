"""The node memo: a pass over a thread's CFG reuses a node's merged states
from an earlier pass when its pre-states, its bump and the global states
at its interference sources are unchanged, and the memo never changes what
the analysis computes.

States hold the poset ids of their analysis's table, so a pass over the
states of an earlier run goes through that run's context, or through a
copy of it with an empty memo in place of a fresh context."""

import copy

import pytest

from ramosaic import engine, transfer
from ramosaic.engine import seq_ai, tmai
from ramosaic.litmus import Label, build_cfg, parse, unroll
from ramosaic.randprog import random_program
from ramosaic.states import StateSet
from ramosaic.transfer import AnalysisContext, TransferConfig

from conftest import (LOOPED_SOURCES, READS_SRC, corpus_files, peterson,
                      run_with_context)


def _setup(src: str):
    """The program, its CFG, the states of its `tmai` fixpoint and the
    context of that run."""
    program = parse(src)
    cfg = build_cfg(program)
    result, ctx = run_with_context(tmai, program, cfg=cfg)
    return program, cfg, result.states, ctx


def _fresh(ctx: AnalysisContext) -> AnalysisContext:
    """The context with an empty node memo, sharing its poset table."""
    out = copy.copy(ctx)
    out.node_memo = {}
    return out


def _fresh_pass(ctx, tname, global_ss) -> dict:
    return seq_ai(_fresh(ctx), tname, global_ss)


def _work_per_round(program) -> tuple:
    """Per round of one `tmai` run, the last pass included: [passes,
    transfer_node calls, interference batches]; per fingerprint, taken
    before the first round and after each head round, σ's (label,
    `states()` tuple, frozenset) triples; and the result."""
    rounds: list = []
    buckets: list = []
    real_seq_ai, real_transfer_node = engine.seq_ai, engine.transfer_node
    real_apply = transfer.apply_interference
    real_fingerprint = StateSet.fingerprint

    def counted(k, real):
        def call(*args, **kwargs):
            rounds[-1][k] += 1
            return real(*args, **kwargs)
        return call

    def recording_fingerprint(self):
        rounds.append([0, 0, 0])
        buckets.append([(lbl, b.states(), b.frozen()) for lbl, b in self._by_label.items()])
        return real_fingerprint(self)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "seq_ai", counted(0, real_seq_ai))
        mp.setattr(engine, "transfer_node", counted(1, real_transfer_node))
        mp.setattr(transfer, "apply_interference", counted(2, real_apply))
        mp.setattr(StateSet, "fingerprint", recording_fingerprint)
        result = tmai(program)
    return rounds, buckets, result


def test_confirming_round_recomputes_nothing():
    """The third round of Peterson-3 and -4 changes no head, so every pass
    reads what it read in the round before: the round runs every thread's
    pass over its heads, but every node is a memo hit, so it runs no
    transfer and no interference batch, and its merges change no bucket,
    since each bucket holds the states its label's last pass gave: every
    bucket keeps its `states()` tuple and frozenset themselves.  The rounds
    before it run transfers.  The last pass then runs every thread's pass
    over all labels; its heads are memo hits too, so it transfers only the
    load of cs, once per thread, and its merges fill only the tails'
    buckets, which held no state before it.  That load is its thread's
    boundary, whose existence test runs no interference batch."""
    for n, total in ((3, 105), (4, 296)):
        rounds, buckets, result = _work_per_round(parse(peterson(n)))
        assert result.states.total_states() == total and result.iterations_total == 4
        assert len(rounds) == 4 and len(buckets) == 4
        assert rounds[2] == [n, 0, 0], (n, rounds)
        assert rounds[3] == [n, n, 0], (n, rounds)
        assert all(passes == n for passes, _, _ in rounds), (n, rounds)
        assert all(calls > 0 for _, calls, _ in rounds[:2]), (n, rounds)
        before, after = buckets[-2], buckets[-1]
        assert before and len(before) == len(after)
        for (lbl, states, frozen), (lbl2, states2, frozen2) in zip(before, after):
            assert lbl == lbl2 and states is states2 and frozen is frozen2, lbl
        last = result.states._by_label
        for lbl, states, frozen in after:
            assert last[lbl].states() is states and last[lbl].frozen() is frozen, lbl
        assert sorted(last.keys() - {lbl for lbl, _, _ in after}) == sorted(
            Label(f"{name}{i}") if name != "exit" else Label(f"t{i}.exit")
            for i in range(1, n + 1) for name in ("x", "h", "exit")), n


# a message-passing chain: t1 reads nothing, t2's reads settle in the
# second round, and t3, which writes nothing, is all tails: round 2 runs a
# pass on unchanged reads beside one whose reads changed, and only the
# last pass transfers t3's nodes
CHAIN_SRC = """
vars x = 0, y = 0;
thread t1 { s1: store x 1; }
thread t2 { a: r = load x; s2: store y r; }
thread t3 { b: q = load y; c: assert(q <= 1); }
"""


def test_a_pass_with_unchanged_reads_makes_no_transfer():
    """A pass to which σ gives, at its thread's interference sources, the
    tuples it gave the thread's pass in the round before makes no
    `transfer_node` call at a head.  On the chain this happens in a round
    where another thread's pass, whose reads changed, makes some: the node
    memo does per node what reusing the whole pass would do.  The rounds
    run every thread's pass over its heads alone, in program order, and
    the last round runs a pass over all labels for every thread, which
    transfers each tail that is not a pass-through label, once here, and
    no head.  A thread with no head runs no pass but the last."""
    # per pass: [round, thread, heads_only, reads of σ, transfer_node calls
    # at heads, at tails]
    passes: list = []
    rounds = [0]
    real_seq_ai, real_transfer_node = engine.seq_ai, engine.transfer_node
    real_fingerprint = StateSet.fingerprint

    def recording_seq_ai(ctx, tname, global_ss, heads_only=False):
        sources = sorted({src for lbl in ctx.cfg.rpo[tname]
                          for src in ctx.interfs.get(lbl, ())})
        passes.append([rounds[0], tname, heads_only, [global_ss.at(src) for src in sources],
                       0, 0])
        return real_seq_ai(ctx, tname, global_ss, heads_only)

    def counted_transfer_node(ctx, lbl, *args, **kwargs):
        passes[-1][5 if lbl in ctx.tails else 4] += 1
        return real_transfer_node(ctx, lbl, *args, **kwargs)

    def recording_fingerprint(self):
        rounds[0] += 1
        return real_fingerprint(self)

    mixed = 0
    for src in (READS_SRC, peterson(4), CHAIN_SRC):
        passes.clear()
        rounds[0] = 0
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(engine, "seq_ai", recording_seq_ai)
            mp.setattr(engine, "transfer_node", counted_transfer_node)
            mp.setattr(StateSet, "fingerprint", recording_fingerprint)
            program = parse(src)
            result, ctx = run_with_context(tmai, program)
        threads = [t.name for t in program.threads
                   if ctx.cfg.entries[t.name] not in ctx.tails]
        last: dict = {}  # thread -> its pass of the round before
        for rnd in range(1, result.iterations_total + 1):
            now = [p for p in passes if p[0] == rnd]
            final = rnd == result.iterations_total
            assert all(p[2] is not final for p in now), (src, rnd, now)
            if final:
                assert [p[1] for p in now] == [t.name for t in program.threads], (src, now)
                assert [p[4:] for p in now] == [
                    [0, len(ctx.tails.intersection(ctx.cfg.rpo[p[1]][1:]) - ctx.pass_through)]
                    for p in now], (src, now)
            else:
                assert [p[1] for p in now] == threads
                assert all(p[5] == 0 for p in now), (src, rnd, now)
            unchanged = [p for p in now if p[1] in last and last[p[1]][3] == p[3]]
            assert all(p[4] == 0 for p in unchanged), (src, rnd, now)
            if unchanged and any(p[4] > 0 for p in now):
                mixed += 1
            last = {p[1]: p for p in now}
    assert mixed > 0


def test_confirming_round_reads_the_identical_tuples():
    """A bucket that no merge changed gives its earlier `states()` tuple
    itself in the next round, so every read the confirming round checks
    against the memo is an identity hit: after the run, each memo entry's
    stored reads are the very tuples the final set gives at its sources."""
    program = parse(peterson(4))
    result, ctx = run_with_context(tmai, program)
    assert result.iterations_total == 4
    sigma = result.states
    checked = 0
    for (lbl, bump), (pre_states, reads, states) in ctx.node_memo.items():
        now = [sigma.at(src) for src in ctx.interfs.get(lbl, ())]
        assert len(reads) == len(now)
        assert all(a is b for a, b in zip(reads, now)), lbl
        checked += len(now)
    assert checked > 0


def test_unchanged_buckets_keep_their_frozensets(monkeypatch):
    """A bucket that no merge changed gives its earlier frozenset itself,
    in the set it sits in and in a copy of that set, so the fingerprint of
    the round that confirms the heads hashes no bucket again.  The last
    pass takes no fingerprint: it only fills the tails' buckets, which
    held no state, and leaves every other bucket's frozenset as it was."""
    snapshots: list = []
    fingerprints: list = []
    real_fingerprint = StateSet.fingerprint

    def recording_fingerprint(self):
        out = real_fingerprint(self)
        fingerprints.append(dict(out))
        snapshots.append(self.copy())
        return out

    monkeypatch.setattr(StateSet, "fingerprint", recording_fingerprint)
    program = parse(peterson(4))
    result, ctx = run_with_context(tmai, program)
    assert result.iterations_total == 4 and len(fingerprints) == 4
    monkeypatch.undo()
    before, after = fingerprints[-2:]
    last = dict(result.states.fingerprint())
    assert before and before.keys() == after.keys()
    assert not ctx.tails & before.keys()
    assert last.keys() - after.keys() == ctx.tails
    for snapshot, (older, newer) in ((snapshots[-2], (before, after)),
                                     (snapshots[-1], (after, last))):
        for lbl, states in older.items():
            assert newer[lbl] is states
            assert snapshot._by_label[lbl].frozen() is states


class _CountingSet(StateSet):
    """A state set that counts the reads of each label."""

    def __init__(self, states: StateSet):
        super().__init__(states.table)
        self._by_label = states.copy()._by_label
        self.reads: dict = {}

    def at(self, label: Label) -> tuple:
        self.reads[label] = self.reads.get(label, 0) + 1
        return super().at(label)


@pytest.mark.parametrize("tname, node, source", [("t2", "a", "s1"),   # a load
                                                  ("t3", "c", "w1"),   # a cas
                                                  ("t2", "l2", "u1")])  # a lock
def test_changed_reads_recompute(tname, node, source):
    """A pass against a set that lacks the source's states, then a pass of
    the same context against the full set: the node's pre-states are equal
    in both passes and only its reads differ, yet the second pass equals
    one with an empty memo."""
    program, cfg, full, base = _setup(READS_SRC)
    partial = StateSet(full.table)
    for lbl in full.labels():
        if lbl != Label(source):
            partial.merge_all(lbl, full.at(lbl))
    ctx = _fresh(base)
    before = seq_ai(ctx, tname, partial)
    after = seq_ai(ctx, tname, full)
    assert after == _fresh_pass(base, tname, full)
    assert after[Label(node)] != before[Label(node)]
    for pred in cfg.preds[Label(node)]:
        assert after.get(pred) == before.get(pred)


def test_cas_reads_both_outcomes_and_lock_frees_with_unlock_states():
    """READS_SRC covers what the test above relies on: the cas both
    succeeds and fails, and some pre-state of l2 holds t1's lock, which
    only a read of u1's states releases; l2's transfer reads u1 once per
    pre-state, after the memo's one read of each source."""
    program, cfg, full, base = _setup(READS_SRC)
    assert len({s.val("t3.q") for s in full.at(Label("c"))}) == 2
    counting = _CountingSet(full)
    local = _fresh_pass(base, "t2", counting)
    l1 = base.events[Label("l1")]
    assert any(l1 in s.po("m").lasts() for s in local[Label("a")])
    # one read of u1 is the memo's; the rest are the transfer's, one per
    # pre-state of l2, which no loop visits twice
    assert counting.reads[Label("u1")] - 1 >= 2


def test_bump_is_part_of_the_key():
    """The same store node with the same inputs at two loop visits appends
    two different instances of its event.  u reads the store, so it is a
    head, which the memo keeps."""
    program = parse("vars x = 0;\nthread t { a: store x 1; }\nthread u { b: r = load x; }")
    cfg = build_cfg(program)
    ctx = AnalysisContext(program, cfg, TransferConfig())
    pre = [ctx.initial_states["t"]]
    a = Label("a")
    assert a not in ctx.tails
    empty = StateSet(ctx.posets)
    first = engine._node_states(ctx, a, pre, empty, 0)
    second = engine._node_states(ctx, a, pre, empty, 1)
    assert second == engine._node_states(_fresh(ctx), a, pre, empty, 1)
    assert first != second
    assert set(ctx.node_memo) == {(a, 0), (a, 1)}


def test_tails_skip_the_memo():
    """A tail is transferred once, in the last pass, so the memo keeps
    heads alone: over the corpus and `random_program(0..199)` no memo key
    is a tail, while the runs transfer tails and keep heads."""
    programs = [unroll(parse(f.read_text()), 2) for f in corpus_files()]
    programs += [random_program(seed) for seed in range(200)]
    tails = heads = 0
    for program in programs:
        result, ctx = run_with_context(tmai, program)
        assert not any(lbl in ctx.tails for lbl, _ in ctx.node_memo)
        tails += sum(bool(result.states.at(lbl)) for lbl in ctx.tails)
        heads += len(ctx.node_memo)
    assert tails > 1000 and heads > 1000


class _Forgetful(dict):
    """A memo that keeps nothing, so every visit recomputes its node."""

    def __setitem__(self, key, value):
        pass


def _digest(programs) -> list:
    out = []
    for p in programs:
        r = tmai(p, max_iterations=100)
        out.append((r.states.dump(), sorted((k, str(v)) for k, v in r.verdicts.items()),
                    r.iterations_total, sorted(map(str, r.widened))))
    return out


def test_memo_is_transparent(monkeypatch):
    programs = [unroll(parse(f.read_text()), 2) for f in corpus_files()]
    programs += [random_program(seed) for seed in range(100)]
    programs += [parse(src) for src in LOOPED_SOURCES]
    with_memo = _digest(programs)
    init = AnalysisContext.__init__

    def forgetful_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        self.node_memo = _Forgetful()

    monkeypatch.setattr(AnalysisContext, "__init__", forgetful_init)
    assert _digest(programs) == with_memo
