"""The node memo: a pass over a thread's CFG reuses a node's merged states
from an earlier pass when its pre-states, its interference sources, its
bump and the global states at those sources are unchanged, and the memo
never changes what the analysis computes.

States hold the poset ids of their analysis's table, so a pass over the
states of an earlier run goes through that run's context, or through a
copy of it with an empty memo in place of a fresh context."""

import copy

import pytest

from ramosaic import engine, interference, transfer
from ramosaic.engine import analyze_with_combinations, seq_ai, tmai
from ramosaic.interference import CTX
from ramosaic.litmus import Label, build_cfg, parse, unroll
from ramosaic.randprog import random_program
from ramosaic.states import StateSet
from ramosaic.transfer import AnalysisContext, TransferConfig

from conftest import (LOOPED_SOURCES, MP_SRC, READS_SRC, corpus_files, peterson,
                      run_with_context)


def _setup(src: str):
    """The program, its CFG, its interference maps, the states of its
    `tmai` fixpoint and the context of that run."""
    program = parse(src)
    cfg = build_cfg(program)
    result, ctx = run_with_context(tmai, program, cfg=cfg)
    return program, cfg, interference.get_interfs(program, cfg), result.states, ctx


def _fresh(ctx: AnalysisContext) -> AnalysisContext:
    """The context with an empty node memo, sharing its poset table."""
    out = copy.copy(ctx)
    out.node_memo = {}
    return out


def _fresh_pass(ctx, tname, global_ss, interfs) -> dict:
    return seq_ai(_fresh(ctx), tname, global_ss, interfs)


def test_confirming_round_recomputes_nothing(monkeypatch):
    """Peterson-4's last round changes no label, so every node's inputs are
    those of the round before and every node is a memo hit."""
    passes: list = []  # per seq_ai call: [transfer_node calls, apply_interference calls]
    real_seq_ai, real_transfer_node = engine.seq_ai, engine.transfer_node
    real_apply = transfer.apply_interference

    def counted_seq_ai(*args, **kwargs):
        passes.append([0, 0])
        return real_seq_ai(*args, **kwargs)

    def counted_transfer_node(*args, **kwargs):
        passes[-1][0] += 1
        return real_transfer_node(*args, **kwargs)

    def counted_apply(*args, **kwargs):
        passes[-1][1] += 1
        return real_apply(*args, **kwargs)

    monkeypatch.setattr(engine, "seq_ai", counted_seq_ai)
    monkeypatch.setattr(engine, "transfer_node", counted_transfer_node)
    monkeypatch.setattr(transfer, "apply_interference", counted_apply)
    program = parse(peterson(4))
    result = tmai(program)
    assert result.states.total_states() == 1520 and result.iterations_total == 4
    n = len(program.threads)
    assert len(passes) == 4 * n
    rounds = [[sum(p[k] for p in passes[i:i + n]) for k in (0, 1)]
              for i in range(0, len(passes), n)]
    assert rounds[-1] == [0, 0], rounds
    assert all(calls > 0 for calls, _ in rounds[:-1]), rounds


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
    for (lbl, bump, srcs), (pre_states, reads, states) in ctx.node_memo.items():
        now = [sigma.at(src) for src in srcs or () if src != CTX]
        assert len(reads) == len(now)
        assert all(a is b for a, b in zip(reads, now)), lbl
        checked += len(now)
    assert checked > 0


def test_unchanged_buckets_keep_their_frozensets(monkeypatch):
    """A bucket that no merge changed gives its earlier frozenset itself,
    in the set it sits in and in a copy of that set, so the fingerprint of
    the confirming round hashes no bucket again."""
    snapshots: list = []
    fingerprints: list = []
    real_fingerprint = StateSet.fingerprint

    def recording_fingerprint(self):
        out = real_fingerprint(self)
        fingerprints.append(dict(out))
        snapshots.append(self.copy())
        return out

    monkeypatch.setattr(StateSet, "fingerprint", recording_fingerprint)
    result = tmai(parse(peterson(4)))
    assert result.iterations_total == 4 and len(fingerprints) == 5
    before, after = fingerprints[-2], fingerprints[-1]
    assert before and before.keys() == after.keys()
    snapshot = snapshots[-2]._by_label
    for lbl, states in before.items():
        assert after[lbl] is states
        assert snapshot[lbl].frozen() is states


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
    program, cfg, interfs, full, base = _setup(READS_SRC)
    partial = StateSet(full.table)
    for lbl in full.labels():
        if lbl != Label(source):
            partial.merge_all(lbl, full.at(lbl))
    ctx = _fresh(base)
    before = seq_ai(ctx, tname, partial, interfs[tname])
    after = seq_ai(ctx, tname, full, interfs[tname])
    assert after == _fresh_pass(base, tname, full, interfs[tname])
    assert after[Label(node)] != before[Label(node)]
    for pred in cfg.preds[Label(node)]:
        assert after.get(pred) == before.get(pred)


def test_cas_reads_both_outcomes_and_lock_frees_with_unlock_states():
    """READS_SRC covers what the test above relies on: the cas both
    succeeds and fails, and some pre-state of l2 holds t1's lock, which
    only a read of u1's states releases; l2's transfer reads u1 once per
    pre-state, after the memo's one read of each source."""
    program, cfg, interfs, full, base = _setup(READS_SRC)
    assert len({s.val("t3.q") for s in full.at(Label("c"))}) == 2
    counting = _CountingSet(full)
    local = _fresh_pass(base, "t2", counting, interfs["t2"])
    l1 = base.events[Label("l1")]
    assert any(l1 in s.po("m").lasts() for s in local[Label("a")])
    # one read of u1 is the memo's; the rest are the transfer's, one per
    # pre-state of l2, which no loop visits twice
    assert counting.reads[Label("u1")] - 1 >= 2


def test_pinned_maps_keep_separate_entries():
    """Two maps that pin the load d differently, to the initial value and
    to a's store, give different results through one context, each equal
    to a pass with an empty memo."""
    program, cfg, interfs, full, base = _setup(MP_SRC)
    ctx = _fresh(base)
    d = Label("d")
    results = []
    for chosen in ((CTX,), (Label("a"),)):
        pinned = dict(interfs["t2"])
        pinned[d] = chosen
        got = seq_ai(ctx, "t2", full, pinned)
        assert got == _fresh_pass(base, "t2", full, pinned)
        results.append(got[d])
    assert results[0] != results[1]


def test_bump_is_part_of_the_key():
    """The same store node with the same inputs at two loop visits appends
    two different instances of its event."""
    program = parse("vars x = 0;\nthread t { a: store x 1; }")
    cfg = build_cfg(program)
    ctx = AnalysisContext(program, cfg, TransferConfig())
    pre = [ctx.initial_states["t"]]
    a = Label("a")
    empty = StateSet(ctx.posets)
    first = engine._node_states(ctx, a, pre, empty, {}, 0)
    second = engine._node_states(ctx, a, pre, empty, {}, 1)
    assert second == engine._node_states(_fresh(ctx), a, pre, empty, {}, 1)
    assert first != second


class _Forgetful(dict):
    """A memo that keeps nothing, so every visit recomputes its node."""

    def __setitem__(self, key, value):
        pass


def _digest(programs) -> list:
    out = []
    for p in programs:
        for run in (lambda: tmai(p, max_iterations=100),
                    lambda: analyze_with_combinations(p, max_iterations=100)):
            r = run()
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
