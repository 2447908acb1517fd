"""Fixpoint driver behavior: the message-passing walkthrough, determinism,
divergence guard, the round loop, and loop widening."""

import pytest

from ramosaic import engine
from ramosaic import posets as P
from ramosaic.engine import Divergence, seq_ai, tmai
from ramosaic.interference import CTX, get_interfs
from ramosaic.intervals import Interval
from ramosaic.litmus import Label, build_cfg, parse, unroll
from ramosaic.oracle import check_soundness, enumerate_executions
from ramosaic.randprog import random_program
from ramosaic.states import AbstractState, StateSet
from ramosaic.transfer import AnalysisContext, TransferConfig

from conftest import BENCH_DIR, READS_SRC, SB_SRC, peterson, run_with_context


def test_mp_verdict_and_iterations(mp_program):
    r = tmai(mp_program)
    assert r.verdicts["final"].proved
    assert r.iterations_effective == 2
    assert r.iterations_total == 3


def test_mp_final_states(mp_program):
    r = tmai(mp_program)
    cfg = build_cfg(mp_program)
    states = r.states.at(cfg.exits["t2"])
    target = [s for s in states if s.val("t2.r1") .lo == 1]
    (s,) = target
    assert s.val("t2.r2").lo == 1 and s.val("t2.r2").hi == 1


def test_seq_ai_mp_thread1(mp_program):
    cfg = build_cfg(mp_program)
    ctx = AnalysisContext(mp_program, cfg, TransferConfig())
    local = seq_ai(ctx, "t1", StateSet(ctx.posets))
    (sa,) = local[Label("a")]
    (sb,) = local[Label("b")]
    assert str(sa.po("x")) == "{a.1}"
    assert str(sb.po("y")) == "{b.1}"


def test_seq_ai_thread2_against_thread1(mp_program):
    cfg = build_cfg(mp_program)
    ctx = AnalysisContext(mp_program, cfg, TransferConfig())
    sigma = StateSet(ctx.posets)
    for t in mp_program.threads:
        for lbl, states in sorted(seq_ai(ctx, t.name, StateSet(ctx.posets)).items()):
            sigma.merge_all(lbl, states)
    local = seq_ai(ctx, "t2", sigma)
    r1r2 = {(str(s.val("t2.r1")), str(s.val("t2.r2"))) for s in local[Label("d")]}
    assert ("[1,1]", "[1,1]") in r1r2


def test_assume_false_thread():
    src = "vars x = 0;\nthread t { u: assume(false); a: store x 1; b: r = load x; }"
    r = tmai(parse(src))
    assert r.states.at(Label("a")) == ()
    assert r.states.at(Label("b")) == ()


def test_determinism():
    src = parse(SB_SRC)
    r1, r2 = tmai(src), tmai(src)
    assert r1.states.dump() == r2.states.dump()
    assert {k: str(v) for k, v in r1.verdicts.items()} == \
        {k: str(v) for k, v in r2.verdicts.items()}
    assert (r1.iterations_total, r1.iterations_effective) == \
        (r2.iterations_total, r2.iterations_effective)


def test_divergence_guard(mp_program):
    with pytest.raises(Divergence):
        tmai(mp_program, max_iterations=1)


def test_widening_terminates_unbounded_loop():
    src = """
vars x = 0;
thread t {
  i0: r = 0;
  while (r >= 0) {
    s: store x r;
    i1: r = r + 1;
  }
  f: store x -1;
}
thread u { c: q = load x; }
"""
    p = parse(src)
    r = tmai(p, TransferConfig(widening_threshold=2), max_iterations=60)
    assert r.widened
    states = r.states.at(Label("s", 1)) or r.states.at(Label("s"))
    assert r.iterations_total < 60


def test_widened_store_values_cover_iterations():
    src = """
vars x = 0;
thread t {
  i0: r = 0;
  while (r < 50) { s: store x r; i1: r = r + 1; }
  f: store x 99;
}
"""
    p = parse(src)
    r = tmai(p, TransferConfig(widening_threshold=2, project_tails=False), max_iterations=60)
    (s,) = r.states.at(Label("f"))
    assert s.val("x").lo == 99


# (source, static trip count of t1's loop); t2 asserts that it never reads
# a value that t1 stores
NATIVE_LOOPS = {
    "two_body_stores": ("""
vars x = 0;
thread t1 { i: r = 0; while (r < 2) { s1: store x 1; s2: store x 2; f: r = r + 1; } }
thread t2 { l: r1 = load x; c: assert(r1 != 2); }
""", 2),
    "store_after_the_loop": ("""
vars x = 0;
thread t1 { i: r = 0; while (r < 2) { s1: store x 1; s2: store x 2; f: r = r + 1; } e: store x 3; }
thread t2 { l: r1 = load x; c: assert(r1 != 3); }
""", 2),
    "if_in_the_loop": ("""
vars x = 0;
thread t1 { i: r = 0; while (r < 2) { s1: store x 1; if (r == 0) { s2: store x 2; } f: r = r + 1; } }
thread t2 { l: r1 = load x; c: assert(r1 != 2); }
""", 2),
    "five_iterations": ("""
vars x = 0;
thread t1 { i: r = 0; while (r < 5) { s: store x r; f: r = r + 1; } }
thread t2 { l: r1 = load x; c: assert(r1 != 4); }
""", 5),
}


@pytest.mark.parametrize("name", sorted(NATIVE_LOOPS))
def test_native_loop_keeps_the_second_store_of_its_body(name):
    """Native analysis proves no site that the oracle violates on the
    program unrolled past its loop's trip count, so that no run is cut.
    When each body store was sequenced before the other, the append of the
    second was refused, and it and everything after it got no states."""
    src, trips = NATIVE_LOOPS[name]
    program = parse(src)
    violated = {site for e in enumerate_executions(unroll(program, trips + 1))
                for site in e.violations}
    assert violated
    verdicts = tmai(program).verdicts
    assert not [site for site in violated if verdicts[site].proved]


def test_the_code_after_a_loop_runs_once_per_pass(monkeypatch):
    """Reverse post-order puts the loop's body before its exit, so a pass
    runs the store after the loop once, when the loop has settled: its
    event is e.1, not the e.3 of a third visit."""
    program = parse("vars x = 0;\n"
                    "thread t1 { i: r = 0; while (r < 2) { s: store x 1; f: r = r + 1; } "
                    "e: store x 3; }\n"
                    "thread t2 { l: r1 = load x; }\n")
    calls = {"e": 0, "passes": 0}
    node_states, run_pass = engine._node_states, engine.seq_ai

    def counting_node_states(ctx, lbl, *args, **kwargs):
        calls["e"] += lbl == Label("e")
        return node_states(ctx, lbl, *args, **kwargs)

    def counting_seq_ai(ctx, tname, *args, **kwargs):
        calls["passes"] += tname == "t1"
        return run_pass(ctx, tname, *args, **kwargs)

    monkeypatch.setattr(engine, "_node_states", counting_node_states)
    monkeypatch.setattr(engine, "seq_ai", counting_seq_ai)
    result, ctx = run_with_context(tmai, program)
    assert calls["passes"] >= 2 and calls["e"] == calls["passes"]
    k = ctx.layouts["t1"].mo_slot["x"]
    events = {str(ev) for s in result.states.at(Label("e"))
              for ev in ctx.posets.posets[s.mo[k]].events}
    assert events == {"e.1"}


def test_rounds_stop_on_revisited_state_set(monkeypatch):
    """Interacting merge chains can make the accumulator revisit an earlier
    value instead of settling; the driver must stop there (soundly) rather
    than spin to the iteration cap.  Both passes are stubbed, and each
    thread's load reads the other's store, so every round changes what
    each pass reads: each gives a at its store in the first round, then
    alternates x and z.  Merging x adds it beside a;
    merging z joins its memory with x's into a's memory, and that state's
    posets join into a's, so each store's set is back to {a}.  Without the
    stop, every round would change the set.  The loads are tails, so the
    last pass runs after the revisit, against {a}, and merges what it gives
    at the loads but not at the stores."""
    program = parse("vars x = 0;\n"
                    "thread t { s: store x 1; l: r = load x; }\n"
                    "thread u { w: store x 2; m: q = load x; }")
    cfg = build_cfg(program)
    ctx = AnalysisContext(program, cfg, TransferConfig())
    assert ctx.interfs[Label("l")] == (Label("w"),)
    assert ctx.interfs[Label("m")] == (Label("s"),)
    assert {Label("l"), Label("m")} <= ctx.tails
    assert not {Label("s"), Label("w")} & ctx.tails

    def script(tname, store, load):
        layout = ctx.initial_states[tname].layout
        regs = {k: Interval(0, 0) for k in layout.mem_keys if k != "x"}

        def state(mo_x, lo, hi):
            return AbstractState.make({"x": mo_x}, {"x": Interval(lo, hi), **regs}, layout)

        written = P.poset({ctx.events[Label(store)]})
        return (Label(store), Label(load),
                state(P.poset(()), 0, 1), state(written, 0, 0), state(written, 1, 1))

    scripts = {"t": script("t", "s", "l"), "u": script("u", "w", "m")}
    given = []

    def scripted_seq_ai(ctx, tname, global_ss, heads_only=False):
        given.append((tname, heads_only, global_ss.dump()))
        step = sum(name == tname for name, _, _ in given)
        lbl, load, a, x, z = scripts[tname]
        local = {lbl: (a if step == 1 else x if step % 2 == 0 else z,)}
        if not heads_only:
            local[load] = (a,)
        return local

    monkeypatch.setattr(engine, "seq_ai", scripted_seq_ai)
    sigma, rounds, effective = engine._rounds(ctx, 50)
    # the third round changed the set, back to {a}; the last pass changed it
    assert (rounds, effective) == (4, 4)
    for lbl, load, a, _, _ in scripts.values():
        assert sigma.at(lbl) == sigma.at(load) == (a,)
    # {}, {a}, {a, x} at both stores, as each round began, then {a} again
    # at the stores for the last pass; t's tail l is merged before u's last
    # pass, which reads none
    assert [(t, heads_only, len(dump.splitlines())) for t, heads_only, dump in given] == [
        ("t", True, 0), ("u", True, 0), ("t", True, 2), ("u", True, 2),
        ("t", True, 4), ("u", True, 4), ("t", False, 2), ("u", False, 3)]


def _sources(program) -> frozenset:
    """The labels that some load, rmw or lock of the program reads from."""
    interfs = get_interfs(program, build_cfg(program))
    return frozenset(src for per_thread in interfs.values()
                     for srcs in per_thread.values() for src in srcs) - {CTX}


@pytest.mark.parametrize("driver", [tmai])
def test_every_pass_reads_the_state_set_as_its_round_began(driver, monkeypatch):
    """Every pass of a round reads the result's state set itself, and sees
    it at every interference source as the fingerprint of the round before
    saw it: the merges of the round's earlier passes are not visible there
    to its later ones.  Only the head rounds take a fingerprint, so the
    last pass's passes see σ as the last head round left it."""
    program = parse(READS_SRC)
    sources = sorted(_sources(program))
    log: list = []  # ("round", states) at each fingerprint, ("pass", set, states) per pass
    real_seq_ai, real_fingerprint = engine.seq_ai, StateSet.fingerprint

    def at_sources(ss) -> list:
        return [f"{lbl} | {s.fmt()}" for lbl in sources for s in ss.at(lbl)]

    def recording_seq_ai(ctx, tname, global_ss, *args, **kwargs):
        log.append(("pass", global_ss, at_sources(global_ss)))
        return real_seq_ai(ctx, tname, global_ss, *args, **kwargs)

    def recording_fingerprint(self):
        log.append(("round", at_sources(self)))
        return real_fingerprint(self)

    monkeypatch.setattr(engine, "seq_ai", recording_seq_ai)
    monkeypatch.setattr(StateSet, "fingerprint", recording_fingerprint)
    r = driver(program)
    assert r.iterations_total >= 3
    assert log[0] == ("round", [])  # the first round begins with no state
    assert log[-1][1]  # the sources hold states at the end
    rounds = 0
    for entry in log:
        if entry[0] == "round":
            began, passes = entry[1], 0
            rounds += 1
            continue
        assert entry[1] is r.states
        assert entry[2] == began, (rounds, passes)
        passes += 1
    assert passes == len(program.threads)  # the last pass runs every thread
    assert rounds == r.iterations_total


def test_a_round_merges_its_passes_after_the_last(monkeypatch):
    """A round runs one pass per thread with a head over its heads, in
    program order, then merges the passes' local maps into the state set,
    in pass order and then label order, so each bucket is merged once per
    round.  Only the head rounds end with a fingerprint.  Then the last
    pass runs one pass over all labels for every thread, t3 included,
    which has no head and so runs no other pass, and merges each thread's
    tails right after its pass: each exit takes a fresh merge of its own
    last-pass tuple, in a bucket of its own."""
    program = parse(READS_SRC)
    ctx = AnalysisContext(program, build_cfg(program), TransferConfig())
    log: list = []
    locals_: dict = {}
    real_seq_ai = engine.seq_ai
    real_merge_all, real_fingerprint = StateSet.merge_all, StateSet.fingerprint

    def recording_seq_ai(ctx, tname, global_ss, heads_only=False):
        local = real_seq_ai(ctx, tname, global_ss, heads_only)
        log.append(("pass", tname, heads_only, sorted(local)))
        if not heads_only:
            locals_.update(local)
        return local

    def recording_merge_all(self, lbl, states):
        real_merge_all(self, lbl, states)
        log.append(("merge", lbl, id(self._by_label[lbl])))

    def recording_fingerprint(self):
        log.append(("round",))
        return real_fingerprint(self)

    monkeypatch.setattr(engine, "seq_ai", recording_seq_ai)
    monkeypatch.setattr(StateSet, "merge_all", recording_merge_all)
    monkeypatch.setattr(StateSet, "fingerprint", recording_fingerprint)
    r = tmai(program)
    assert log[0] == ("round",)
    threads = [t.name for t in program.threads if ctx.cfg.entries[t.name] not in ctx.tails]
    assert threads == ["t1", "t2"]
    segments = [[]]
    for entry in log[1:]:
        if entry[0] == "round":
            segments.append([])
        else:
            segments[-1].append(entry)
    # the head rounds, each closed by a fingerprint, then the last pass
    *head_rounds, last = segments
    assert len(segments) == r.iterations_total
    for rounds, round_events in enumerate(head_rounds, 1):
        passes = [e for e in round_events if e[0] == "pass"]
        assert [(tname, heads_only) for _, tname, heads_only, _ in passes] == \
            [(t, True) for t in threads]
        assert not any(ctx.tails.intersection(labels) for _, _, _, labels in passes)
        merges = round_events[len(passes):]
        assert [e[:2] for e in merges] == [("merge", lbl) for _, _, _, labels in passes
                                           for lbl in labels], rounds
        assert merges and round_events == passes + merges
        assert len({bucket for _, _, bucket in merges}) == len(merges)
    tails = {"t1": [Label("t1.exit")], "t2": [Label("t2.exit")],
             "t3": [Label("c"), Label("t3.exit")]}
    want = []
    for t in program.threads:
        want.append(("pass", t.name, False, sorted(ctx.cfg.rpo[t.name][1:])))
        want += [("merge", lbl, id(r.states._by_label[lbl])) for lbl in tails[t.name]]
    assert last == want
    buckets = r.states._by_label
    assert len(set(map(id, buckets.values()))) == len(buckets)
    for lbl in (lbl for labels in tails.values() for lbl in labels):
        assert r.states.at(lbl) == locals_[lbl] != ()


def test_tails_of_peterson_4_are_its_suffixes():
    """The tails of Peterson-4 are exactly each thread's load of cs, the
    assertion after it and its exit: every other label reaches a store
    that another thread reads."""
    program = parse(peterson(4))
    ctx = AnalysisContext(program, build_cfg(program), TransferConfig())
    assert ctx.tails == {Label(f"{name}{i}") if name != "exit" else Label(f"t{i}.exit")
                         for i in range(1, 5) for name in ("x", "h", "exit")}


def _transfers(program) -> tuple:
    """The result of one `tmai` run, and per transfer_node call, the label
    and whether the pass that made it ran over the heads alone."""
    calls = []
    heads_only_now = [None]
    real_seq_ai, real_transfer_node = engine.seq_ai, engine.transfer_node

    def recording_seq_ai(ctx, tname, global_ss, heads_only=False):
        heads_only_now[0] = heads_only
        return real_seq_ai(ctx, tname, global_ss, heads_only)

    def recording_transfer_node(ctx, lbl, *args, **kwargs):
        calls.append((lbl, heads_only_now[0]))
        return real_transfer_node(ctx, lbl, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "seq_ai", recording_seq_ai)
        mp.setattr(engine, "transfer_node", recording_transfer_node)
        result = tmai(program)
    return result, calls


def test_each_load_of_cs_is_transferred_once():
    """Each x_i of Peterson-4 runs transfer_node in one visit, in the last
    pass, against the converged state set; the heads before it are memo
    hits there."""
    result, calls = _transfers(parse(peterson(4)))
    assert result.iterations_total == 4
    for i in range(1, 5):
        assert [c for c in calls if c[0] == Label(f"x{i}")] == [(Label(f"x{i}"), False)]
    assert all(heads_only for lbl, heads_only in calls if not lbl.name.startswith("x"))


def test_readers_run_no_transfer_before_the_last_pass():
    """No reader of nr1w_10 writes, so every reader label is a tail: the
    rounds transfer only the writer's store, and each reader's load, its
    boundary, runs once, in the last pass.  The writer's exit passes its
    store's states on, so the writer has no boundary."""
    program = parse((BENCH_DIR / "nr1w_10.lit").read_text())
    result, calls = _transfers(program)
    assert not result.verdicts["final"].proved
    assert [c for c in calls if c[1]] == [(Label("a"), True)]
    assert sorted(c for c in calls if not c[1]) == sorted((Label(f"b{i}"), False)
                                                          for i in range(1, 11))
    assert {t: b.label for t, b in result.boundaries.items()} == {
        f"rd{i}": Label(f"b{i}") for i in range(1, 11)}


def test_threads_with_no_head_run_no_pass_in_the_rounds(monkeypatch):
    """The rounds run no pass for a thread with no head, which would
    return an empty map: on nr1w_10 the two head rounds run the writer's
    pass alone, and the last pass every thread's, 13 `seq_ai` calls where
    a pass per thread in each round made 33.  A head pass of each
    reader against the final state set indeed gives nothing, so σ and the
    verdicts are what the passes would give."""
    program = parse((BENCH_DIR / "nr1w_10.lit").read_text())
    calls = []
    real_seq_ai = engine.seq_ai

    def counting_seq_ai(ctx, tname, global_ss, heads_only=False):
        calls.append((tname, heads_only))
        return real_seq_ai(ctx, tname, global_ss, heads_only)

    monkeypatch.setattr(engine, "seq_ai", counting_seq_ai)
    result, ctx = run_with_context(tmai, program)
    monkeypatch.undo()
    readers = [f"rd{i}" for i in range(1, 11)]
    assert result.iterations_total == 3
    assert calls == [("w", True)] * 2 + [(t, False) for t in ["w", *readers]]
    assert all(ctx.cfg.entries[t] in ctx.tails for t in readers)
    snapshot = result.states.dump()
    for t in readers:
        assert seq_ai(ctx, t, result.states, heads_only=True) == {}
    assert result.states.dump() == snapshot
    assert {site: str(v) for site, v in result.verdicts.items()} == {"final": "PossiblyViolated"}


@pytest.mark.parametrize("seed", [25, 77, 89])
def test_no_boundary_comes_before_an_unlock(seed):
    """A boundary placed after a thread's last read, with an unlock still
    to come, proved these `final` sites, which the oracle violates: the
    unlock found no lock in the dropped mutex poset, and every state died.
    No access follows a boundary, and the default driver keeps the sites
    unproved and passes the oracle check."""
    program = random_program(seed)
    execs = enumerate_executions(program)
    assert any("final" in e.violations for e in execs)
    result = tmai(program)
    assert any(kind == "unlock" for kind, _ in result.cfg.accesses.values())
    assert result.boundaries
    for b in result.boundaries.values():
        assert result.cfg.accesses.keys().isdisjoint(result.cfg.reachable(b.label))
    assert not result.verdicts["final"].proved
    check_soundness(program, result, execs=execs).raise_if_unsound()


@pytest.mark.parametrize("seed", [148, 199, 348])
def test_projected_states_keep_their_correlations(seed):
    """Joining the projected states of a label by hull lost the proofs of
    these `final` sites, which the oracle finds safe; kept as an exact set
    of live tuples, they prove them and pass the oracle check."""
    program = random_program(seed)
    execs = enumerate_executions(program)
    assert not any(e.violations for e in execs)
    result = tmai(program)
    assert result.boundaries and result.verdicts["final"].proved
    check_soundness(program, result, execs=execs).raise_if_unsound()


def test_unrolled_spin_wait_verdict():
    src = """
vars y = 0, d = 0;
thread w { a: store d 7; b: store y 1; }
thread t {
  l0: r = load y;
  while (r != 1) { l1: r = load y; }
  g: q = load d;
  z: assert(q == 7);
}
"""
    p = unroll(parse(src), 1)
    r = tmai(p)
    assert r.verdicts[str(Label("z"))].proved


def test_failed_cas_publishes_no_write():
    # Seed 1503 diverged when failed-cas states fed loads as if they wrote.
    program = random_program(1503)
    r = tmai(program)
    assert r.iterations_total <= 5
    assert check_soundness(program, r).ok


@pytest.mark.parametrize("driver", [tmai])
def test_failed_cas_reads_no_write_after_itself(driver):
    """A failed cas at a must not read from a c or d state whose order
    already holds a's own event: that write comes after a.  Taking such a
    state let the values climb by one every two rounds, and the loop-free
    program diverged."""
    program = parse("vars x = 0;\n"
                    "thread t0 { a: r0 = cas x 0 2; }\n"
                    "thread t1 { b: r1 = load x; c: store x r1 + 1; d: store x r1 + 1; }\n")
    r = driver(program, max_iterations=50)
    assert r.iterations_total <= 5
    check_soundness(program, r).raise_if_unsound()


def test_failed_cas_source_was_a_false_positive():
    program = random_program(72)
    r = tmai(program)
    assert r.verdicts["final"].proved
    execs = enumerate_executions(program)
    assert execs and not any(e.violations for e in execs)
    assert check_soundness(program, r, execs=execs).ok


def test_scaling_script_runs_the_phases_of_tmai():
    """`scripts/scaling.py` runs tmai's phases one at a time; it reaches
    the states and rounds of `tmai` itself on both of its families."""
    import importlib.util
    import random
    import sys
    from pathlib import Path

    path = Path(__file__).resolve().parent.parent / "scripts" / "scaling.py"
    spec = importlib.util.spec_from_file_location("scaling", path)
    scaling = importlib.util.module_from_spec(spec)
    search_path = list(sys.path)
    spec.loader.exec_module(scaling)
    assert sys.path == search_path  # no later import can find perfbench/'s modules
    for member in (scaling.families.peterson(3, random.Random(1)),
                   scaling.families.readers(4, random.Random(1))):
        times, states, rounds = scaling.run_once(member.source)
        result = tmai(parse(member.source))
        assert (states, rounds) == (result.states.total_states(), result.iterations_total)
        assert len(times) == len(scaling.PHASES) and min(times) >= 0
