"""The prunes of the reads-from search that look at values and at crossed
sources, and the two checks the soundness fuzz runs on every execution,
each against its straightforward per-execution version kept below:
`check_soundness` on lying analysis results, `validate_execution` on
tampered executions."""

from dataclasses import replace

import pytest

from ramosaic import oracle
from ramosaic.engine import tmai
from ramosaic.intervals import singleton
from ramosaic.litmus import Label, UnlockInst, parse, unroll
from ramosaic.oracle import check_soundness, enumerate_executions, validate_execution
from ramosaic.posets import BOTTOM_ID, Event, alpha, beta_related, chain, join
from ramosaic.randprog import random_program

from conftest import BENCH_DIR, MP_SRC, WHY_IC_SRC
from oracle_reference import reference_executions


def _surviving_choices(monkeypatch) -> list:
    """Wrap the reads-from search and `_stale_read`; the list gets one entry
    per complete choice that the search yields and `_stale_read` keeps:
    whether `_Prefix` had run every thread to its end."""
    search, stale_read = oracle._acyclic_rf_assignments, oracle._stale_read
    ran_to_end = []
    calls = []

    def searching(*args):
        prefix = args[-1]
        for _ in search(*args):
            ran_to_end.append(all(pc == len(path)
                                  for pc, path in zip(prefix.pcs, prefix.paths)))
            yield

    def recording(*args):
        stale = stale_read(*args)
        if not stale:
            calls.append(ran_to_end[-1])
        return stale

    monkeypatch.setattr(oracle, "_acyclic_rf_assignments", searching)
    monkeypatch.setattr(oracle, "_stale_read", recording)
    return calls


def test_value_phase_never_rejects(monkeypatch):
    """Guards and reads from failed cas instructions are cut in the search,
    whose prefix runs are the value phase: every complete choice it yields
    has run each thread to its end.  On peterson3 at most 5 346 of them
    survive `_stale_read`, where 46 656 choices reached a separate value
    phase before the value prune and 26 973 of them died there."""
    calls = _surviving_choices(monkeypatch)
    program = unroll(parse((BENCH_DIR / "peterson3.lit").read_text()), 2)
    assert len(enumerate_executions(program, guard=40)) == 9720
    assert all(calls) and 0 < len(calls) <= 5346
    del calls[:]
    for seed in range(200):
        enumerate_executions(random_program(seed))
    assert all(calls) and len(calls) > 1000


def test_crossed_sources_are_cut(monkeypatch):
    """b reads c and d reads a, while a happens before b and c before d:
    coherence would need a before c and c before a in modification order.
    The search cuts that choice before modification orders are built
    (`_choice_orders`), which only the choices that survive the search and
    `_stale_read` reach."""
    src = """
vars x = 0;
thread t1 { a: store x 1; b: r1 = load x; }
thread t2 { c: store x 2; d: r2 = load x; }
"""
    choice_orders = oracle._choice_orders
    seen = []

    def recording(variables, desc, anc, rf, instrs, out, events):
        seen.append({instrs[r].label: instrs[w].label for r, w in enumerate(rf)
                     if isinstance(instrs[r], oracle._READS) and w is not None})
        return choice_orders(variables, desc, anc, rf, instrs, out, events)

    monkeypatch.setattr(oracle, "_choice_orders", recording)
    program = parse(src)
    assert enumerate_executions(program) == reference_executions(program)
    assert seen and {Label("b"): Label("c"), Label("d"): Label("a")} not in seen


def test_values_that_depend_on_unassigned_reads_cut_nothing():
    """When t1's read of x is assigned, the value of d (r2, read by the
    later thread t2) is not known yet; the guard must not be decided on it."""
    src = """
vars x = 0, y = 0;
thread t1 { a: r1 = load x; b: assume (r1 == 1); }
thread t2 { c: r2 = load y; d: store x r2; }
thread t3 { e: store y 1; }
"""
    program = parse(src)
    execs = enumerate_executions(program)
    assert execs == reference_executions(program)
    assert {e.register_map()["t1.r1"] for e in execs} == {1}


# --------------------------------------------------------------------------
# check_soundness: one coverage answer per distinct outcome, one grouping of
# modification orders per distinct order; the problems stay those of the
# per-execution check
# --------------------------------------------------------------------------

def _reference_check_soundness(program, result, execs) -> list:
    """The per-execution check, as `check_soundness` did it before it
    answered once per distinct outcome; returns the problems.  A thread
    that the result projects answers for its live registers at its exit,
    and for its dropped registers and its posets with the states its
    boundary recorded."""
    cfg, sb = result.cfg, result.sb
    problems = []
    for site in {site for e in execs for site in e.violations}:
        v = result.verdicts.get(site)
        if v is None or v.proved:
            problems.append(f"assertion {site} is violated by the oracle but "
                            f"the analyzer proves it")
    exits, poset_states = [], []
    for t in program.threads:
        keys = [program.register_key(t.name, r) for r in program.thread_registers(t.name)]
        exit_states = result.states.at(cfg.exits[t.name])
        b = result.boundaries.get(t.name)
        if b is None:
            exits.append((t.name, "exit", keys, exit_states))
            poset_states += exit_states
            continue
        exits.append((t.name, "exit", [k for k in keys if k in b.live], exit_states))
        exits.append((t.name, f"its boundary {b.label}", [k for k in keys if k not in b.live],
                      b.states))
        poset_states += b.states
    for e in execs:
        regmap = e.register_map()
        for tname, where, keys, states in exits:
            if keys and not any(all(regmap[k] in s.val(k) for k in keys) for s in states):
                problems.append(f"final registers {[(k, regmap[k]) for k in keys]} "
                                f"of thread {tname} are not covered at {where}")
                break
    if execs and poset_states:
        for var in program.shared_names():
            joined = None
            for s in poset_states:
                joined = s.po(var) if joined is None else join(joined, s.po(var))
            for group in oracle.losets_by_write_set(execs, var):
                if not beta_related(alpha(group), joined, sb):
                    problems.append(f"joined exit poset for {var!r} is not a sound "
                                    f"abstraction of the oracle orders")
                    break
    return problems


class _Lie:
    """An analysis result whose exit states, and the states its boundaries
    recorded, are rewritten by `rewrite(thread, states)`; everything else
    is the real result's."""

    def __init__(self, result, rewrite):
        self.cfg, self.sb, self.verdicts = result.cfg, result.sb, result.verdicts
        exits = {lbl: t for t, lbl in result.cfg.exits.items()}
        real = result.states

        class States:
            def at(self, lbl):
                states = real.at(lbl)
                return tuple(rewrite(exits[lbl], states)) if lbl in exits else states

        self.states = States()
        self.boundaries = {t: b._replace(states=tuple(rewrite(t, b.states)))
                           for t, b in result.boundaries.items()}


def _pin(key: str, value: int):
    """Exit states that claim `key` always ends as `value`."""
    def rewrite(thread, states):
        for s in states:
            if key in s.layout.mem_slot:
                pinned = s.layout.values.intern(singleton(value))
                s = s.slot_update(mem=((s.layout.mem_slot[key], pinned),))
            yield s
    return rewrite


def _bottom_posets(thread, states):
    for s in states:
        yield s.slot_update(mo=tuple((i, BOTTOM_ID) for i in range(len(s.mo))))


@pytest.mark.parametrize("src, rewrite", [
    (WHY_IC_SRC, _pin("t2.r1", 1)),
    (WHY_IC_SRC, _bottom_posets),
    (MP_SRC, _pin("t2.r2", 0)),
], ids=["why_ic-pinned", "why_ic-bottom", "mp-pinned"])
def test_check_soundness_on_lies(src, rewrite):
    program = parse(src)
    execs = enumerate_executions(program)
    lie = _Lie(tmai(program), rewrite)
    problems = check_soundness(program, lie, execs=execs).problems
    assert problems and problems == _reference_check_soundness(program, lie, execs)


def test_check_soundness_repeats_a_recurring_outcome():
    """r = 0 and r = 1 each come with both modification orders of x: the
    pinned result leaves each uncovered, once per execution."""
    program = parse("vars x = 0;\nthread t1 { a: store x 1; }\n"
                    "thread t2 { b: store x 2; }\nthread t3 { c: r = load x; }")
    execs = enumerate_executions(program)
    lie = _Lie(tmai(program), _pin("t3.r", 2))
    problems = check_soundness(program, lie, execs=execs).problems
    assert problems == _reference_check_soundness(program, lie, execs)
    uncovered = [e for e in execs if e.register_map()["t3.r"] != 2]
    assert len(problems) == len(uncovered) > len({e.registers for e in uncovered})


def test_check_soundness_matches_on_random_programs():
    for seed in range(60):
        program = random_program(seed)
        execs = enumerate_executions(program)
        result = tmai(program)
        for lie in (result, _Lie(result, _bottom_posets)):
            assert (check_soundness(program, lie, execs=execs).problems
                    == _reference_check_soundness(program, lie, execs))


# every thread's boundary is its last load, which no other thread reads
# from; t2's, d, keeps r2 alone: r1 is dropped there
DROPS_R1_SRC = """
vars x = 0, y = 0;
thread t1 { a: store x 1; b: store x 2; e: r0 = load y; }
thread t2 { c: r1 = load x; d: r2 = load x; }
"""


def _with_boundary_states(result, rewrite):
    """The result with the states its boundaries recorded rewritten by
    `rewrite(thread, states)`, its exit states as they are."""
    return replace(result, boundaries={t: b._replace(states=tuple(rewrite(t, b.states)))
                                       for t, b in result.boundaries.items()})


def test_check_soundness_reads_the_states_the_boundaries_recorded():
    """Both threads are projected, so no exit state holds a poset and t2's
    exit states do not hold r1: the check reads the recorded states for
    those.  Recorded states that order x's stores b before a, a poset too
    strong, or that lost the value 2 of the dropped r1 fail it, though
    the exit states are the real ones."""
    program = parse(DROPS_R1_SRC)
    execs = enumerate_executions(program)
    result = tmai(program)
    assert set(result.boundaries) == {"t1", "t2"}
    assert result.boundaries["t2"].label == Label("d")
    assert result.boundaries["t2"].live == {"t2.r2"}
    for t in ("t1", "t2"):
        assert all(s.mo == (None, None) for s in result.states.at(result.cfg.exits[t]))
    assert {str(s.val("t2.r1")) for s in result.boundaries["t2"].states} >= {"[2,2]"}
    assert check_soundness(program, result, execs=execs).ok

    b_before_a = result.states.table.intern(chain(Event("b", 1, "t1", "store", "x"),
                                                  Event("a", 1, "t1", "store", "x")))

    def too_strong(thread, states):
        return [s.slot_update(mo=((0, b_before_a),)) for s in states]

    problems = check_soundness(program, _with_boundary_states(result, too_strong), execs=execs).problems
    assert problems == ["joined exit poset for 'x' is not a sound abstraction of the oracle orders"]

    def without_r1_2(thread, states):
        return [s for s in states if thread != "t2" or 2 not in s.val("t2.r1")]

    problems = check_soundness(program, _with_boundary_states(result, without_r1_2), execs=execs).problems
    assert problems and all("of thread t2 are not covered at its boundary d" in p
                            for p in problems)
    assert all("('t2.r1', 2)" in p for p in problems)


# --------------------------------------------------------------------------
# validate_execution: one reverse pass when the order is a linearization,
# Warshall's closure otherwise; the verdicts and messages stay those of the
# closure over every order
# --------------------------------------------------------------------------

def _reference_validate(program, e) -> None:
    """The validator as it was before its one-pass closure: Warshall's
    closure over every order, label scans of the modification orders."""
    thread_of, nodes = {}, {}
    for t, (instrs, _) in zip(program.threads, program._walked):
        for st in instrs:
            thread_of[st.label] = t.name
            nodes[st.label] = st
    n = len(e.order)
    idx = {lbl: i for i, lbl in enumerate(e.order)}
    rows = [0] * n

    def edge(a, b):
        rows[idx[a]] |= 1 << idx[b]

    by_thread = {}
    for lbl in e.order:
        if lbl in thread_of:
            by_thread.setdefault(thread_of[lbl], []).append(lbl)
    for seq in by_thread.values():
        seq.sort(key=idx.__getitem__)
        for a, b in zip(seq, seq[1:]):
            edge(a, b)
    for r, w in e.rf:
        if w is not None:
            edge(w, r)
    for mutex, locks in e.cs_order:
        for l1, l2 in zip(locks, locks[1:]):
            u1, after = None, False
            for lbl in e.order:
                if lbl == l1:
                    after = True
                elif (after and thread_of.get(lbl) == thread_of[l1]
                      and isinstance(nodes[lbl], UnlockInst) and nodes[lbl].mutex == mutex):
                    u1 = lbl
                    break
            assert u1 is not None, "mid-order critical section never unlocks"
            edge(u1, l2)
    for k in range(n):
        bit, row_k = 1 << k, rows[k]
        for i in range(n):
            if rows[i] & bit:
                rows[i] |= row_k
    for i in range(n):
        assert not rows[i] >> i & 1, "happens-before is cyclic"

    def hb(a, b):
        return bool(rows[idx[a]] >> idx[b] & 1)

    def ev(loset, lbl):
        for x in loset:
            if (x.label, x.instance) == (lbl.name, lbl.instance):
                return x
        raise KeyError(lbl)

    mo, rf = e.mo_map(), e.rf_map()
    for var, loset in mo.items():
        lpos = {x: i for i, x in enumerate(loset)}
        lbls = [Label(x.label, x.instance) for x in loset]
        for a in lbls:
            for b in lbls:
                if a != b and hb(a, b):
                    assert lpos[ev(loset, a)] < lpos[ev(loset, b)], \
                        "modification order contradicts happens-before"
    for r, w in rf.items():
        loset = mo.get(nodes[r].var, ())
        if w is None:
            for x in loset:
                assert not hb(Label(x.label, x.instance), r), "read of the initial value is stale"
        else:
            for x in loset[list(loset).index(ev(loset, w)) + 1:]:
                assert not hb(Label(x.label, x.instance), r), "stale read"
    for var, loset in mo.items():
        for i, x in enumerate(loset):
            lbl = Label(x.label, x.instance)
            if x.kind == "rmw" and lbl in rf:
                w = rf[lbl]
                if w is None:
                    assert i == 0, "rmw reading the initial value is not first"
                else:
                    assert list(loset).index(ev(loset, w)) == i - 1, \
                        "rmw does not read its immediate predecessor"


def _verdict(validate, program, e):
    try:
        validate(program, e)
    except (AssertionError, KeyError) as exc:  # pytest appends to a test module's messages
        return type(exc).__name__, str(exc).split("\n")[0]
    return "valid"


def _tampered(e):
    """Executions one edit away from `e`: every other source of each read,
    each modification order reversed, the order reversed and rotated."""
    writers = {}
    for _, loset in e.mo:
        for x in loset:
            writers.setdefault(x.var, []).append(Label(x.label, x.instance))
    srcs = [None] + [w for ws in writers.values() for w in ws]
    for k, (r, w) in enumerate(e.rf):
        for other in srcs:
            if other != w:
                yield replace(e, rf=e.rf[:k] + ((r, other),) + e.rf[k + 1:])
    for k, (var, loset) in enumerate(e.mo):
        if len(loset) > 1:
            yield replace(e, mo=e.mo[:k] + ((var, loset[::-1]),) + e.mo[k + 1:])
    yield replace(e, order=e.order[::-1])
    yield replace(e, order=e.order[1:] + e.order[:1])


def test_validator_matches_the_closure_over_every_order():
    verdicts = set()
    for seed in range(40):
        program = random_program(seed)
        for e in enumerate_executions(program)[:6]:
            assert _verdict(validate_execution, program, e) == "valid"
            for t in _tampered(e):
                got = _verdict(validate_execution, program, t)
                assert got == _verdict(_reference_validate, program, t)
                verdicts.add(got if got == "valid" else got[1])
    assert {"valid", "happens-before is cyclic", "stale read",
            "modification order contradicts happens-before"} <= verdicts


def test_order_need_not_linearize_happens_before():
    """An `order` that puts a read before its source still validates when
    happens-before is acyclic; the closure then falls back to Warshall's."""
    program = parse("vars x = 0;\nthread t1 { a: store x 1; }\nthread t2 { b: r = load x; }")
    (e,) = [e for e in enumerate_executions(program) if e.rf_map()[Label("b")] == Label("a")]
    swapped = tuple(sorted(e.order, key=lambda lbl: lbl != Label("b")))
    assert swapped.index(Label("b")) < swapped.index(Label("a"))
    validate_execution(program, replace(e, order=swapped))
