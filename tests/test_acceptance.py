"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
are produced.
"""

import functools
import itertools
import json
import random
import time

from ramosaic import posets as P
from ramosaic.engine import tmai
from ramosaic.litmus import parse
from ramosaic.oracle import (check_soundness, enumerate_executions,
                             losets_by_write_set, validate_execution)
from ramosaic.posets import alpha, beta_related, loset_set
from ramosaic.randprog import random_program
from ramosaic.transfer import TransferConfig

from conftest import BENCH_DIR
from galois import abs_alpha, gamma, loset_leq
from test_posets_props import SB, UNIVERSE, random_poset, sample_posets, widen_chain


def criterion(num, title):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*a, **kw):
            try:
                fn(*a, **kw)
            except BaseException:
                print(f"ACCEPTANCE {num} ({title}): FAIL")
                raise
            print(f"ACCEPTANCE {num} ({title}): PASS")
        return wrapper
    return deco


def _analyze(name, **tc_kw):
    p = parse((BENCH_DIR / name).read_text())
    return p, tmai(p, TransferConfig(**tc_kw))


@criterion(1, "message-passing verification")
def test_mp_verification():
    start = time.perf_counter()
    p, r = _analyze("mp.lit")
    elapsed = time.perf_counter() - start
    assert r.verdicts["final"].proved
    assert r.iterations_total <= 3
    assert elapsed < 1.0


@criterion(2, "iteration counts on re-encoded benchmarks")
def test_iteration_counts():
    for name in ("co_2p2w_5.lit", "co_2p2w_15.lit"):
        _, r = _analyze(name)
        assert r.all_proved, name
        assert r.iterations_effective <= 3, name
    _, r = _analyze("peterson3.lit")
    assert not r.all_proved
    assert r.iterations_effective <= 4


@criterion(3, "bug-hunting verdicts and the rmw-critical flip")
def test_bug_hunting_and_flip():
    for name in ("dijkstra_unfenced.lit", "nr1w_10.lit"):
        _, r = _analyze(name)
        assert not r.all_proved, name
    flipped = []
    for name in ("dijkstra_fen.lit", "cas_mutex_fen.lit"):
        _, r_on = _analyze(name, rmw_critical=True)
        assert r_on.all_proved, name
        _, r_off = _analyze(name, rmw_critical=False)
        if not r_off.all_proved:
            flipped.append(name)
    assert flipped, "no fenced benchmark flips on --rmw-critical"


@criterion(4, "oracle soundness fuzz, 200 programs plus corpus")
def test_soundness_fuzz():
    start = time.perf_counter()
    for f in sorted(BENCH_DIR.glob("*.lit")):
        p = parse(f.read_text())
        try:
            execs = enumerate_executions(p)
        except Exception:
            continue  # beyond the oracle guard
        rep = check_soundness(p, tmai(p), execs=execs)
        assert rep.ok, f"{f.name}: {rep.problems}"
    for seed in range(200):
        p = random_program(seed)
        execs = enumerate_executions(p)
        for e in execs[:25]:
            validate_execution(p, e)
        r = tmai(p)
        rep = check_soundness(p, r, execs=execs)
        assert rep.ok, f"seed {seed}: {rep.problems}"
    assert time.perf_counter() - start < 60.0


@criterion(5, "lattice law suite, 1000 samples")
def test_lattice_laws():
    rng = random.Random(101)
    pool = sample_posets(600, seed=102)
    for _ in range(1000):
        p1, p2, p3 = (rng.choice(pool) for _ in range(3))
        # partial-order laws
        assert P.less(p1, p1)
        if P.less(p1, p2) and P.less(p2, p3):
            assert P.less(p1, p3)
        if P.less(p1, p2) and P.less(p2, p1):
            assert p1 == p2
        # join is the lub, meet is the glb
        j, m = P.join(p1, p2), P.meet(p1, p2)
        assert P.less(p1, j) and P.less(p2, j)
        assert P.less(m, p1) and P.less(m, p2)
        for u in rng.sample(pool, 12):
            if P.less(p1, u) and P.less(p2, u):
                assert P.less(j, u)
            if P.less(u, p1) and P.less(u, p2):
                assert P.less(u, m)
        # widening is an upper bound
        w = P.widen(p1, p2)
        assert P.less(p1, w) and P.less(p2, w)
    # widening chains, drawn over sorted events and pairs, shrink at every
    # change and so settle within the first poset's events plus pairs
    for _ in range(200):
        cur = random_poset(rng, allow_bottom=False)
        chain = [cur]
        for _ in range(8):
            events = [e for e in sorted(cur.events) if rng.random() > 0.35]
            pairs = {(a, b) for a, b in sorted(cur.pairs)
                     if a in events and b in events and rng.random() > 0.35}
            cur = P.poset(events, pairs)
            chain.append(cur)
        widen_chain(chain)


@criterion(6, "Galois and forgetting-abstraction suite")
def test_galois_and_abstraction():
    rng = random.Random(201)
    # adjunction and monotonicity, exhaustive at <= 3 events (well-formed
    # loset sets; arbitrary subsets fall outside the concrete domain)
    events3 = UNIVERSE[:3]
    orders = list(itertools.permutations(events3))
    loset_sets = []
    for r in range(1, 4):
        for combo in itertools.combinations(orders, r):
            t = loset_set(combo)
            if gamma(alpha(t)) == t:
                loset_sets.append(t)
    posets3 = {alpha(t) for t in loset_sets} | {P.TOP, P.BOTTOM}
    posets3 |= {P.poset(events3[:2]), P.chain(*events3[:2]), P.poset(events3)}
    for t1 in loset_sets:
        for t2 in loset_sets:
            if loset_leq(t1, t2):
                assert P.less(alpha(t1), alpha(t2))
    for p1 in posets3:
        for p2 in posets3:
            if P.less(p1, p2):
                assert loset_leq(gamma(p1), gamma(p2))
    for t in loset_sets:
        for p in posets3:
            assert P.less(p, alpha(t)) == loset_leq(gamma(p), t)
    # sampled four-event adjunction checks
    events4 = UNIVERSE[:4]
    orders4 = list(itertools.permutations(events4))
    sampled = 0
    for _ in range(300):
        t = loset_set(rng.sample(orders4, rng.randint(1, 6)))
        if gamma(alpha(t)) != t:
            continue
        sampled += 1
        for p in [alpha(t), P.TOP, P.poset(events4), P.chain(*events4)]:
            assert P.less(p, alpha(t)) == loset_leq(gamma(p), t)
    assert sampled >= 20
    # beta soundness and minimality over 1000 random posets
    pool = sample_posets(1000, seed=202)
    candidates = sample_posets(250, seed=203)
    for p in pool:
        a = abs_alpha(p, SB)
        assert beta_related(p, a, SB)
        for q in rng.sample(candidates, 25):
            if beta_related(p, q, SB):
                assert P.less(a, q)


@criterion(8, "expected-imprecision witness")
def test_expected_imprecision_witness():
    p = parse((BENCH_DIR / "rmw_reads_init.lit").read_text())
    execs = enumerate_executions(p)
    assert not any(e.violations for e in execs)  # the oracle proves safety
    r = tmai(p)
    assert not r.all_proved  # the analyzer stays on the sound side
    assert check_soundness(p, r, execs=execs).ok


@criterion(9, "deterministic reports")
def test_determinism():
    from ramosaic.cli import analyze_file, build_arg_parser

    parser = build_arg_parser()
    for f in sorted(BENCH_DIR.glob("*.lit")):
        args = parser.parse_args([str(f)])
        rep1, _ = analyze_file(f, args)
        rep2, _ = analyze_file(f, args)
        d1, d2 = json.loads(rep1.to_json()), json.loads(rep2.to_json())
        d1.pop("elapsed_s"), d2.pop("elapsed_s")
        assert d1 == d2, f.name
