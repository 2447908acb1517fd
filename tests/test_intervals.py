import random

from hypothesis import example, given, strategies as st

from ramosaic import intervals as iv
from ramosaic.intervals import (EMPTY, FLIP, TOP, Interval, ValueTable, compile_cond,
                                compile_expr, singleton)
from ramosaic.litmus import And, BinOp, BoolLit, Cmp, Lit, Name, Or, _Parser, build_cfg, parse
from ramosaic.oracle import _eval_bool
from ramosaic.transfer import AnalysisContext, TransferConfig

from intervals_reference import eval_expr, refine

finite = st.integers(min_value=-20, max_value=20)


@st.composite
def intervals_(draw):
    kind = draw(st.integers(0, 4))
    if kind == 0:
        return EMPTY
    if kind == 1:
        return TOP
    lo = draw(finite)
    if kind == 2:
        return Interval(lo, None)
    if kind == 3:
        return Interval(None, lo)
    hi = draw(st.integers(min_value=lo, max_value=lo + 15))
    return Interval(lo, hi)


def test_join_examples():
    assert iv.val_join(singleton(1), singleton(3)) == Interval(1, 3)
    assert iv.val_join(EMPTY, Interval(2, 4)) == Interval(2, 4)
    assert iv.val_join(Interval(0, 5), Interval(2, 9)) == Interval(0, 9)


def test_widen_examples():
    assert iv.val_widen(Interval(0, 1), Interval(0, 2)) == Interval(0, None)
    assert iv.val_widen(Interval(0, 2), Interval(0, 2)) == Interval(0, 2)
    assert iv.val_widen(Interval(1, 5), Interval(0, 5)) == Interval(None, 5)


@given(intervals_(), intervals_())
def test_join_commutative(a, b):
    assert iv.val_join(a, b) == iv.val_join(b, a)


@given(intervals_(), intervals_(), intervals_())
def test_join_associative(a, b, c):
    assert iv.val_join(iv.val_join(a, b), c) == iv.val_join(a, iv.val_join(b, c))


@given(intervals_())
def test_join_idempotent(a):
    assert iv.val_join(a, a) == (EMPTY if a.is_empty else a)


@given(intervals_(), intervals_())
def test_widen_covers_join(a, b):
    joined = iv.val_join(a, b)
    assert iv.val_meet(joined, iv.val_widen(a, b)) == joined


@given(intervals_(), st.lists(intervals_(), min_size=1, max_size=6))
def test_widen_chain_stabilizes(a, chain):
    cur = a
    changes = 0
    for b in chain:
        nxt = iv.val_widen(cur, b)
        if nxt != cur:
            changes += 1
        cur = nxt
    assert changes <= 3


@st.composite
def table_intervals(draw):
    """An interval as drawn above, or the domain's result on two of them,
    which may be empty."""
    a = draw(intervals_())
    op = draw(st.sampled_from([None, iv.val_meet, iv.add, iv.sub, iv.mul, iv.val_widen]))
    return a if op is None else op(a, draw(intervals_()))


@given(st.lists(table_intervals(), min_size=1, max_size=12))
def test_value_ids_are_equal_exactly_when_the_intervals_are(ivs):
    table = ValueTable()
    ids = [table.intern(v) for v in ivs]
    assert [table.values[i] for i in ids] == ivs
    for a, ia in zip(ivs, ids):
        for b, ib in zip(ivs, ids):
            assert (ia == ib) == (a == b)
    assert sorted(set(ids)) == list(range(len(table.values)))


@given(st.lists(table_intervals(), min_size=2, max_size=8), st.data())
def test_value_table_join_is_the_interned_hull(ivs, data):
    table = ValueTable()
    ids = [table.intern(v) for v in ivs]
    for _ in range(6):
        a, b = data.draw(st.sampled_from(ids)), data.draw(st.sampled_from(ids))
        want = table.intern(iv.val_join(table.values[a], table.values[b]))
        assert table.join(a, b) == want
        assert table.joins[a, b] == want  # the memo the interference kernel reads
        assert table.join(a, b) == want  # a memo hit gives the same id
        assert table.mem_join((a,), (b,)) == (want,)


@given(st.integers(1, 5).flatmap(lambda n: st.tuples(
    st.lists(table_intervals(), min_size=n, max_size=n),
    st.lists(table_intervals(), min_size=n, max_size=n))))
def test_mem_join_is_the_slot_wise_hull(mems):
    table = ValueTable()
    a, b = (tuple(table.intern(v) for v in m) for m in mems)
    joined = table.mem_join(a, b)
    assert [table.values[i] for i in joined] == [iv.val_join(x, y) for x, y in zip(*mems)]
    assert table.mem_join(a, a) == a


_PROGRAM = parse("vars x = 0;\nthread t { a: r = load x; b: r2 = load x; }")
_CTX = AnalysisContext(_PROGRAM, build_cfg(_PROGRAM), TransferConfig())
# identifier -> memory slot in thread t's states, and the value table
SLOTS = _CTX.slots["t"]
VALUES = _CTX.values


def _mem(r=None, r2=None) -> tuple:
    """A memory of thread t, as ids of VALUES: x is 0, r and r2 as given or
    unbounded."""
    values = {"x": singleton(0), "r": TOP if r is None else r, "r2": TOP if r2 is None else r2}
    return tuple(VALUES.intern(values[n]) for n in sorted(SLOTS, key=SLOTS.get))


def _at(mem: tuple, name: str) -> Interval:
    return VALUES.values[mem[SLOTS[name]]]


def _evaluated(expr_src, mem) -> Interval:
    return VALUES.values[compile_expr(_Parser(expr_src).parse_iexpr(), SLOTS, VALUES)(mem)]


def test_eval_examples():
    mem = _mem(r=Interval(0, 2))
    assert _evaluated("r + 1", mem) == Interval(1, 3)
    assert _evaluated("5", mem) == singleton(5)
    assert _evaluated("r - r2", _mem(r=Interval(0, 1), r2=Interval(0, 1))) == Interval(-1, 1)
    assert _evaluated("r * r2", _mem(r=Interval(-1, 2), r2=Interval(-3, 3))) == Interval(-6, 6)


def _refined(cond_src, r):
    return compile_cond(_Parser(cond_src).parse_bexpr(), SLOTS, VALUES)(_mem(r=r))


def test_refine_examples():
    out = _refined("r == 3", Interval(0, 5))
    assert _at(out, "r") == singleton(3)
    assert _refined("r > 4", Interval(0, 1)) is None
    out = _refined("r != 0", Interval(0, 5))
    assert _at(out, "r") == Interval(1, 5)
    out = _refined("r != 3", Interval(0, 5))
    assert _at(out, "r") == Interval(0, 5)  # interior value: no trim


def test_refine_conjunction_disjunction():
    out = _refined("r >= 1 && r <= 3", Interval(0, 9))
    assert _at(out, "r") == Interval(1, 3)
    out = _refined("r == 0 || r == 5", Interval(0, 5))
    assert _at(out, "r") == Interval(0, 5)  # hull of both branches
    assert _refined("r == 0 && r == 5", Interval(0, 5)) is None


def test_refine_soundness_against_enumeration():
    """Every concrete value satisfying the condition, as the oracle
    evaluates it, survives the compiled condition."""
    rng = random.Random(7)
    conds = ["r == 2", "r != 2", "r < 3", "r <= 3", "r > 1", "r >= 1",
             "r == 2 || r >= 4", "r >= 1 && r != 5", "r < 2 || r2 > 3",
             "r == r2", "r != r2", "r <= r2"]
    for _ in range(120):
        cond = _Parser(rng.choice(conds)).parse_bexpr()
        lo1, lo2 = rng.randint(-2, 4), rng.randint(-2, 4)
        a = Interval(lo1, lo1 + rng.randint(0, 5))
        b = Interval(lo2, lo2 + rng.randint(0, 5))
        out = compile_cond(cond, SLOTS, VALUES)(_mem(r=a, r2=b))
        for va in range(a.lo, a.hi + 1):
            for vb in range(b.lo, b.hi + 1):
                if _eval_bool(cond, {"r": va, "r2": vb}):
                    assert out is not None
                    assert va in _at(out, "r") and vb in _at(out, "r2")


@given(st.sampled_from(sorted(FLIP)), intervals_(), intervals_(),
       st.one_of(st.just("r"), st.just("r2"), finite))
def test_refine_is_symmetric_under_the_flipped_operator(op, a, b, right):
    """`r op e` and `e flip(op) r` compile to conditions that constrain
    alike, for e another name, the same name or a literal, over intervals
    with unbounded or empty ends."""
    mem = _mem(r=a, r2=b)
    left, right = Name("r"), Name(right) if isinstance(right, str) else Lit(right)
    assert (compile_cond(Cmp(op, left, right), SLOTS, VALUES)(mem)
            == compile_cond(Cmp(FLIP[op], right, left), SLOTS, VALUES)(mem))


# --------------------------------------------------------------------------
# The compiled kernel against the tree-walking reference
# --------------------------------------------------------------------------

KERNEL_SLOTS = {"x": 0, "r": 1, "r2": 2}
names = st.sampled_from(sorted(KERNEL_SLOTS)).map(Name)
int_exprs = st.recursive(st.one_of(finite.map(Lit), names),
                         lambda inner: st.builds(BinOp, st.sampled_from("+-*"), inner, inner),
                         max_leaves=4)
ops = st.sampled_from(sorted(FLIP))
comparisons = st.one_of(st.builds(Cmp, ops, names, names),  # `r == r` among them
                        st.builds(Cmp, ops, names, finite.map(Lit)),
                        st.builds(Cmp, ops, int_exprs, int_exprs))
conditions = st.recursive(st.one_of(comparisons, st.booleans().map(BoolLit)),
                          lambda inner: st.one_of(st.builds(And, inner, inner),
                                                  st.builds(Or, inner, inner)),
                          max_leaves=6)
# memories of x, r and r2, with empty, top and half-unbounded intervals
memories = st.lists(st.tuples(intervals_(), intervals_(), intervals_()), min_size=1, max_size=4)


def _interned(table: ValueTable, mems) -> list:
    return [tuple(map(table.intern, m)) for m in mems]


@given(conditions, memories)
# a name compared with itself: the right operand is tightened from the
# left's result, so `r < r` on [0,5] gives [1,4]
@example(Cmp("<", Name("r"), Name("r")), [(singleton(0), Interval(0, 5), TOP)])
@example(Cmp(">=", Name("r"), Name("r")), [(singleton(0), Interval(None, 5), TOP)])
def test_compiled_condition_equals_refine(cond, mems):
    """`compile_cond` gives `refine`'s memory, or None with it; each memory
    is tried twice, so the second call answers from the memos."""
    table = ValueTable()
    compiled = compile_cond(cond, KERNEL_SLOTS, table)
    ids = _interned(table, mems)
    for mem in ids + ids:
        assert compiled(mem) == refine(mem, cond, KERNEL_SLOTS, table)


@given(int_exprs, memories)
def test_compiled_expression_equals_eval_expr(e, mems):
    """`compile_expr` gives the id of `eval_expr`'s interval, twice."""
    table = ValueTable()
    compiled = compile_expr(e, KERNEL_SLOTS, table)
    ids = _interned(table, mems)
    for mem in ids + ids:
        assert compiled(mem) == table.intern(eval_expr(e, mem, KERNEL_SLOTS, table))


@given(conditions, memories)
def test_two_analyses_share_no_memo(cond, mems):
    """One condition compiled for two value tables, which give the same
    intervals other ids, answers each table in its own ids: a memo shared
    through ids would give the second table the first one's intervals."""
    first, second = ValueTable(), ValueTable()
    for iv_ in reversed([iv_ for m in mems for iv_ in m]):
        second.intern(iv_)
    results = []
    for table in (first, second):
        compiled = compile_cond(cond, KERNEL_SLOTS, table)
        out = []
        for mem in _interned(table, mems) * 2:
            got = compiled(mem)
            assert got == refine(mem, cond, KERNEL_SLOTS, table)
            out.append(None if got is None else tuple(table.values[i] for i in got))
        results.append(out)
    assert results[0] == results[1]


def test_a_comparison_decides_each_value_id_once(monkeypatch):
    """`r <= 3` is decided once per id of r's slot, whatever the other
    slots hold."""
    decided = []
    real = iv._TIGHTEN["<="]
    monkeypatch.setitem(iv._TIGHTEN, "<=", lambda lv, rv: decided.append(lv) or real(lv, rv))
    table = ValueTable()
    compiled = compile_cond(Cmp("<=", Name("r"), Lit(3)), KERNEL_SLOTS, table)
    for x in range(4):
        (mem,) = _interned(table, [(singleton(x), Interval(0, 9), singleton(x))])
        assert table.values[compiled(mem)[KERNEL_SLOTS["r"]]] == Interval(0, 3)
    assert decided == [Interval(0, 9)]
