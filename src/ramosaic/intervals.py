"""Interval domain over arbitrary-precision integers, plus memories of
interned intervals.

The domain sits behind a small contract (join / widen / meet / eval /
refine, and eval and refine compiled) so a relational domain could be
slotted in later without touching the transfer functions.  `eval_expr` and
`refine` walk an expression's tree on every call; they are the reference,
and the assertion checks, which decide each distinct projection of the
states once, take them.  The transfers take the same functions compiled
once per analysis for one slot map and one value table (`compile_expr`,
`compile_cond`).  A memory's intervals are
hash-consed in its analysis's `ValueTable` (Filliâtre and Conchon,
"Type-safe modular hash-consing", ML'06), so an operator or a comparison is
a pure function of its operands' value ids, and each compiled one memoizes
its result on them, in a memo of its own.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Callable, NamedTuple, Optional

from .litmus import And, BinOp, BoolExpr, BoolLit, Cmp, IntExpr, Lit, Name, Or

_NEG_INF = float("-inf")
_POS_INF = float("inf")


class Interval(NamedTuple):
    """[lo, hi] with None meaning -inf / +inf; empty iff lo > hi (both finite).

    A tuple, so hashing and equality run in C.  The domain's operations
    return EMPTY for every empty result, so intervals that denote the same
    set of integers are equal tuples."""

    lo: Optional[int]
    hi: Optional[int]

    @property
    def is_empty(self) -> bool:
        return self.lo is not None and self.hi is not None and self.lo > self.hi

    @property
    def is_top(self) -> bool:
        return self.lo is None and self.hi is None

    def is_singleton(self) -> bool:
        return self.lo is not None and self.lo == self.hi

    def __contains__(self, v: int) -> bool:
        if self.is_empty:
            return False
        return ((self.lo is None or self.lo <= v)
                and (self.hi is None or v <= self.hi))

    def __str__(self) -> str:
        if self.is_empty:
            return "⊥v"
        if self.is_top:
            return "⊤v"
        lo = "-inf" if self.lo is None else str(self.lo)
        hi = "+inf" if self.hi is None else str(self.hi)
        return f"[{lo},{hi}]"


EMPTY = Interval(1, 0)
TOP = Interval(None, None)


def singleton(v: int) -> Interval:
    return Interval(v, v)


def _norm(iv: Interval) -> Interval:
    return EMPTY if iv.is_empty else iv


def _lo(iv: Interval):
    return _NEG_INF if iv.lo is None else iv.lo


def _hi(iv: Interval):
    return _POS_INF if iv.hi is None else iv.hi


def _mk(lo, hi) -> Interval:
    l = None if lo == _NEG_INF else int(lo)
    h = None if hi == _POS_INF else int(hi)
    if lo == _POS_INF or hi == _NEG_INF:  # empty via unbounded collapse
        return EMPTY
    return _norm(Interval(l, h))


def val_join(a: Interval, b: Interval) -> Interval:
    """The hull; an empty operand is the unit."""
    alo, ahi = a
    blo, bhi = b
    if alo is not None and ahi is not None and alo > ahi:
        return _norm(b)
    if blo is not None and bhi is not None and blo > bhi:
        return a
    if a == b:
        return a
    return Interval(None if alo is None or blo is None else min(alo, blo),
                    None if ahi is None or bhi is None else max(ahi, bhi))


def val_meet(a: Interval, b: Interval) -> Interval:
    if a.is_empty or b.is_empty:
        return EMPTY
    return _mk(max(_lo(a), _lo(b)), min(_hi(a), _hi(b)))


def val_widen(a: Interval, b: Interval) -> Interval:
    """Unstable bounds jump to infinity."""
    if a.is_empty:
        return _norm(b)
    if b.is_empty:
        return _norm(a)
    lo = _lo(a) if _lo(a) <= _lo(b) else _NEG_INF
    hi = _hi(a) if _hi(a) >= _hi(b) else _POS_INF
    return _mk(lo, hi)


def add(a: Interval, b: Interval) -> Interval:
    if a.is_empty or b.is_empty:
        return EMPTY
    return _mk(_lo(a) + _lo(b), _hi(a) + _hi(b))


def sub(a: Interval, b: Interval) -> Interval:
    if a.is_empty or b.is_empty:
        return EMPTY
    return _mk(_lo(a) - _hi(b), _hi(a) - _lo(b))


def mul(a: Interval, b: Interval) -> Interval:
    if a.is_empty or b.is_empty:
        return EMPTY

    def prod(x, y):
        if x in (_NEG_INF, _POS_INF) or y in (_NEG_INF, _POS_INF):
            if x == 0 or y == 0:
                return 0
            return _POS_INF if (x > 0) == (y > 0) else _NEG_INF
        return x * y

    cands = [prod(x, y) for x in (_lo(a), _hi(a)) for y in (_lo(b), _hi(b))]
    return _mk(min(cands), max(cands))


# --------------------------------------------------------------------------
# Memories: tuples of value ids, one per memory slot, of the analysis's
# `ValueTable`.  Expressions name their identifiers, and `slots` maps each to
# its slot, resolved once per analysis.
# --------------------------------------------------------------------------


class ValueTable:
    """The intervals of one analysis, interned: `values[i]` is the interval
    with id `i`, and `intern(iv)` gives `iv`'s id.  The domain returns EMPTY
    for every empty result, so two ids are equal exactly when their
    intervals are, and a memory of ids hashes and compares as a tuple of
    ints.  `join(a, b)` is the id of the hull of `a` and `b`, memoized on
    the id pair in `joins`, which the interference kernel reads directly,
    as it reads `PosetTable.meets`.  `sort_keys[i]` orders the intervals by
    their bounds, None being the infinite ones."""

    __slots__ = ("values", "ids", "joins", "sort_keys")

    def __init__(self):
        self.values: list = []
        self.ids: dict = {}
        self.joins: dict = {}
        self.sort_keys: list = []

    def intern(self, iv: Interval) -> int:
        i = self.ids.get(iv)
        if i is None:
            i = self.ids[iv] = len(self.values)
            self.values.append(iv)
            self.sort_keys.append((iv.lo is not None, iv.lo or 0, iv.hi is None, iv.hi or 0))
        return i

    def join(self, a: int, b: int) -> int:
        key = (a, b)
        out = self.joins.get(key)
        if out is None:
            values = self.values
            out = self.joins[key] = self.intern(val_join(values[a], values[b]))
        return out

    def mem_join(self, a: tuple, b: tuple) -> tuple:
        """The slot-wise hull of two memories of one layout: the one join
        of memories."""
        joins = self.joins
        out = []
        for x, y in zip(a, b):
            if x != y:
                j = joins.get((x, y))
                x = self.join(x, y) if j is None else j
            out.append(x)
        return tuple(out)


def eval_expr(e: IntExpr, mem: tuple, slots: dict, table: ValueTable) -> Interval:
    """The value of `e`; only the slots `e` names are read off the table."""
    if isinstance(e, Lit):
        return singleton(e.value)
    if isinstance(e, Name):
        return table.values[mem[slots[e.ident]]]
    if isinstance(e, BinOp):
        l = eval_expr(e.left, mem, slots, table)
        r = eval_expr(e.right, mem, slots, table)
        if e.op == "+":
            return add(l, r)
        if e.op == "-":
            return sub(l, r)
        if e.op == "*":
            return mul(l, r)
    raise TypeError(e)


def exclude_value(iv: Interval, k: int) -> Interval:
    """!= refinement: trims only when the excluded value is a bound."""
    if iv.is_empty:
        return EMPTY
    if iv.lo is not None and iv.lo == k:
        return _norm(Interval(k + 1, iv.hi))
    if iv.hi is not None and iv.hi == k:
        return _norm(Interval(iv.lo, k - 1))
    return iv


# Possible-satisfaction check of each comparison on the evaluated intervals.
_SATISFIABLE = {
    "==": lambda lv, rv: not val_meet(lv, rv).is_empty,
    "!=": lambda lv, rv: not (lv.is_singleton() and rv.is_singleton() and lv.lo == rv.lo),
    "<": lambda lv, rv: _lo(lv) < _hi(rv),
    "<=": lambda lv, rv: _lo(lv) <= _hi(rv),
    ">": lambda lv, rv: _hi(lv) > _lo(rv),
    ">=": lambda lv, rv: _hi(lv) >= _lo(rv),
}


# `_TIGHTEN[op](iv, b)`: iv cut down toward the values v with `v op w` for
# some w in b; an interval keeps its interior, so `!=` trims only a bound.
_TIGHTEN = {
    "==": val_meet,
    "!=": lambda iv, b: exclude_value(iv, b.lo) if b.is_singleton() else iv,
    "<": lambda iv, b: val_meet(iv, Interval(None, None if b.hi is None else b.hi - 1)),
    "<=": lambda iv, b: val_meet(iv, Interval(None, b.hi)),
    ">": lambda iv, b: val_meet(iv, Interval(None if b.lo is None else b.lo + 1, None)),
    ">=": lambda iv, b: val_meet(iv, Interval(b.lo, None)),
}

# The operator with its operands swapped: `a op b` holds iff `b FLIP[op] a`.
FLIP = {"==": "==", "!=": "!=", "<": ">", "<=": ">=", ">": "<", ">=": "<="}


def _refine_cmp(mem: tuple, cond: Cmp, slots: dict, table: ValueTable) -> Optional[tuple]:
    """A name operand is tightened against the other operand's value, both
    evaluated before either is tightened; a right operand as the left one
    of the flipped comparison.  Only a tightened slot is interned."""
    lv = eval_expr(cond.left, mem, slots, table)
    rv = eval_expr(cond.right, mem, slots, table)
    if lv.is_empty or rv.is_empty or not _SATISFIABLE[cond.op](lv, rv):
        return None
    for side, op, bound in ((cond.left, cond.op, rv), (cond.right, FLIP[cond.op], lv)):
        if isinstance(side, Name):
            k = slots[side.ident]
            old = table.values[mem[k]]
            nv = _TIGHTEN[op](old, bound)
            if nv.is_empty:
                return None
            if nv != old:
                mem = (*mem[:k], table.intern(nv), *mem[k + 1:])
    return mem


def refine(mem: tuple, cond: BoolExpr, slots: dict, table: ValueTable) -> Optional[tuple]:
    """Constrain mem, a tuple of ids of `table`, to satisfy cond; None when
    infeasible."""
    if isinstance(cond, BoolLit):
        return mem if cond.value else None
    if isinstance(cond, And):
        m = refine(mem, cond.left, slots, table)
        return refine(m, cond.right, slots, table) if m is not None else None
    if isinstance(cond, Or):
        a = refine(mem, cond.left, slots, table)
        b = refine(mem, cond.right, slots, table)
        if a is None:
            return b
        if b is None:
            return a
        return table.mem_join(a, b)
    if isinstance(cond, Cmp):
        return _refine_cmp(mem, cond, slots, table)
    raise TypeError(cond)


# --------------------------------------------------------------------------
# Compiled expressions and conditions: the functions above, compiled once per
# analysis for one slot map and one value table, taking and giving value ids.
# --------------------------------------------------------------------------

_ARITH = {"+": add, "-": sub, "*": mul}


def compile_expr(e: IntExpr, slots: dict, table: ValueTable) -> Callable[[tuple], int]:
    """`e` as a function from a memory to the id of its value, the id of
    `eval_expr(e, mem, slots, table)`.  A literal is interned once, a name
    reads its slot, and a BinOp memoizes its result on its operands' ids."""
    if isinstance(e, Lit):
        i = table.intern(singleton(e.value))
        return lambda mem: i
    if isinstance(e, Name):
        return itemgetter(slots[e.ident])
    if isinstance(e, BinOp):
        op = _ARITH[e.op]
        left = compile_expr(e.left, slots, table)
        right = compile_expr(e.right, slots, table)
        values, intern = table.values, table.intern
        memo: dict = {}

        def binop(mem):
            key = (left(mem), right(mem))
            out = memo.get(key)
            if out is None:
                out = memo[key] = intern(op(values[key[0]], values[key[1]]))
            return out
        return binop
    raise TypeError(e)


def compile_cond(cond: BoolExpr, slots: dict, table: ValueTable) -> Callable[[tuple], Optional[tuple]]:
    """`cond` as a function from a memory to `refine(mem, cond, slots,
    table)`, which it equals."""
    return _compile_cond(cond, slots, table)[0]


def _compile_cond(cond, slots, table) -> tuple:
    """(the compiled `cond`, the sorted slots it may tighten: its
    comparisons' name operands)."""
    if isinstance(cond, BoolLit):
        return ((lambda mem: mem) if cond.value else (lambda mem: None)), ()
    if isinstance(cond, Cmp):
        return _compile_cmp(cond, slots, table)
    left, lw = _compile_cond(cond.left, slots, table)
    right, rw = _compile_cond(cond.right, slots, table)
    written = tuple(sorted({*lw, *rw}))
    if isinstance(cond, And):
        def conj(mem):
            m = left(mem)
            return None if m is None else right(m)
        return conj, written
    if isinstance(cond, Or):
        join = table.join

        # the branches agree on every slot neither tightens, so the hull of
        # their memories joins only the others
        def disj(mem):
            a = left(mem)
            b = right(mem)
            if a is None:
                return b
            if b is None:
                return a
            out = list(a)
            for k in written:
                x, y = a[k], b[k]
                if x != y:
                    out[k] = join(x, y)
            return tuple(out)
        return disj, written
    raise TypeError(cond)


def _compile_cmp(cond: Cmp, slots: dict, table: ValueTable) -> tuple:
    """A comparison, memoized on the ids of its operands' values, which
    decide it: a name operand's value is its slot's.  The memo holds None
    when the comparison is infeasible, and otherwise the (slot, id) writes
    that tighten the name operands, none when nothing tightens."""
    values, intern = table.values, table.intern
    op = cond.op
    sat, tighten_left, tighten_right = _SATISFIABLE[op], _TIGHTEN[op], _TIGHTEN[FLIP[op]]
    kl = slots[cond.left.ident] if isinstance(cond.left, Name) else None
    kr = slots[cond.right.ident] if isinstance(cond.right, Name) else None

    def decide(a: int, b: int) -> Optional[tuple]:
        # as `_refine_cmp`: both operands evaluated first, the left one
        # tightened, then the right one, read after the left's write.  A
        # name operand's tightening is empty exactly when the comparison is
        # unsatisfiable, so only a comparison without one asks `sat`.
        lv, rv = values[a], values[b]
        if lv.is_empty or rv.is_empty:
            return None
        if kl is None and kr is None:
            return () if sat(lv, rv) else None
        writes = {}
        if kl is not None:
            nv = tighten_left(lv, rv)
            if nv.is_empty:
                return None
            if nv != lv:
                writes[kl] = intern(nv)
        if kr is not None:
            old = values[writes.get(kr, b)]
            nv = tighten_right(old, lv)
            if nv.is_empty:
                return None
            if nv != old:
                writes[kr] = intern(nv)
        return tuple(writes.items())

    left = compile_expr(cond.left, slots, table)
    right = compile_expr(cond.right, slots, table)
    memo: dict = {}

    def cmp(mem):
        key = (left(mem), right(mem))
        try:
            writes = memo[key]
        except KeyError:
            writes = memo[key] = decide(*key)
        if not writes:
            return None if writes is None else mem
        out = list(mem)
        for k, v in writes:
            out[k] = v
        return tuple(out)
    return cmp, tuple(sorted({k for k in (kl, kr) if k is not None}))
