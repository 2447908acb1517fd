"""Interval domain over arbitrary-precision integers, plus memory maps.

The domain sits behind a small contract (join / widen / meet / eval / refine)
so a relational domain could be slotted in later without touching the
transfer functions.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .litmus import And, BinOp, BoolExpr, BoolLit, Cmp, IntExpr, Lit, Name, Or, expr_names

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
    """The hull; an empty operand is the unit.  Bounds are read from the
    tuple directly, since the merge joins every memory slot."""
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
# Memories: plain dicts from memory key to Interval.
# --------------------------------------------------------------------------

Memory = dict


def mem_join(a: Memory, b: Memory) -> Memory:
    out = dict(a)
    for k, v in b.items():
        out[k] = val_join(out[k], v) if k in out else v
    return out


class NameEnv:
    """Resolves bare identifiers to memory keys for one thread's expressions,
    or, with thread None, for the postcondition.  Every name is resolved
    once, when the environment is built."""

    def __init__(self, program, thread: Optional[str]):
        self.keys = {v: v for v in program.shared_names()}
        if thread is not None:
            self.keys.update((r, program.register_key(thread, r))
                             for r in program.thread_registers(thread))
        elif program.postcondition is not None:
            self.keys.update((ident, program.resolve_postcondition_name(ident))
                             for ident in expr_names(program.postcondition))

    def key(self, ident: str) -> str:
        return self.keys[ident]


def eval_expr(e: IntExpr, mem: Memory, env: NameEnv) -> Interval:
    if isinstance(e, Lit):
        return singleton(e.value)
    if isinstance(e, Name):
        return mem[env.key(e.ident)]
    if isinstance(e, BinOp):
        l = eval_expr(e.left, mem, env)
        r = eval_expr(e.right, mem, env)
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


def _refine_cmp(mem: Memory, cond: Cmp, env: NameEnv) -> Optional[Memory]:
    lv = eval_expr(cond.left, mem, env)
    rv = eval_expr(cond.right, mem, env)
    if lv.is_empty or rv.is_empty:
        return None
    op = cond.op
    if not _SATISFIABLE[op](lv, rv):
        return None
    out = dict(mem)

    def tighten(ident: str, bound: Interval):
        k = env.key(ident)
        nv = val_meet(out[k], bound)
        if nv.is_empty:
            return False
        out[k] = nv
        return True

    ok = True
    if isinstance(cond.left, Name):
        if op == "==":
            ok = tighten(cond.left.ident, rv)
        elif op == "!=" and rv.is_singleton():
            k = env.key(cond.left.ident)
            out[k] = exclude_value(out[k], rv.lo)
            ok = not out[k].is_empty
        elif op == "<":
            ok = tighten(cond.left.ident, Interval(None, None if rv.hi is None else rv.hi - 1))
        elif op == "<=":
            ok = tighten(cond.left.ident, Interval(None, rv.hi))
        elif op == ">":
            ok = tighten(cond.left.ident, Interval(None if rv.lo is None else rv.lo + 1, None))
        elif op == ">=":
            ok = tighten(cond.left.ident, Interval(rv.lo, None))
    if ok and isinstance(cond.right, Name):
        if op == "==":
            ok = tighten(cond.right.ident, lv)
        elif op == "!=" and lv.is_singleton():
            k = env.key(cond.right.ident)
            out[k] = exclude_value(out[k], lv.lo)
            ok = not out[k].is_empty
        elif op == "<":
            ok = tighten(cond.right.ident, Interval(None if lv.lo is None else lv.lo + 1, None))
        elif op == "<=":
            ok = tighten(cond.right.ident, Interval(lv.lo, None))
        elif op == ">":
            ok = tighten(cond.right.ident, Interval(None, None if lv.hi is None else lv.hi - 1))
        elif op == ">=":
            ok = tighten(cond.right.ident, Interval(None, lv.hi))
    return out if ok else None


def refine(mem: Memory, cond: BoolExpr, env: NameEnv) -> Optional[Memory]:
    """Constrain mem to satisfy cond; None when infeasible."""
    if isinstance(cond, BoolLit):
        return dict(mem) if cond.value else None
    if isinstance(cond, And):
        m = refine(mem, cond.left, env)
        return refine(m, cond.right, env) if m is not None else None
    if isinstance(cond, Or):
        a = refine(mem, cond.left, env)
        b = refine(mem, cond.right, env)
        if a is None:
            return b
        if b is None:
            return a
        return mem_join(a, b)
    if isinstance(cond, Cmp):
        return _refine_cmp(mem, cond, env)
    raise TypeError(cond)
