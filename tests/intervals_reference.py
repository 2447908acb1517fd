"""The tree-walking evaluator that `intervals.compile_cond` and
`compile_expr` replaced, kept verbatim as the reference they and the
assertion checks must match (see test_intervals.py, test_final_assert.py and
test_fixpoint_reference.py).  It memoizes nothing; do not optimize it.
"""

from typing import Optional

from ramosaic.intervals import (_SATISFIABLE, _TIGHTEN, FLIP, Interval, ValueTable, add,
                                mul, singleton, sub)
from ramosaic.litmus import And, BinOp, BoolExpr, BoolLit, Cmp, IntExpr, Lit, Name, Or


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
