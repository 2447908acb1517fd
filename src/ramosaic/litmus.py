"""Litmus-language frontend: AST, parser, loop unrolling, per-thread CFGs.

The input dialect is small: shared integer variables with initial values,
optional mutexes, one block per thread, and an optional final assertion over
thread-local registers.  All stores are release, all loads are acquire, and
read-modify-writes are acq-rel; there are no other access modes.

Grammar (whitespace-insensitive, `#` starts a line comment)::

    program := decls thread+ assert? ;
    decls   := "vars" name "=" int ("," name "=" int)* ";"
               ("locks" name ("," name)* ";")?
    thread  := "thread" name "{" stmt* "}"
    stmt    := label ":" op ";"
             | "if" "(" bexpr ")" block ("else" block)?
             | "while" "(" bexpr ")" block
    op      := "store" var iexpr | reg "=" "load" var
             | reg "=" "cas" var iexpr iexpr | reg "=" "fadd" var iexpr
             | "lock" name | "unlock" name | reg "=" iexpr
             | "assume" "(" bexpr ")" | "assert" "(" bexpr ")"
    assert  := "assert" "(" bexpr ")" ";"
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Dict, Iterator, List, NamedTuple, Optional, Union


class ParseError(Exception):
    def __init__(self, line: int, col: int, message: str):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col
        self.message = message


class SemanticError(Exception):
    pass


# --------------------------------------------------------------------------
# Expressions
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Lit:
    value: int


@dataclass(frozen=True)
class Name:
    ident: str


@dataclass(frozen=True)
class BinOp:
    op: str  # + - *
    left: "IntExpr"
    right: "IntExpr"


IntExpr = Union[Lit, Name, BinOp]


@dataclass(frozen=True)
class Cmp:
    op: str  # == != < <= > >=
    left: IntExpr
    right: IntExpr


@dataclass(frozen=True)
class And:
    left: "BoolExpr"
    right: "BoolExpr"


@dataclass(frozen=True)
class Or:
    left: "BoolExpr"
    right: "BoolExpr"


@dataclass(frozen=True)
class BoolLit:
    value: bool


BoolExpr = Union[Cmp, And, Or, BoolLit]

_NEG_CMP = {"==": "!=", "!=": "==", "<": ">=", "<=": ">", ">": "<=", ">=": "<"}


def negate(b: BoolExpr) -> BoolExpr:
    """Negation in negation normal form (the AST has no Not node)."""
    if isinstance(b, Cmp):
        return Cmp(_NEG_CMP[b.op], b.left, b.right)
    if isinstance(b, And):
        return Or(negate(b.left), negate(b.right))
    if isinstance(b, Or):
        return And(negate(b.left), negate(b.right))
    return BoolLit(not b.value)


def expr_names(e) -> set[str]:
    if isinstance(e, Name):
        return {e.ident}
    if isinstance(e, BinOp):
        return expr_names(e.left) | expr_names(e.right)
    if isinstance(e, Cmp):
        return expr_names(e.left) | expr_names(e.right)
    if isinstance(e, (And, Or)):
        return expr_names(e.left) | expr_names(e.right)
    return set()


# --------------------------------------------------------------------------
# Labels and instructions
# --------------------------------------------------------------------------

class Label(NamedTuple):
    """A statement label and its loop-instance number.

    A tuple, so hashing, equality and ordering run in C; the order is the
    field order, as `dataclass(order=True)` gave.  A Label also equals the
    plain tuple `(name, instance)`, so containers keep to one of the two.
    """

    name: str
    instance: int = 1

    def __str__(self) -> str:
        return self.name if self.instance == 1 else f"{self.name}.{self.instance}"


@dataclass(frozen=True)
class Store:
    label: Label
    var: str
    value: IntExpr


@dataclass(frozen=True)
class LoadInst:
    label: Label
    reg: str
    var: str


@dataclass(frozen=True)
class Cas:
    label: Label
    reg: str
    var: str
    expected: IntExpr
    new: IntExpr


@dataclass(frozen=True)
class Fadd:
    label: Label
    reg: str
    var: str
    addend: IntExpr


@dataclass(frozen=True)
class LockInst:
    label: Label
    mutex: str


@dataclass(frozen=True)
class UnlockInst:
    label: Label
    mutex: str


@dataclass(frozen=True)
class Assign:
    label: Label
    reg: str
    value: IntExpr


@dataclass(frozen=True)
class Assume:
    label: Label
    cond: BoolExpr


@dataclass(frozen=True)
class AssertInst:
    label: Label
    cond: BoolExpr


@dataclass(frozen=True)
class Nop:
    """Synthetic CFG node (thread entry/exit, branch join, loop header)."""

    label: Label


Simple = Union[Store, LoadInst, Cas, Fadd, LockInst, UnlockInst, Assign,
               Assume, AssertInst, Nop]


@dataclass(frozen=True)
class If:
    cond: BoolExpr
    then_body: tuple
    else_body: tuple


@dataclass(frozen=True)
class While:
    cond: BoolExpr
    body: tuple


Stmt = Union[Simple, If, While]


class Access(NamedTuple):
    """What a memory-touching instruction does: its kind (store, rmw, load,
    lock or unlock) and the shared variable or mutex it touches."""

    kind: str
    loc: str


def _access(instr: Simple) -> Optional[Access]:
    """The instruction's access, or None for one that touches no memory."""
    if isinstance(instr, Store):
        return Access("store", instr.var)
    if isinstance(instr, (Cas, Fadd)):
        return Access("rmw", instr.var)
    if isinstance(instr, LoadInst):
        return Access("load", instr.var)
    if isinstance(instr, LockInst):
        return Access("lock", instr.mutex)
    if isinstance(instr, UnlockInst):
        return Access("unlock", instr.mutex)
    return None


@dataclass(frozen=True)
class Thread:
    name: str
    body: tuple


@dataclass(frozen=True)
class Program:
    shared: tuple  # ((name, init), ...)
    mutexes: tuple
    threads: tuple
    postcondition: Optional[BoolExpr]

    def shared_names(self) -> tuple:
        return tuple(n for n, _ in self.shared)

    # The registers of each thread and the threads that write each register,
    # walked once per program; cached_property keeps them in the instance's
    # __dict__, outside the fields, so == and hash ignore them.

    @cached_property
    def _registers_of(self) -> Dict[str, tuple]:
        return {t.name: tuple(sorted(_registers(t.body))) for t in self.threads}

    @cached_property
    def _register_owners(self) -> Dict[str, List[str]]:
        owners: Dict[str, List[str]] = {}
        for t in self.threads:
            for r in self.thread_registers(t.name):
                owners.setdefault(r, []).append(t.name)
        return owners

    def thread_registers(self, tname: str) -> tuple:
        return self._registers_of[tname]

    def register_key(self, tname: str, reg: str) -> str:
        return f"{tname}.{reg}"

    def resolve_postcondition_name(self, ident: str) -> str:
        """Map a bare register name in the final assertion to its memory key."""
        owners = self._register_owners.get(ident, ())
        if not owners:
            raise SemanticError(f"postcondition references unknown register {ident!r}")
        if len(owners) > 1:
            raise SemanticError(f"postcondition register {ident!r} is ambiguous "
                                f"(threads {', '.join(owners)})")
        return self.register_key(owners[0], ident)


def walk_simple(stmts) -> Iterator[Simple]:
    for st in stmts:
        if isinstance(st, If):
            yield from walk_simple(st.then_body)
            yield from walk_simple(st.else_body)
        elif isinstance(st, While):
            yield from walk_simple(st.body)
        else:
            yield st


def _registers(body) -> set:
    """The registers that the instructions of a thread body write."""
    return {i.reg for i in walk_simple(body) if isinstance(i, (LoadInst, Cas, Fadd, Assign))}


# --------------------------------------------------------------------------
# Lexer / parser
# --------------------------------------------------------------------------

_KEYWORDS = {"vars", "locks", "thread", "if", "else", "while", "store", "load",
             "cas", "fadd", "lock", "unlock", "assume", "assert", "true", "false"}

_SYMBOLS = ["==", "!=", "<=", ">=", "&&", "||",
            "{", "}", "(", ")", "=", ";", ":", ",", "<", ">", "+", "-", "*", "!"]


@dataclass
class _Tok:
    kind: str  # ident | int | sym | eof
    text: str
    line: int
    col: int


def _lex(source: str) -> list:
    toks = []
    line, col, i = 1, 1, 0
    n = len(source)
    while i < n:
        c = source[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if c == "#":
            while i < n and source[i] != "\n":
                i += 1
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            toks.append(_Tok("ident", source[i:j], line, col))
            col += j - i
            i = j
            continue
        if "0" <= c <= "9":  # str.isdigit() takes other scripts' digits too
            j = i
            while j < n and "0" <= source[j] <= "9":
                j += 1
            toks.append(_Tok("int", source[i:j], line, col))
            col += j - i
            i = j
            continue
        for sym in _SYMBOLS:
            if source.startswith(sym, i):
                toks.append(_Tok("sym", sym, line, col))
                i += len(sym)
                col += len(sym)
                break
        else:
            raise ParseError(line, col, f"unexpected character {c!r}")
    toks.append(_Tok("eof", "", line, col))
    return toks


class _Parser:
    def __init__(self, source: str):
        self.toks = _lex(source)
        self.pos = 0

    def peek(self) -> _Tok:
        return self.toks[self.pos]

    def next(self) -> _Tok:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def error(self, message: str):
        t = self.peek()
        raise ParseError(t.line, t.col, message)

    def expect_sym(self, sym: str) -> _Tok:
        t = self.peek()
        if t.kind != "sym" or t.text != sym:
            self.error(f"expected {sym!r}, found {t.text!r}")
        return self.next()

    def expect_ident(self) -> str:
        t = self.peek()
        if t.kind != "ident":
            self.error(f"expected identifier, found {t.text!r}")
        if t.text in _KEYWORDS:
            self.error(f"keyword {t.text!r} cannot be used as a name")
        return self.next().text

    def at_sym(self, sym: str) -> bool:
        t = self.peek()
        return t.kind == "sym" and t.text == sym

    def at_kw(self, kw: str) -> bool:
        t = self.peek()
        return t.kind == "ident" and t.text == kw

    def eat_kw(self, kw: str):
        if not self.at_kw(kw):
            self.error(f"expected {kw!r}")
        self.next()

    # -- expressions -------------------------------------------------------

    def parse_int(self) -> int:
        sign = 1
        if self.at_sym("-"):
            self.next()
            sign = -1
        t = self.peek()
        if t.kind != "int":
            self.error("expected integer literal")
        return sign * int(self.next().text)

    def parse_iexpr(self) -> IntExpr:
        e = self.parse_term()
        while self.at_sym("+") or self.at_sym("-"):
            op = self.next().text
            e = BinOp(op, e, self.parse_term())
        return e

    def parse_term(self) -> IntExpr:
        e = self.parse_factor()
        while self.at_sym("*"):
            self.next()
            e = BinOp("*", e, self.parse_factor())
        return e

    def parse_factor(self) -> IntExpr:
        if self.at_sym("-"):
            self.next()
            inner = self.parse_factor()
            if isinstance(inner, Lit):
                return Lit(-inner.value)
            return BinOp("-", Lit(0), inner)
        if self.at_sym("("):
            self.next()
            e = self.parse_iexpr()
            self.expect_sym(")")
            return e
        t = self.peek()
        if t.kind == "int":
            return Lit(int(self.next().text))
        if t.kind == "ident" and t.text not in _KEYWORDS:
            return Name(self.next().text)
        self.error("expected integer expression")

    def parse_bexpr(self) -> BoolExpr:
        e = self.parse_bterm()
        while self.at_sym("||"):
            self.next()
            e = Or(e, self.parse_bterm())
        return e

    def parse_bterm(self) -> BoolExpr:
        e = self.parse_bfactor()
        while self.at_sym("&&"):
            self.next()
            e = And(e, self.parse_bfactor())
        return e

    def parse_bfactor(self) -> BoolExpr:
        if self.at_sym("!"):
            self.next()
            return negate(self.parse_bfactor())
        if self.at_kw("true"):
            self.next()
            return BoolLit(True)
        if self.at_kw("false"):
            self.next()
            return BoolLit(False)
        # A '(' may open either a nested bexpr or a parenthesized iexpr;
        # try the comparison reading first and backtrack.
        save = self.pos
        try:
            left = self.parse_iexpr()
            t = self.peek()
            if t.kind == "sym" and t.text in ("==", "!=", "<", "<=", ">", ">="):
                op = self.next().text
                return Cmp(op, left, self.parse_iexpr())
            raise ParseError(t.line, t.col, "expected comparison operator")
        except ParseError:
            self.pos = save
        self.expect_sym("(")
        e = self.parse_bexpr()
        self.expect_sym(")")
        return e

    # -- statements --------------------------------------------------------

    def parse_block(self) -> tuple:
        self.expect_sym("{")
        out = []
        while not self.at_sym("}"):
            out.append(self.parse_stmt())
        self.expect_sym("}")
        return tuple(out)

    def parse_stmt(self) -> Stmt:
        if self.at_kw("if"):
            self.next()
            self.expect_sym("(")
            cond = self.parse_bexpr()
            self.expect_sym(")")
            then_body = self.parse_block()
            else_body: tuple = ()
            if self.at_kw("else"):
                self.next()
                else_body = self.parse_block()
            return If(cond, then_body, else_body)
        if self.at_kw("while"):
            self.next()
            self.expect_sym("(")
            cond = self.parse_bexpr()
            self.expect_sym(")")
            return While(cond, self.parse_block())
        label = Label(self.expect_ident())
        self.expect_sym(":")
        op = self.parse_op(label)
        self.expect_sym(";")
        return op

    def parse_op(self, label: Label) -> Simple:
        if self.at_kw("store"):
            self.next()
            var = self.expect_ident()
            return Store(label, var, self.parse_iexpr())
        if self.at_kw("lock"):
            self.next()
            return LockInst(label, self.expect_ident())
        if self.at_kw("unlock"):
            self.next()
            return UnlockInst(label, self.expect_ident())
        if self.at_kw("assume"):
            self.next()
            self.expect_sym("(")
            cond = self.parse_bexpr()
            self.expect_sym(")")
            return Assume(label, cond)
        if self.at_kw("assert"):
            self.next()
            self.expect_sym("(")
            cond = self.parse_bexpr()
            self.expect_sym(")")
            return AssertInst(label, cond)
        reg = self.expect_ident()
        self.expect_sym("=")
        if self.at_kw("load"):
            self.next()
            return LoadInst(label, reg, self.expect_ident())
        if self.at_kw("cas"):
            self.next()
            var = self.expect_ident()
            expected = self.parse_factor()
            new = self.parse_factor()
            return Cas(label, reg, var, expected, new)
        if self.at_kw("fadd"):
            self.next()
            var = self.expect_ident()
            return Fadd(label, reg, var, self.parse_factor())
        return Assign(label, reg, self.parse_iexpr())

    def parse_program(self) -> Program:
        self.eat_kw("vars")
        shared = []
        while True:
            name = self.expect_ident()
            self.expect_sym("=")
            t = self.peek()
            if t.kind != "int" and not self.at_sym("-"):
                self.error("shared variables need an integer initializer")
            shared.append((name, self.parse_int()))
            if self.at_sym(","):
                self.next()
                continue
            break
        self.expect_sym(";")
        mutexes: list = []
        if self.at_kw("locks"):
            self.next()
            while True:
                mutexes.append(self.expect_ident())
                if self.at_sym(","):
                    self.next()
                    continue
                break
            self.expect_sym(";")
        threads = []
        while self.at_kw("thread"):
            self.next()
            tname = self.expect_ident()
            threads.append(Thread(tname, self.parse_block()))
        post = None
        if self.at_kw("assert"):
            self.next()
            self.expect_sym("(")
            post = self.parse_bexpr()
            self.expect_sym(")")
            self.expect_sym(";")
        if self.peek().kind != "eof":
            self.error("trailing input after program")
        if not threads:
            self.error("program needs at least one thread")
        return Program(tuple(shared), tuple(mutexes), tuple(threads), post)


def parse(source: str) -> Program:
    program = _Parser(source).parse_program()
    _check_semantics(program)
    return program


def _check_semantics(p: Program):
    shared = set()
    for name, _ in p.shared:
        if name in shared:
            raise SemanticError(f"duplicate shared variable {name!r}")
        shared.add(name)
    mutexes = set()
    for name in p.mutexes:
        if name in mutexes or name in shared:
            raise SemanticError(f"duplicate or clashing mutex {name!r}")
        mutexes.add(name)
    tnames = set()
    labels = set()
    for t in p.threads:
        if t.name in tnames:
            raise SemanticError(f"duplicate thread {t.name!r}")
        tnames.add(t.name)
        regs = _registers(t.body)
        clash = regs & (shared | mutexes)
        if clash:
            raise SemanticError(f"register {sorted(clash)[0]!r} in thread "
                                f"{t.name!r} shadows a shared name")
        for instr in walk_simple(t.body):
            if instr.label in labels:
                raise SemanticError(f"duplicate label {instr.label}")
            labels.add(instr.label)
            if isinstance(instr, (Store, LoadInst, Cas, Fadd)) and instr.var not in shared:
                raise SemanticError(f"{instr.label}: undeclared variable {instr.var!r}")
            if isinstance(instr, (LockInst, UnlockInst)) and instr.mutex not in mutexes:
                raise SemanticError(f"{instr.label}: undeclared mutex {instr.mutex!r}")
            for e in _instr_exprs(instr):
                bad = expr_names(e) - regs
                if bad:
                    raise SemanticError(f"{instr.label}: expression references "
                                        f"{sorted(bad)[0]!r}, which is not a register "
                                        f"of thread {t.name!r}")
        for st in _walk_structured(t.body):
            bad = expr_names(st.cond) - regs
            if bad:
                raise SemanticError(f"branch condition references {sorted(bad)[0]!r}, "
                                    f"which is not a register of thread {t.name!r}")
        _must_hold(t.body, frozenset())
    if p.postcondition is not None:
        for ident in expr_names(p.postcondition):
            p.resolve_postcondition_name(ident)  # raises if unknown/ambiguous


def _must_hold(stmts, held: frozenset) -> frozenset:
    """The mutexes held on every path through `stmts` entered with `held`:
    an `if` keeps those that both branches hold, a `while` those that its
    body keeps held, iterated to a fixpoint.  SemanticError at an unlock
    of a mutex that some path to it does not hold."""
    for st in stmts:
        if isinstance(st, If):
            held = _must_hold(st.then_body, held) & _must_hold(st.else_body, held)
        elif isinstance(st, While):
            while True:  # the last walk of the body starts from the fixpoint
                head = held & _must_hold(st.body, held)
                if head == held:
                    break
                held = head
        elif isinstance(st, LockInst):
            held = held | {st.mutex}
        elif isinstance(st, UnlockInst):
            if st.mutex not in held:
                raise SemanticError(f"{st.label}: unlock of {st.mutex!r}, which some "
                                    f"path to it does not hold")
            held = held - {st.mutex}
    return held


def _instr_exprs(instr: Simple):
    if isinstance(instr, Store):
        yield instr.value
    elif isinstance(instr, Cas):
        yield instr.expected
        yield instr.new
    elif isinstance(instr, Fadd):
        yield instr.addend
    elif isinstance(instr, Assign):
        yield instr.value
    elif isinstance(instr, (Assume, AssertInst)):
        yield instr.cond


def _walk_structured(stmts):
    for st in stmts:
        if isinstance(st, If):
            yield st
            yield from _walk_structured(st.then_body)
            yield from _walk_structured(st.else_body)
        elif isinstance(st, While):
            yield st
            yield from _walk_structured(st.body)


# --------------------------------------------------------------------------
# Printing (round-trip on instance-1 programs)
# --------------------------------------------------------------------------

def expr_to_source(e) -> str:
    if isinstance(e, Lit):
        return str(e.value)
    if isinstance(e, Name):
        return e.ident
    if isinstance(e, BinOp):
        return f"({expr_to_source(e.left)} {e.op} {expr_to_source(e.right)})"
    if isinstance(e, Cmp):
        return f"{expr_to_source(e.left)} {e.op} {expr_to_source(e.right)}"
    if isinstance(e, And):
        return f"({expr_to_source(e.left)} && {expr_to_source(e.right)})"
    if isinstance(e, Or):
        return f"({expr_to_source(e.left)} || {expr_to_source(e.right)})"
    if isinstance(e, BoolLit):
        return "true" if e.value else "false"
    raise TypeError(e)


def _stmt_to_source(st: Stmt, indent: str) -> str:
    if isinstance(st, If):
        src = f"{indent}if ({expr_to_source(st.cond)}) {{\n"
        src += "".join(_stmt_to_source(s, indent + "  ") for s in st.then_body)
        src += f"{indent}}}"
        if st.else_body:
            src += " else {\n"
            src += "".join(_stmt_to_source(s, indent + "  ") for s in st.else_body)
            src += f"{indent}}}"
        return src + "\n"
    if isinstance(st, While):
        src = f"{indent}while ({expr_to_source(st.cond)}) {{\n"
        src += "".join(_stmt_to_source(s, indent + "  ") for s in st.body)
        return src + f"{indent}}}\n"
    body = {
        Store: lambda i: f"store {i.var} {expr_to_source(i.value)}",
        LoadInst: lambda i: f"{i.reg} = load {i.var}",
        Cas: lambda i: f"{i.reg} = cas {i.var} {expr_to_source(i.expected)} {expr_to_source(i.new)}",
        Fadd: lambda i: f"{i.reg} = fadd {i.var} {expr_to_source(i.addend)}",
        LockInst: lambda i: f"lock {i.mutex}",
        UnlockInst: lambda i: f"unlock {i.mutex}",
        Assign: lambda i: f"{i.reg} = {expr_to_source(i.value)}",
        Assume: lambda i: f"assume ({expr_to_source(i.cond)})",
        AssertInst: lambda i: f"assert ({expr_to_source(i.cond)})",
    }[type(st)](st)
    return f"{indent}{st.label}: {body};\n"


def to_source(p: Program) -> str:
    decls = ", ".join(f"{n} = {v}" for n, v in p.shared)
    src = f"vars {decls};\n"
    if p.mutexes:
        src += "locks " + ", ".join(p.mutexes) + ";\n"
    for t in p.threads:
        src += f"thread {t.name} {{\n"
        src += "".join(_stmt_to_source(st, "  ") for st in t.body)
        src += "}\n"
    if p.postcondition is not None:
        src += f"assert ({expr_to_source(p.postcondition)});\n"
    return src


# --------------------------------------------------------------------------
# Loop unrolling
# --------------------------------------------------------------------------

def unroll(p: Program, bound: int) -> Program:
    """Replace every while by `bound` guarded copies plus a residual assume.

    Copied instructions get fresh instance-indexed labels; the residual is
    assume(!cond).
    """
    if bound < 1:
        raise ValueError("unroll bound must be >= 1")
    counters: dict = {}
    synth = itertools.count(1)

    def relabel(st: Stmt) -> Stmt:
        if isinstance(st, If):
            return If(st.cond, tuple(relabel(s) for s in st.then_body),
                      tuple(relabel(s) for s in st.else_body))
        if isinstance(st, While):
            return While(st.cond, tuple(relabel(s) for s in st.body))
        nxt = counters.get(st.label.name, 0) + 1
        counters[st.label.name] = nxt
        return replace(st, label=Label(st.label.name, nxt))

    def expand(stmts) -> tuple:
        out = []
        for st in stmts:
            if isinstance(st, While):
                inner = expand(st.body)
                for _ in range(bound):
                    out.append(If(st.cond, tuple(relabel(s) for s in inner), ()))
                out.append(Assume(Label(f"%u{next(synth)}"), negate(st.cond)))
            elif isinstance(st, If):
                out.append(If(st.cond, expand(st.then_body), expand(st.else_body)))
            else:
                out.append(st)
        return tuple(out)

    if not has_loops(p):
        return p
    threads = tuple(Thread(t.name, expand(t.body)) for t in p.threads)
    return Program(p.shared, p.mutexes, threads, p.postcondition)


def has_loops(p: Program) -> bool:
    return any(isinstance(s, While)
               for t in p.threads for s in _walk_structured(t.body))


# --------------------------------------------------------------------------
# Control-flow graphs
# --------------------------------------------------------------------------

@dataclass
class Cfg:
    program: Program
    nodes: dict  # Label -> Simple
    preds: dict  # Label -> tuple[Label, ...]
    succs: dict  # Label -> tuple[Label, ...]
    thread_of: dict  # Label -> thread name
    entries: dict  # thread -> Label
    exits: dict  # thread -> Label
    rpo: dict  # thread -> tuple[Label, ...]
    accesses: dict  # Label -> Access, for the nodes that touch memory
    loop_headers: frozenset = frozenset()

    def reachable(self, a: Label) -> frozenset:
        """The labels reachable from a along CFG edges (strict)."""
        return self._reach_sets()[a]

    def _reach_sets(self) -> dict:
        if not hasattr(self, "_reach_cache"):
            # Union the successors' sets in reverse RPO.  Reverse RPO puts
            # the successors first on a loop-free CFG, so one pass settles
            # it; with loops, passes repeat until no set grows.
            order = [lbl for rpo in self.rpo.values() for lbl in reversed(rpo)]
            cache = dict.fromkeys(self.nodes, frozenset())
            grew = True
            while grew:
                grew = False
                for lbl in order:
                    reach = cache[lbl]
                    for s in self.succs[lbl]:
                        reach = reach.union(cache[s], (s,))
                    if len(reach) > len(cache[lbl]):
                        cache[lbl] = reach
                        grew = bool(self.loop_headers)
            self._reach_cache = cache
        return self._reach_cache


def build_cfg(p: Program) -> Cfg:
    nodes: dict = {}
    preds: dict = {lbl: [] for lbl in ()}
    succs: dict = {}
    thread_of: dict = {}
    entries: dict = {}
    exits: dict = {}
    rpo: dict = {}
    accesses: dict = {}
    loop_headers: set = set()
    synth = itertools.count(1)

    def add_node(label: Label, instr: Simple, tname: str):
        if label in nodes:
            raise SemanticError(f"duplicate label {label}")
        nodes[label] = instr
        access = _access(instr)
        if access is not None:
            accesses[label] = access
        preds.setdefault(label, [])
        succs.setdefault(label, [])
        thread_of[label] = tname

    def add_edge(a: Label, b: Label):
        succs[a].append(b)
        preds[b].append(a)

    for t in p.threads:
        entry = Label(f"{t.name}.entry")
        add_node(entry, Nop(entry), t.name)
        entries[t.name] = entry

        def lower(stmts, incoming, tname=t.name):
            for st in stmts:
                if isinstance(st, If):
                    k = next(synth)
                    then_l = Label(f"%if{k}.t")
                    else_l = Label(f"%if{k}.f")
                    join_l = Label(f"%if{k}.j")
                    add_node(then_l, Assume(then_l, st.cond), tname)
                    add_node(else_l, Assume(else_l, negate(st.cond)), tname)
                    add_node(join_l, Nop(join_l), tname)
                    for lbl in incoming:
                        add_edge(lbl, then_l)
                        add_edge(lbl, else_l)
                    t_out = lower(st.then_body, [then_l], tname)
                    e_out = lower(st.else_body, [else_l], tname)
                    for lbl in t_out + e_out:
                        add_edge(lbl, join_l)
                    incoming = [join_l]
                elif isinstance(st, While):
                    k = next(synth)
                    head_l = Label(f"%wh{k}.h")
                    body_l = Label(f"%wh{k}.b")
                    exit_l = Label(f"%wh{k}.x")
                    add_node(head_l, Nop(head_l), tname)
                    add_node(body_l, Assume(body_l, st.cond), tname)
                    add_node(exit_l, Assume(exit_l, negate(st.cond)), tname)
                    loop_headers.add(head_l)
                    for lbl in incoming:
                        add_edge(lbl, head_l)
                    add_edge(head_l, body_l)
                    add_edge(head_l, exit_l)
                    b_out = lower(st.body, [body_l], tname)
                    for lbl in b_out:
                        add_edge(lbl, head_l)  # back edge
                    incoming = [exit_l]
                else:
                    add_node(st.label, st, tname)
                    for lbl in incoming:
                        add_edge(lbl, st.label)
                    incoming = [st.label]
            return incoming

        tail = lower(t.body, [entry])
        # lower reaches itself through its closure cell; emptying the cell
        # breaks the cycle, so no CFG waits for the cyclic collector
        del lower
        exit_l = Label(f"{t.name}.exit")
        add_node(exit_l, Nop(exit_l), t.name)
        for lbl in tail:
            add_edge(lbl, exit_l)
        exits[t.name] = exit_l

    for t in p.threads:
        # Post-order depth-first search with an explicit stack, so that a
        # long thread does not exhaust the interpreter's recursion limit.
        order: list = []
        entry = entries[t.name]
        seen = {entry}
        stack = [(entry, iter(succs[entry]))]
        while stack:
            lbl, pending = stack[-1]
            for nxt in pending:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append((nxt, iter(succs[nxt])))
                    break
            else:
                stack.pop()
                order.append(lbl)
        rpo[t.name] = tuple(reversed(order))

    return Cfg(p, nodes,
               {k: tuple(v) for k, v in preds.items()},
               {k: tuple(v) for k, v in succs.items()},
               thread_of, entries, exits, rpo, accesses, frozenset(loop_headers))
