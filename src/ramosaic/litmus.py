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
import re
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Dict, List, NamedTuple, Optional, Union


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
    names = set()
    stack = [e]
    while stack:
        e = stack.pop()
        if isinstance(e, Name):
            names.add(e.ident)
        elif isinstance(e, (BinOp, Cmp, And, Or)):
            stack += (e.left, e.right)
    return names


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


# The kind of access of each memory-touching instruction class, and the
# field that names the variable or mutex it touches.
_ACCESS_OF = {Store: ("store", "var"), Cas: ("rmw", "var"), Fadd: ("rmw", "var"),
              LoadInst: ("load", "var"), LockInst: ("lock", "mutex"),
              UnlockInst: ("unlock", "mutex")}


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

    # One walk of each thread, and the registers it writes and the threads
    # that write each register, once per program; cached_property keeps them
    # in the instance's __dict__, outside the fields, so == and hash ignore them.

    @cached_property
    def _walked(self) -> tuple:
        """Per thread, in order: its simple instructions and its branches and
        loops, each in program order."""
        out = []
        for t in self.threads:
            instrs: list = []
            structured: list = []
            _flatten(t.body, instrs, structured)
            out.append((instrs, structured))
        return tuple(out)

    @cached_property
    def _registers_of(self) -> Dict[str, tuple]:
        return {t.name: tuple(sorted(_registers(instrs)))
                for t, (instrs, _) in zip(self.threads, self._walked)}

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


def walk_simple(stmts) -> List[Simple]:
    instrs: list = []
    _flatten(stmts, instrs, [])
    return instrs


_WRITES_REGISTER = (LoadInst, Cas, Fadd, Assign)


def _registers(instrs) -> set:
    """The registers that the given instructions write."""
    return {i.reg for i in instrs if isinstance(i, _WRITES_REGISTER)}


# --------------------------------------------------------------------------
# Lexer / parser
# --------------------------------------------------------------------------

_KEYWORDS = {"vars", "locks", "thread", "if", "else", "while", "store", "load",
             "cas", "fadd", "lock", "unlock", "assume", "assert", "true", "false"}

# One match per token with the whitespace before it; `findall` gives the
# tokens.  An identifier is a letter (`str.isalpha()`) or "_", then letters,
# digits or "_": `\w` is exactly `str.isalnum()` or "_", and `[^\W\d]` is
# `\w` without the decimal digits, which still leaves digits such as `²`,
# so `_lex` rejects an identifier that starts with one.  An integer is a run
# of ASCII digits: `٣` starts no token.
_TOKEN = re.compile(r"[ \t\r\n]*([-{}();:,+*]|[^\W\d]\w*|[0-9]+|[=!<>]=?|&&|\|\|)")
_COMMENT = re.compile(r"#[^\n]*")
_WHITESPACE = dict.fromkeys(map(ord, " \t\r\n"))


def _blank_comments(source: str) -> str:
    """source with each comment replaced by as many spaces: the offsets of
    its tokens stay."""
    return _COMMENT.sub(lambda m: " " * len(m.group()), source)


def _lex(source: str) -> list:
    """The tokens of source as strings, then "" for the end of input.
    ParseError at the first character that starts no token."""
    text = _blank_comments(source)
    toks = _TOKEN.findall(text)
    # findall passes over a character that starts no token, so every
    # character was consumed exactly when the tokens hold all that is left
    # once the whitespace is gone
    if (len("".join(toks)) != len(text.translate(_WHITESPACE))
            or not text.isascii() and not all(map(_starts_token, toks))):
        _token_offsets(source)  # raises the ParseError
    toks.append("")
    return toks


def _starts_token(tok: str) -> bool:
    c = tok[0]
    return c.isascii() or c.isalpha()


def _token_offsets(source: str) -> list:
    """Where each token of `_lex(source)` starts; the end of input sits at
    the end, or where the last line's comment starts if it has one.
    ParseError at the first character that starts no token."""
    text = _blank_comments(source)
    offsets, end = [], 0
    for m in _TOKEN.finditer(text):
        if m.start() != end or not _starts_token(m.group(1)):
            break
        offsets.append(m.start(1))
        end = m.end()
    rest = text[end:].lstrip(" \t\r\n")
    if rest:
        pos = len(text) - len(rest)
        raise ParseError(*_line_col(source, pos), f"unexpected character {source[pos]!r}")
    comment = source.find("#", source.rfind("\n") + 1)
    return offsets + [len(source) if comment < 0 else comment]


def _line_col(source: str, offset: int) -> tuple:
    return source.count("\n", 0, offset) + 1, offset - source.rfind("\n", 0, offset)


def _is_int(tok: str) -> bool:
    return "0" <= tok[:1] <= "9"


# The first characters of the tokens that are not names: digits start the
# integers, the end of input is "", and every symbol starts with one of the
# rest; a name starts with any other character.
_NOT_NAME_START = frozenset(["", *"0123456789-{}();:,+*=!<>&|"])


class _Stuck(Exception):
    """(token index, message template, its arguments): `parse` makes a
    ParseError of it, and `parse_bfactor` backtracks on it unformatted."""


class _Parser:
    def __init__(self, source: str):
        self.toks = _lex(source)
        self.pos = 0
        self.tok = self.toks[0]

    def next(self) -> str:
        tok = self.tok
        self.pos += 1
        self.tok = self.toks[self.pos]
        return tok

    def error(self, message: str, *args):
        """Stop at the current token; the message is formatted with args and
        with the token as `found` only if the error reaches `parse`."""
        raise _Stuck(self.pos, message, args)

    def expect_sym(self, sym: str) -> str:
        if self.tok != sym:
            self.error("expected {!r}, found {found!r}", sym)
        return self.next()

    def expect_ident(self) -> str:
        tok = self.tok
        if tok[:1] in _NOT_NAME_START:
            self.error("expected identifier, found {found!r}")
        if tok in _KEYWORDS:
            self.error("keyword {found!r} cannot be used as a name")
        return self.next()

    # -- expressions -------------------------------------------------------

    def parse_int(self) -> int:
        sign = 1
        if self.tok == "-":
            self.next()
            sign = -1
        if not _is_int(self.tok):
            self.error("expected integer literal")
        return sign * int(self.next())

    def parse_iexpr(self) -> IntExpr:
        e = self.parse_term()
        while self.tok == "+" or self.tok == "-":
            op = self.next()
            e = BinOp(op, e, self.parse_term())
        return e

    def parse_term(self) -> IntExpr:
        e = self.parse_factor()
        while self.tok == "*":
            self.next()
            e = BinOp("*", e, self.parse_factor())
        return e

    def parse_factor(self) -> IntExpr:
        tok = self.tok
        if tok == "-":
            self.next()
            inner = self.parse_factor()
            if isinstance(inner, Lit):
                return Lit(-inner.value)
            return BinOp("-", Lit(0), inner)
        if tok == "(":
            self.next()
            e = self.parse_iexpr()
            self.expect_sym(")")
            return e
        if _is_int(tok):
            return Lit(int(self.next()))
        if tok[:1] not in _NOT_NAME_START and tok not in _KEYWORDS:
            return Name(self.next())
        self.error("expected integer expression")

    def parse_bexpr(self) -> BoolExpr:
        e = self.parse_bterm()
        while self.tok == "||":
            self.next()
            e = Or(e, self.parse_bterm())
        return e

    def parse_bterm(self) -> BoolExpr:
        e = self.parse_bfactor()
        while self.tok == "&&":
            self.next()
            e = And(e, self.parse_bfactor())
        return e

    def parse_bfactor(self) -> BoolExpr:
        tok = self.tok
        if tok == "!":
            self.next()
            return negate(self.parse_bfactor())
        if tok == "true" or tok == "false":
            self.next()
            return BoolLit(tok == "true")
        # A '(' may open either a nested bexpr or a parenthesized iexpr;
        # try the comparison reading first and backtrack.
        save = self.pos
        try:
            left = self.parse_iexpr()
            if self.tok in ("==", "!=", "<", "<=", ">", ">="):
                op = self.next()
                return Cmp(op, left, self.parse_iexpr())
        except _Stuck:
            pass
        self.pos = save
        self.tok = self.toks[save]
        return self.parse_cond()

    # -- statements --------------------------------------------------------

    def parse_cond(self) -> BoolExpr:
        """A parenthesized condition."""
        self.expect_sym("(")
        cond = self.parse_bexpr()
        self.expect_sym(")")
        return cond

    def parse_block(self) -> tuple:
        self.expect_sym("{")
        out = []
        while self.tok != "}":
            out.append(self.parse_stmt())
        self.next()
        return tuple(out)

    def parse_stmt(self) -> Stmt:
        if self.tok == "if":
            self.next()
            cond = self.parse_cond()
            then_body = self.parse_block()
            else_body: tuple = ()
            if self.tok == "else":
                self.next()
                else_body = self.parse_block()
            return If(cond, then_body, else_body)
        if self.tok == "while":
            self.next()
            cond = self.parse_cond()
            return While(cond, self.parse_block())
        label = Label(self.expect_ident())
        self.expect_sym(":")
        op = self.parse_op(label)
        self.expect_sym(";")
        return op

    def parse_op(self, label: Label) -> Simple:
        kw = self.tok
        if kw == "store":
            self.next()
            var = self.expect_ident()
            return Store(label, var, self.parse_iexpr())
        if kw == "lock" or kw == "unlock":
            self.next()
            return (LockInst if kw == "lock" else UnlockInst)(label, self.expect_ident())
        if kw == "assume" or kw == "assert":
            self.next()
            return (Assume if kw == "assume" else AssertInst)(label, self.parse_cond())
        reg = self.expect_ident()
        self.expect_sym("=")
        kw = self.tok
        if kw == "load":
            self.next()
            return LoadInst(label, reg, self.expect_ident())
        if kw == "cas":
            self.next()
            var = self.expect_ident()
            expected = self.parse_factor()
            new = self.parse_factor()
            return Cas(label, reg, var, expected, new)
        if kw == "fadd":
            self.next()
            var = self.expect_ident()
            return Fadd(label, reg, var, self.parse_factor())
        return Assign(label, reg, self.parse_iexpr())

    def parse_program(self) -> Program:
        if self.tok != "vars":
            self.error("expected 'vars'")
        self.next()
        shared = []
        while True:
            name = self.expect_ident()
            self.expect_sym("=")
            if not _is_int(self.tok) and self.tok != "-":
                self.error("shared variables need an integer initializer")
            shared.append((name, self.parse_int()))
            if self.tok != ",":
                break
            self.next()
        self.expect_sym(";")
        mutexes: list = []
        if self.tok == "locks":
            self.next()
            mutexes.append(self.expect_ident())
            while self.tok == ",":
                self.next()
                mutexes.append(self.expect_ident())
            self.expect_sym(";")
        threads = []
        while self.tok == "thread":
            self.next()
            tname = self.expect_ident()
            threads.append(Thread(tname, self.parse_block()))
        post = None
        if self.tok == "assert":
            self.next()
            post = self.parse_cond()
            self.expect_sym(";")
        if self.tok:
            self.error("trailing input after program")
        if not threads:
            self.error("program needs at least one thread")
        return Program(tuple(shared), tuple(mutexes), tuple(threads), post)


def parse(source: str) -> Program:
    parser = _Parser(source)
    try:
        program = parser.parse_program()
    except _Stuck as stuck:
        pos, message, args = stuck.args
        raise ParseError(*_line_col(source, _token_offsets(source)[pos]),
                         message.format(*args, found=parser.toks[pos])) from None
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
    for t, (instrs, structured) in zip(p.threads, p._walked):
        if t.name in tnames:
            raise SemanticError(f"duplicate thread {t.name!r}")
        tnames.add(t.name)
        regs = _registers(instrs)
        clash = regs & (shared | mutexes)
        if clash:
            raise SemanticError(f"register {sorted(clash)[0]!r} in thread "
                                f"{t.name!r} shadows a shared name")
        for instr in instrs:
            if instr.label in labels:
                raise SemanticError(f"duplicate label {instr.label}")
            labels.add(instr.label)
            if isinstance(instr, (Store, LoadInst, Cas, Fadd)) and instr.var not in shared:
                raise SemanticError(f"{instr.label}: undeclared variable {instr.var!r}")
            if isinstance(instr, (LockInst, UnlockInst)) and instr.mutex not in mutexes:
                raise SemanticError(f"{instr.label}: undeclared mutex {instr.mutex!r}")
            for field in _EXPR_FIELDS.get(instr.__class__, ()):
                bad = expr_names(getattr(instr, field)) - regs
                if bad:
                    raise SemanticError(f"{instr.label}: expression references "
                                        f"{sorted(bad)[0]!r}, which is not a register "
                                        f"of thread {t.name!r}")
        for st in structured:
            bad = expr_names(st.cond) - regs
            if bad:
                raise SemanticError(f"branch condition references {sorted(bad)[0]!r}, "
                                    f"which is not a register of thread {t.name!r}")
        if any(isinstance(i, UnlockInst) for i in instrs):
            _must_hold(t.body, frozenset())
    if p.postcondition is not None:
        for ident in sorted(expr_names(p.postcondition)):
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


# The fields of each instruction class that hold expressions.
_EXPR_FIELDS = {Store: ("value",), Cas: ("expected", "new"), Fadd: ("addend",),
                Assign: ("value",), Assume: ("cond",), AssertInst: ("cond",)}


def _flatten(stmts, instrs: list, structured: list):
    """Append the simple instructions of `stmts` to instrs and its branches
    and loops to structured, each in program order."""
    for st in stmts:
        if isinstance(st, If):
            structured.append(st)
            _flatten(st.then_body, instrs, structured)
            _flatten(st.else_body, instrs, structured)
        elif isinstance(st, While):
            structured.append(st)
            _flatten(st.body, instrs, structured)
        else:
            instrs.append(st)


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
    return any(isinstance(st, While) for _, structured in p._walked for st in structured)


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
    preds: dict = {}
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
        access = _ACCESS_OF.get(instr.__class__)
        if access is not None:
            accesses[label] = Access(access[0], getattr(instr, access[1]))
        preds[label] = []
        succs[label] = []
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
