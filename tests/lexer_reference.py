"""The litmus lexer as it stood before the one-regex rewrite, kept verbatim
as the reference that `litmus._lex` must match token for token, with equal
line and column, and error for error (see test_lexer.py).

It walks the source one character at a time and records each token's line
and column as it goes.  It is slow and obviously faithful to the lexical
rules of the README; do not optimize it.
"""

from __future__ import annotations

from dataclasses import dataclass

from ramosaic.litmus import ParseError

_SYMBOLS = ["==", "!=", "<=", ">=", "&&", "||",
            "{", "}", "(", ")", "=", ";", ":", ",", "<", ">", "+", "-", "*", "!"]


@dataclass
class Tok:
    kind: str  # ident | int | sym | eof
    text: str
    line: int
    col: int


def lex(source: str) -> list:
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
            toks.append(Tok("ident", source[i:j], line, col))
            col += j - i
            i = j
            continue
        if "0" <= c <= "9":  # str.isdigit() takes other scripts' digits too
            j = i
            while j < n and "0" <= source[j] <= "9":
                j += 1
            toks.append(Tok("int", source[i:j], line, col))
            col += j - i
            i = j
            continue
        for sym in _SYMBOLS:
            if source.startswith(sym, i):
                toks.append(Tok("sym", sym, line, col))
                i += len(sym)
                col += len(sym)
                break
        else:
            raise ParseError(line, col, f"unexpected character {c!r}")
    toks.append(Tok("eof", "", line, col))
    return toks
