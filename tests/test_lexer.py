"""The one-regex lexer against the character-by-character reference in
lexer_reference.py, the parse errors around the parser's backtrack, and the
round trip of the printer through the parser."""

import gc

import pytest
from hypothesis import given, settings, strategies as st

from ramosaic.litmus import ParseError, _lex, _line_col, _token_offsets, parse, to_source
from ramosaic.randprog import random_program

from conftest import corpus_files
from lexer_reference import lex as reference_lex

# Letters, ASCII and not; ASCII digits, a digit that `str.isdigit` takes
# and one that `str.isdecimal` takes; the whitespace the lexer skips and
# two characters it does not; the comment start, the characters of every
# symbol, and a character that starts no token.
ALPHABET = "ax_K\u00e9" + "09\u00b2\u0663" + " \t\r\n" + "\f\u00a0" + "#" + "=!<>&|{}()-;:,+*" + "$"


def _new(source: str) -> tuple:
    try:
        toks = _lex(source)
    except ParseError as e:
        return ("error", e.line, e.col, e.message)
    offsets = _token_offsets(source)
    return ("tokens", [(t, *_line_col(source, i)) for t, i in zip(toks, offsets, strict=True)])


def _reference(source: str) -> tuple:
    try:
        toks = reference_lex(source)
    except ParseError as e:
        return ("error", e.line, e.col, e.message)
    return ("tokens", [(t.text, t.line, t.col) for t in toks])


@settings(max_examples=500, deadline=None)
@given(st.text(alphabet=ALPHABET, max_size=40))
def test_lexer_matches_the_reference(source):
    """Equal tokens at equal lines and columns, or the same error."""
    assert _new(source) == _reference(source)


@pytest.mark.parametrize("source, expected", [
    # a digit of another script starts no token, alone or after an integer
    ("²", ("error", 1, 1, "unexpected character '²'")),
    ("٣", ("error", 1, 1, "unexpected character '٣'")),
    ("1²", ("error", 1, 2, "unexpected character '²'")),
    ("x = ٣x", ("error", 1, 5, "unexpected character '٣'")),
    # but continues an identifier, as str.isalnum() does
    ("x²", ("tokens", [("x²", 1, 1), ("", 1, 3)])),
    ("x٣ 12", ("tokens", [("x٣", 1, 1), ("12", 1, 4), ("", 1, 6)])),
    # an identifier may start with a letter of any script
    ("é", ("tokens", [("é", 1, 1), ("", 1, 2)])),
    ("_é1", ("tokens", [("_é1", 1, 1), ("", 1, 4)])),
    # CR counts as a column, tabs as one column each
    ("a\r\n\tb", ("tokens", [("a", 1, 1), ("b", 2, 2), ("", 2, 3)])),
    # the end of input sits where a last comment with no newline starts
    ("a  # end", ("tokens", [("a", 1, 1), ("", 1, 4)])),
    ("a\n# end\n  ", ("tokens", [("a", 1, 1), ("", 3, 3)])),
    ("", ("tokens", [("", 1, 1)])),
    # form feed and no-break space are not whitespace here
    ("a\fb", ("error", 1, 2, "unexpected character '\\x0c'")),
    ("a\u00a0b", ("error", 1, 2, "unexpected character '\\xa0'")),
    ("a # $\n$", ("error", 2, 1, "unexpected character '$'")),
])
def test_lexer_edge_cases(source, expected):
    assert _new(source) == expected
    assert _reference(source) == expected


BACKTRACK = "vars x = 0;\nthread t { a: r = load x; b: assume ("


@pytest.mark.parametrize("source, line, col, message", [
    # the comparison reading fails inside the parentheses, the bexpr
    # reading is tried and fails in turn: its error is the one reported
    (BACKTRACK + "(r + 1) < ); }", 2, 39, "expected '(', found 'r'"),
    (BACKTRACK + "(r == 1) && r); }", 2, 50, "expected '(', found 'r'"),
    (BACKTRACK + "(r + 1) == 2 ||); }", 2, 53, "expected '(', found ')'"),
    ("vars x = 0;\nthread t { a: r = load x; }\nassert ((r == 1) r);",
     3, 18, "expected ')', found 'r'"),
    ("vars x = 0;\r\nthread t {\r\n\ta: store x 1 }\r\n", 3, 15, "expected ';', found '}'"),
    ("vars x = 0;\nthread t { a: store x 1; } assert", 2, 34, "expected '(', found ''"),
    ("vars x = 0; # no thread", 1, 13, "program needs at least one thread"),
    ("vars x = 0;\nthread if { }", 2, 8, "keyword 'if' cannot be used as a name"),
    ("vars x = -;", 1, 11, "expected integer literal"),
])
def test_parse_errors_keep_line_col_and_message(source, line, col, message):
    with pytest.raises(ParseError) as info:
        parse(source)
    assert (info.value.line, info.value.col, info.value.message) == (line, col, message)
    assert str(info.value) == f"{line}:{col}: {message}"


@pytest.mark.parametrize("path", corpus_files(), ids=lambda p: p.name)
def test_corpus_round_trips(path):
    program = parse(path.read_text())
    assert parse(to_source(program)) == program


def test_random_programs_round_trip():
    for seed in range(200):
        program = random_program(seed)
        assert parse(to_source(program)) == program, seed


def test_parsing_leaves_no_cyclic_garbage():
    """Backtracks in the parser, and a parse error, are freed by reference
    counting alone: with the cyclic collector off, they leave it nothing."""
    sources = [to_source(random_program(seed)) for seed in range(20)]
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for source in sources:
            parse(source)
        with pytest.raises(ParseError):
            parse(BACKTRACK + "(r + 1) < ); }")
        found = gc.collect()
    finally:
        if enabled:
            gc.enable()
    assert found == 0
