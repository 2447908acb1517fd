import json
import subprocess
import sys

import pytest

from ramosaic.cli import main, oracle_main
from ramosaic.litmus import MAX_NESTING, ParseError, parse

from conftest import BENCH_DIR, corpus_files


def run_cli(args, capsys):
    code = main([str(a) for a in args])
    out = capsys.readouterr()
    return code, out.out, out.err


def test_proved_file_exits_zero(capsys):
    code, out, _ = run_cli([BENCH_DIR / "mp.lit"], capsys)
    assert code == 0
    assert "Proved" in out


def test_violated_file_exits_one(capsys):
    code, out, _ = run_cli([BENCH_DIR / "dijkstra_unfenced.lit"], capsys)
    assert code == 1
    assert "PossiblyViolated" in out


def test_missing_file_exits_two(capsys):
    code, _, err = run_cli([BENCH_DIR / "missing.lit"], capsys)
    assert code == 2
    assert err.strip() == f"ramosaic: {BENCH_DIR / 'missing.lit'}: no such file or directory"


def test_oracle_on_a_missing_file_exits_two(capsys):
    path = BENCH_DIR / "missing.lit"
    assert oracle_main([str(path)]) == 2
    assert capsys.readouterr().err.strip() == f"ra-oracle: {path}: no such file or directory"


def test_parse_error_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.lit"
    bad.write_text("vars x = ;\n")
    code, _, err = run_cli([bad], capsys)
    assert code == 2


def _nth_offset(source: str, token: str, n: int) -> int:
    offset = -1
    for _ in range(n):
        offset = source.index(token, offset + 1)
    return offset


# shape -> (source of size n, the largest n that parses, (token, occurrence)
# of the level too many).  The thread's block is a level, and so is the
# postcondition's parenthesis.
DEEP = {
    "sum": (lambda n: "vars x = 0;\nthread t { a: r = " + "+".join(["1"] * n) + "; }\n",
            MAX_NESTING, ("+", MAX_NESTING)),
    "conjunction": (lambda n: "vars x = 0;\nthread t { a: r = 1; }\nassert("
                    + " && ".join(["r == 1"] * n) + ");\n",
                    MAX_NESTING - 1, ("&&", MAX_NESTING - 1)),
    "if": (lambda n: "vars x = 0;\nthread t {\n" + "if (true) {\n" * n + "a: r = 1;\n"
           + "}\n" * n + "}\n", MAX_NESTING - 1, ("(", MAX_NESTING)),
}


@pytest.mark.parametrize("shape, size", [("sum", 1000), ("conjunction", 1000), ("if", 500)])
@pytest.mark.parametrize("entry, prog", [(main, "ramosaic"), (oracle_main, "ra-oracle")])
def test_input_nested_too_deeply_is_a_parse_error(entry, prog, shape, size, tmp_path, capsys):
    """Nesting beyond MAX_NESTING is a parse error (exit 2) at the token
    that opens the level too many; these sizes once ran the parser or the
    analysis past Python's recursion limit (exit 3).  The largest size
    within the bound still parses, and so does the corpus."""
    build, largest, (token, occurrence) = DEEP[shape]
    path = tmp_path / "deep.lit"
    source = build(size)
    path.write_text(source)
    assert entry([str(path)]) == 2
    offset = _nth_offset(source, token, occurrence)
    line, col = source.count("\n", 0, offset) + 1, offset - source.rfind("\n", 0, offset)
    err = capsys.readouterr().err.strip()
    assert err == f"{prog}: {path}: {line}:{col}: nested more than {MAX_NESTING} levels deep"
    parse(build(largest))
    with pytest.raises(ParseError, match=f"{line}:{col}: nested"):
        parse(build(largest + 1))
    for f in corpus_files():
        parse(f.read_text())


@pytest.mark.parametrize("digit", ["\u00b2", "\u0663"])  # superscript two, Arabic-Indic three
@pytest.mark.parametrize("entry, prog", [(main, "ramosaic"), (oracle_main, "ra-oracle")])
def test_digit_of_another_script_is_a_parse_error(entry, prog, digit, tmp_path, capsys):
    """Only 0-9 make an integer literal: any other digit is an unexpected
    character, reported with its line and column."""
    path = tmp_path / "digit.lit"
    path.write_text(f"vars x = 0;\nthread t {{ a: store x {digit}; }}\n", encoding="utf-8")
    assert entry([str(path)]) == 2
    err = capsys.readouterr().err.strip()
    assert err == f"{prog}: {path}: 2:23: unexpected character {digit!r}"


NOT_UTF8 = b"vars x = 0;\nthread t { a: store x 1; }\n# \xff\xfe\n"


def test_file_that_is_not_utf8_exits_two(tmp_path, capsys):
    bad = tmp_path / "latin1.lit"
    bad.write_bytes(NOT_UTF8)
    code, _, err = run_cli([bad], capsys)
    assert code == 2
    assert err.strip() == f"ramosaic: {bad}: not UTF-8 text (invalid start byte at byte 41)"


@pytest.mark.parametrize("kind", ["not-utf8", "directory"])
def test_oracle_on_unreadable_input_exits_two(kind, tmp_path, capsys):
    path = tmp_path / "in.lit"
    if kind == "directory":
        path.mkdir()
    else:
        path.write_bytes(NOT_UTF8)
    assert oracle_main([str(path)]) == 2
    err = capsys.readouterr().err.strip()
    assert err.startswith(f"ra-oracle: {path}: ") and len(err.splitlines()) == 1
    assert ("not UTF-8 text" if kind == "not-utf8" else "Is a directory") in err


@pytest.mark.parametrize("source, message", [
    ("vars x = ;\n", "1:10: "),
    ("vars x = 0;\nthread t { a: store y 1; }\n", "a: undeclared variable 'y'"),
])
def test_oracle_names_the_file_on_an_input_error(source, message, tmp_path, capsys):
    path = tmp_path / "bad.lit"
    path.write_text(source)
    assert oracle_main([str(path)]) == 2
    err = capsys.readouterr().err.strip()
    assert err.startswith(f"ra-oracle: {path}: {message}") and len(err.splitlines()) == 1


def test_oracle_names_the_file_on_an_internal_error(capsys):
    """An error inside the oracle exits 3 with the file named first, as the
    analyzer reports it: Peterson-3 has more shared-memory events than the
    oracle's guard allows."""
    path = BENCH_DIR / "peterson3.lit"
    assert oracle_main([str(path)]) == 3
    err = capsys.readouterr().err.strip()
    assert err.startswith(f"ra-oracle: {path}: TooLarge: ") and len(err.splitlines()) == 1


UNHELD_UNLOCK = ("vars x = 0; locks m;\n"
                 "thread t1 { a: r = load x; if (r == 0) { b: lock m; } c: unlock m; "
                 "d: assert(r == 0); }\n"
                 "thread t2 { e: store x 1; }\n")


@pytest.mark.parametrize("source", [UNHELD_UNLOCK,
                                    "vars x = 0; locks m;\nthread t { q: unlock m; }\n"])
@pytest.mark.parametrize("entry", [main, oracle_main])
def test_unlock_not_held_on_every_path_exits_two(entry, source, tmp_path, capsys):
    path = tmp_path / "unheld.lit"
    path.write_text(source)
    assert entry([str(path)]) == 2
    err = capsys.readouterr().err.strip()
    assert "which some path to it does not hold" in err and str(path) in err


def test_one_unlock_after_two_branch_locks_passes_the_oracle_check(tmp_path, capsys):
    path = tmp_path / "branches.lit"
    path.write_text("vars x = 0; locks m;\n"
                    "thread t1 { a: r = load x; if (r == 0) { b: lock m; } "
                    "else { g: lock m; } c: unlock m; d: assert(r == 0); }\n"
                    "thread t2 { e: store x 1; }\n")
    code, out, err = run_cli([path, "--oracle-check"], capsys)
    assert (code, err) == (1, "")
    assert "d: PossiblyViolated" in out


def test_lock_after_a_release_on_either_branch_passes_the_oracle_check(tmp_path, capsys):
    """t2's lock i reads from t1's unlock g or e; the oracle violates k
    when i follows e."""
    path = tmp_path / "release_on_either_branch.lit"
    path.write_text("vars x = 0, y = 0, z = 0; locks m;\n"
                    "thread t1 { a: lock m; b: store x 1; c: r = load z; "
                    "if (r == 1) { f: store y 7; g: unlock m; } else { e: unlock m; } }\n"
                    "thread t2 { s: store z 1; h: r2 = load x; i: lock m; j: r3 = load y; "
                    "k: assert(r2 != 1 || r3 != 0); }\n")
    code, out, err = run_cli([path, "--oracle-check"], capsys)
    assert (code, err) == (1, "")
    assert "k: PossiblyViolated" in out


def test_rmw_that_read_a_forgotten_store_passes_the_oracle_check(tmp_path, capsys):
    """d reads c's -5 while a reads the initial 0, so b may read -5 with
    r0 = 0.  Forgetting c, sequenced before d, left d with no predecessor,
    which read as first in y's modification order, so the meet with t0's
    state after a, first as well, was refused and `final` was proved."""
    path = tmp_path / "forgotten_store.lit"
    path.write_text("vars x = 0, y = 0;\n"
                    "thread t0 { a: r0 = fadd y 1; b: r1 = load x; }\n"
                    "thread t1 { c: store y -5; d: r2 = fadd y 1; e: store x r2; }\n"
                    "assert (!(r0 == 0 && r1 == -5));\n")
    code, out, err = run_cli([path, "--oracle-check"], capsys)
    assert (code, err) == (1, "")
    assert "final: PossiblyViolated" in out


def test_rmw_whose_store_was_forgotten_later_passes_the_oracle_check(tmp_path, capsys):
    """u reads c's 5 and t1 syncs with it through z; forgetting c when t1
    stores h left u with no predecessor, first in y's order like a, which
    read the initial 0, so b never read i's 1 with r0 = 0."""
    path = tmp_path / "forgotten_later.lit"
    path.write_text("vars x = 0, y = 0, z = 0;\n"
                    "thread t0 { a: r0 = fadd y 1; b: r1 = load x; }\n"
                    "thread t1 { c: store y 5; g: r3 = load z; h: store y 7; i: store x r3; }\n"
                    "thread t2 { u: r2 = cas y 5 6; if (r2 == 5) { k: store z 1; } }\n"
                    "assert (!(r0 == 0 && r1 == 1));\n")
    code, out, err = run_cli([path, "--oracle-check"], capsys)
    assert (code, err) == (1, "")
    assert "final: PossiblyViolated" in out


def test_bench_reports_a_file_that_is_not_utf8(tmp_path, capsys):
    (tmp_path / "latin1.lit").write_bytes(NOT_UTF8)
    code, out, _ = run_cli([tmp_path], capsys)
    assert code == 1
    assert "error: not UTF-8 text" in out and "FAIL" in out


def test_bench_on_corpus(capsys):
    code, out, _ = run_cli([BENCH_DIR], capsys)
    assert code == 0
    assert "MISMATCH" not in out
    for f in BENCH_DIR.glob("*.lit"):
        assert f.name in out


def test_bench_detects_expectation_mismatch(tmp_path, capsys):
    wrong = tmp_path / "wrong.lit"
    wrong.write_text("# expect: violated\n"
                     "vars x = 0;\nthread t { a: store x 1; }\nassert (true);\n")
    code, out, _ = run_cli([tmp_path], capsys)
    assert code == 1
    assert "MISMATCH" in out


def test_bench_empty_directory(tmp_path, capsys):
    code, out, _ = run_cli([tmp_path], capsys)
    assert code == 0


def test_json_report_stable(capsys):
    code1, out1, _ = run_cli([BENCH_DIR / "mp.lit", "--json"], capsys)
    code2, out2, _ = run_cli([BENCH_DIR / "mp.lit", "--json"], capsys)
    d1, d2 = json.loads(out1), json.loads(out2)
    d1.pop("elapsed_s"), d2.pop("elapsed_s")
    assert d1 == d2
    assert d1["overall"] == "Proved"
    assert d1["iterations_effective"] == 2
    assert sorted(d1["config"]) == ["abstract_mo", "max_iterations", "rmw_critical",
                                    "unroll", "widen_after"]


def test_rmw_critical_flag_flips_fenced(capsys):
    code_on, _, _ = run_cli([BENCH_DIR / "dijkstra_fen.lit"], capsys)
    code_off, _, _ = run_cli([BENCH_DIR / "dijkstra_fen.lit", "--no-rmw-critical"], capsys)
    assert code_on == 0 and code_off == 1


def test_dump_states(capsys):
    """c, before t2's boundary d, holds full states, and d and t2's exit
    print the dropped posets and memory slots as `_`.  t1 has no boundary:
    its exit passes on the states of its store b, which t2 reads."""
    code, out, _ = run_cli([BENCH_DIR / "mp.lit", "--dump-states"], capsys)
    assert code == 0
    assert "c | x:{a.1} y:{b.1} | t2.r1:[1,1] t2.r2:[0,0] x:[1,1] y:[1,1]" in out
    assert "d | x:_ y:_ | t2.r1:[1,1] t2.r2:[1,1] x:_ y:_" in out
    assert "t2.exit | x:_ y:_ | t2.r1:[1,1] t2.r2:[1,1] x:_ y:_" in out
    assert "t1.exit | x:{a.1} y:{b.1} | x:[1,1] y:[1,1]" in out


def test_json_dump_states_is_one_document(capsys):
    """With --json, the dump lines go into the report under `states`, so
    stdout is one JSON document; the other keys are those of --json alone."""
    path = BENCH_DIR / "mp.lit"
    code, out, _ = run_cli([path, "--json", "--dump-states"], capsys)
    assert code == 0
    report = json.loads(out)
    _, text, _ = run_cli([path, "--dump-states"], capsys)
    lines = text.splitlines()
    overall = next(i for i, line in enumerate(lines) if line.startswith("overall: "))
    assert "d | x:_ y:_ | t2.r1:[1,1] t2.r2:[1,1] x:_ y:_" in text
    assert report.pop("states") == lines[overall + 1:]
    _, plain, _ = run_cli([path, "--json"], capsys)
    plain = json.loads(plain)
    report.pop("elapsed_s"), plain.pop("elapsed_s")
    assert report == plain


def test_oracle_check_flag(capsys):
    code, _, _ = run_cli([BENCH_DIR / "mp.lit", "--oracle-check"], capsys)
    assert code == 0


def test_oracle_check_beyond_guard_is_internal_error(capsys):
    code, _, err = run_cli([BENCH_DIR / "peterson3.lit", "--oracle-check"], capsys)
    assert code == 3
    assert "TooLarge" in err


def test_oracle_main_outcomes(capsys):
    code = oracle_main([str(BENCH_DIR / "mp.lit"), "--outcomes"])
    out = capsys.readouterr().out
    assert "executions: 3" in out
    assert code == 0
    code = oracle_main([str(BENCH_DIR / "sb.lit")])
    out = capsys.readouterr().out
    assert "violated: final" in out
    assert code == 1


@pytest.mark.parametrize("entry, flag, value", [
    (main, "--unroll", "0"),
    (main, "--unroll", "-1"),
    (main, "--widen-after", "0"),
    (main, "--max-iterations", "0"),
    (oracle_main, "--unroll", "0"),
    (oracle_main, "--guard", "0"),
    (oracle_main, "--guard", "-3"),
])
def test_flag_below_one_exits_two(entry, flag, value, capsys):
    """An out-of-range flag value is an input error, rejected before any
    analysis."""
    with pytest.raises(SystemExit) as exc:
        entry([str(BENCH_DIR / "mp.lit"), flag, value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}: must be at least 1, got {value}" in err


def test_console_scripts_installed():
    result = subprocess.run([sys.executable, "-m", "ramosaic.cli",
                             str(BENCH_DIR / "mp.lit")],
                            capture_output=True, text=True)
    assert result.returncode == 0


def test_import_leaves_the_oracle_unloaded():
    """`ramosaic file.lit` never runs the oracle, so importing the CLI does
    not load it; `--oracle-check` and `ra-oracle` import it when they run."""
    result = subprocess.run([sys.executable, "-c",
                             "import sys, ramosaic.cli; print('ramosaic.oracle' in sys.modules)"],
                            capture_output=True, text=True)
    assert result.returncode == 0 and result.stdout.strip() == "False"


def test_unexpected_exception_is_internal_error(monkeypatch, capsys):
    from ramosaic import engine

    def boom(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(engine, "tmai", boom)
    code, _, err = run_cli([BENCH_DIR / "mp.lit"], capsys)
    assert code == 3
    assert "RuntimeError: boom" in err
    assert len(err.strip().splitlines()) == 1


def test_running_out_of_rounds_exits_three_as_the_help_says(capsys):
    with pytest.raises(SystemExit):
        main(["--help"])
    help_text = " ".join(capsys.readouterr().out.split())
    assert ("--max-iterations N give up after N rounds of the fixpoint (default 1000), "
            "the last pass over the labels that no other thread reads counting as one: "
            "exit 3 with Divergence") in help_text
    code, _, err = run_cli([BENCH_DIR / "mp.lit", "--max-iterations", "1"], capsys)
    assert code == 3
    assert err.strip() == f"ramosaic: {BENCH_DIR / 'mp.lit'}: Divergence: no fixpoint after 1 rounds"
