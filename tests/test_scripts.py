"""The scripts under scripts/ turn bad arguments into usage errors: exit 2
with a message on standard error, before any output, not a traceback.  The
digests cover the inputs they pin, and no others."""

import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"script_{name}", SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name, args", [
    ("fuzz_soundness", ["abc"]), ("fuzz_soundness", ["-1"]), ("fuzz_soundness", ["1.5"]),
    ("fuzz_soundness", ["3", "x"]), ("fuzz_soundness", ["3", "-2"]),
    ("state_digest", ["abc"]), ("state_digest", ["-1"]),
    ("exec_digest", ["abc"]), ("exec_digest", ["-1"]),
    ("scaling", ["--peterson", "1"]), ("scaling", ["--peterson", "3,0"]),
    ("scaling", ["--readers", "0"]), ("scaling", ["--peterson", "two"]),
])
def test_bad_arguments_are_usage_errors(name, args, capsys):
    main = _load(name).main
    with pytest.raises(SystemExit) as exc:
        main([f"{name}.py", *args])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("usage: ") and ": error: " in err


@pytest.mark.parametrize("name, line", [("state_digest", "22 files "),
                                        ("exec_digest", "1091 executions ")])
def test_a_count_of_zero_covers_the_corpus_alone(name, line, capsys):
    assert _load(name).main([f"{name}.py", "0"]) == 0
    assert capsys.readouterr().out.startswith(line)


def test_a_file_added_to_the_corpus_leaves_the_oracle_pin(tmp_path, capsys):
    """The oracle pin reads a fixed list of corpus files, so a new corpus
    file moves its line only when the enumerator changes."""
    module = _load("exec_digest")
    assert module.main(["exec_digest.py", "0"]) == 0
    line = capsys.readouterr().out
    for name in module.CORPUS_FILES:
        (tmp_path / name).write_text((module.CORPUS / name).read_text())
    (tmp_path / "zz_added.lit").write_text((module.CORPUS / "sb.lit").read_text())
    module.CORPUS = tmp_path
    assert module.main(["exec_digest.py", "0"]) == 0
    assert capsys.readouterr().out == line
