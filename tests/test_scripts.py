"""The scripts under scripts/ turn bad arguments into usage errors: exit 2
with a message on standard error, before any output, not a traceback."""

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
