from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "benchmarks"

# Hypothesis's report of a failing example imports libcst when it is
# installed, and that import warns that mypy_extensions.TypedDict is
# deprecated.  Under `-W error`, as CI runs the suite, the warning is raised
# while pytest builds the report, and the run ends in INTERNALERROR without
# naming the test.  A filterwarnings mark outranks `-W`, which outranks the
# ini settings, so every test carries a mark that ignores this one warning
# from this one module.
_LIBCST_TYPEDDICT = ("ignore:mypy_extensions\\.TypedDict is deprecated:DeprecationWarning:"
                     "libcst\\.metadata\\.type_inference_provider")


def pytest_collection_modifyitems(items):
    for item in items:
        item.add_marker(pytest.mark.filterwarnings(_LIBCST_TYPEDDICT))


def full_tails(program, **kwargs):
    """`engine.tmai` with the default flags but projection off, so every
    label, past each thread's boundary too, holds full states: posets and
    every register."""
    from ramosaic.engine import tmai
    from ramosaic.transfer import TransferConfig

    return tmai(program, TransferConfig(project_tails=False), **kwargs)


MP_SRC = """
vars x = 0, y = 0;
thread t1 { a: store x 1; b: store y 1; }
thread t2 { c: r1 = load y; d: r2 = load x; }
assert (r1 != 1 || r2 == 1);
"""

SB_SRC = """
vars x = 0, y = 0;
thread t1 { a: store x 1; c: r1 = load y; }
thread t2 { b: store y 1; d: r2 = load x; }
assert (r1 == 1 || r2 == 1);
"""

WHY_IC_SRC = """
vars x = 0;
thread t1 { a: store x 1; b: store x 2; }
thread t2 { c: r1 = load x; d: r2 = load x; }
assert (r1 != 2 || r2 != 1);
"""


# t2's load of x from s1 leaves its mutex order ending in t1's lock l1, so
# the lock l2 finds the mutex free only by reading from t1's unlock u1.
# t3's cas succeeds on w1's y = 1 and fails on the initial y = 0.
READS_SRC = """
vars x = 0, y = 0;
locks m;
thread t1 { l1: lock m; s1: store x 1; u1: unlock m; w1: store y 1; }
thread t2 { a: r = load x; l2: lock m; s2: store x 2; u2: unlock m; }
thread t3 { c: q = cas y 1 2; }
"""


def perfbench_families():
    """`perfbench/families.py`, loaded by file path as `scripts/scaling.py`
    loads it, so that no later import finds perfbench's modules."""
    import importlib.util
    import sys

    spec = importlib.util.spec_from_file_location("perfbench_families",
                                                  ROOT / "perfbench" / "families.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_with_context(driver, program, *args, **kwargs):
    """(result, context) of one run of `driver`: the `AnalysisContext` that
    the run built, whose poset table holds the ids of the result's states."""
    from ramosaic.transfer import AnalysisContext

    contexts = []
    init = AnalysisContext.__init__

    def recording_init(self, *a, **kw):
        init(self, *a, **kw)
        contexts.append(self)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(AnalysisContext, "__init__", recording_init)
        result = driver(program, *args, **kwargs)
    (ctx,) = contexts
    return result, ctx


@pytest.fixture
def mp_program():
    from ramosaic.litmus import parse

    return parse(MP_SRC)


def peterson(n: int) -> str:
    """The unfenced N-thread filter lock, as benchmarks/peterson3.lit."""
    decls = ", ".join([f"q{i} = 0" for i in range(1, n + 1)] + ["v = 0", "cs = 0"])
    threads = []
    for i in range(1, n + 1):
        others = [j for j in range(1, n + 1) if j != i]
        clear = " && ".join(f"rA{i}_{j} == 0" for j in others)
        body = [f"a{i}: store q{i} 1;", f"b{i}: store v {i};"]
        body += [f"c{i}_{j}: rA{i}_{j} = load q{j};" for j in others]
        body += [f"e{i}: rV{i} = load v;", f"f{i}: assume(({clear}) || rV{i} != {i});",
                 f"g{i}: store cs {i};", f"x{i}: rZ{i} = load cs;",
                 f"h{i}: assert(rZ{i} == {i});"]
        threads.append(f"thread t{i} {{ {' '.join(body)} }}")
    return f"vars {decls};\n" + "\n".join(threads) + "\n"


def corpus_files():
    return sorted(BENCH_DIR.glob("*.lit"))


# The looped programs that the tests analyze, gathered for checks that run
# over all of them.
LOOPED_SOURCES = (
    """
vars x = 0;
thread t {
  while (r < 2) { a: store x 1; f: r = r + 1; }
  if (r == 0) { b: store x 2; } else { c: store x 3; }
  d: store x 4;
}
thread u { e: store x 5; }
""",
    """
vars x = 0;
thread t {
  i0: r = 0;
  while (r >= 0) {
    s: store x r;
    i1: r = r + 1;
  }
  f: store x -1;
}
thread u { c: q = load x; }
""",
    """
vars x = 0;
thread t {
  i0: r = 0;
  while (r < 50) { s: store x r; i1: r = r + 1; }
  f: store x 99;
}
""",
    """
vars y = 0, d = 0;
thread w { a: store d 7; b: store y 1; }
thread t {
  l0: r = load y;
  while (r != 1) { l1: r = load y; }
  g: q = load d;
  z: assert(q == 7);
}
""",
    """
vars x = 0;
thread t {
  while (r < 3) {
    while (q < 2) { a: q = load x; if (q == 0) { b: store x 2; } }
    c: r = r + 1;
  }
  d: store x 1;
}
thread u { e: store x 5; }
""",
    "vars x = 0;\nthread t { i: r = 0; while (r < 1) { s: store x 1; } }",
)
