import gc

import pytest

from ramosaic.engine import tmai
from ramosaic.litmus import (Assume, Cas, If, Label, LoadInst, ParseError,
                             SemanticError, Store, While,
                             build_cfg, has_loops, parse, to_source, unroll)

from ramosaic.oracle import check_soundness, enumerate_executions, validate_execution
from ramosaic.randprog import random_program

from conftest import LOOPED_SOURCES, corpus_files, one_iteration_reach, peterson


def test_parse_mp(mp_program):
    p = mp_program
    assert [t.name for t in p.threads] == ["t1", "t2"]
    instrs = [i for walked, _ in p._walked for i in walked]
    assert len(instrs) == 4
    assert p.postcondition is not None
    assert p.shared == (("x", 0), ("y", 0))


def test_parse_empty_thread():
    p = parse("vars x = 0;\nthread t { }\n")
    assert p.threads[0].body == ()


def test_duplicate_label_rejected():
    with pytest.raises(SemanticError):
        parse("vars x = 0;\nthread t { a: store x 1; a: store x 2; }")
    with pytest.raises(SemanticError):
        parse("vars x = 0;\nthread t { a: store x 1; }\nthread u { a: store x 2; }")


def test_undeclared_names_rejected():
    with pytest.raises(SemanticError):
        parse("vars x = 0;\nthread t { a: store y 1; }")
    with pytest.raises(SemanticError):
        parse("vars x = 0;\nthread t { a: lock m; }")
    with pytest.raises(SemanticError):
        # store values may only mention the thread's own registers
        parse("vars x = 0;\nthread t { a: store x q; }")


@pytest.mark.parametrize("body", [
    "q: unlock m;",
    "a: r = load x; if (r == 0) { b: lock m; } c: unlock m;",
    "a: r = load x; while (r == 0) { b: lock m; e: r = load x; } c: unlock m;",
    "b: lock m; c: unlock m; d: unlock m;",
    # held on the first pass through the loop only: the walk needs the fixpoint
    "b: lock m; a: r = load x; while (r == 0) { c: unlock m; d: r = load x; }",
])
def test_unlock_not_held_on_every_path_rejected(body):
    with pytest.raises(SemanticError, match="unlock of 'm', which some path"):
        parse(f"vars x = 0;\nlocks m;\nthread t {{ {body} }}")


@pytest.mark.parametrize("body", [
    "a: r = load x; if (r == 0) { b: lock m; } else { g: lock m; } c: unlock m;",
    "a: r = load x; b: lock m; if (r == 0) { c: unlock m; } else { d: unlock m; }",
    "a: r = load x; while (r == 0) { b: lock m; c: unlock m; d: r = load x; }",
    "b: lock m; a: r = load x; while (r == 0) { c: unlock m; e: lock m; d: r = load x; }"
    " f: unlock m;",
    "b: lock m;",  # a section that is never released is allowed
])
def test_unlock_held_on_every_path_accepted(body):
    parse(f"vars x = 0;\nlocks m;\nthread t {{ {body} }}")


def test_syntax_errors_carry_position():
    with pytest.raises(ParseError) as err:
        parse("vars x = 0;\nthread t { a: store x ; }")
    assert err.value.line == 2


def test_non_integer_initializer_rejected():
    with pytest.raises(ParseError):
        parse("vars x = y;\nthread t { }")


def test_register_shadowing_rejected():
    with pytest.raises(SemanticError):
        parse("vars x = 0;\nthread t { a: x = load x; }")


def test_ambiguous_postcondition_register():
    src = ("vars x = 0;\nthread t1 { a: r = load x; }\n"
           "thread t2 { b: r = load x; }\nassert (r == 0);")
    with pytest.raises(SemanticError):
        parse(src)


def test_register_facts_are_resolved_once():
    """A program walks its threads for their registers once; both lookups
    answer from that walk, and the cache leaves == and hash alone."""
    src = ("vars x = 0;\nthread t1 { a: r = load x; b: s = r + 1; }\n"
           "thread t2 { c: q = load x; }\nassert (s == 1 || q == 0);")
    p, fresh = parse(src), parse(src)
    assert p.thread_registers("t1") == ("r", "s")
    assert p.thread_registers("t1") is p.thread_registers("t1")
    assert p.resolve_postcondition_name("q") == "t2.q"
    with pytest.raises(KeyError):
        p.thread_registers("t3")
    with pytest.raises(SemanticError, match="unknown register 'z'"):
        p.resolve_postcondition_name("z")
    assert p == fresh and hash(p) == hash(fresh)


def test_roundtrip_on_corpus():
    for f in corpus_files():
        p = parse(f.read_text())
        assert parse(to_source(p)) == p


def test_unroll_without_loops_is_identity(mp_program):
    assert unroll(mp_program, 4) is mp_program


def test_unroll_eliminates_while_on_corpus():
    spin = parse("vars y = 0;\nthread t { l0: r = load y;"
                 " while (r != 1) { l1: r = load y; } }")
    for p in [parse(f.read_text()) for f in corpus_files()] + [spin]:
        for k in (1, 2, 3, 5):
            assert not has_loops(unroll(p, k))


def test_unroll_structure():
    src = """
vars x = 0;
thread t {
  i: r = 0;
  while (r < 2) { s: store x r; }
}
"""
    p = unroll(parse(src), 2)
    assert not has_loops(p)
    body = p.threads[0].body
    # two guarded copies followed by the residual assume
    guards = [st for st in body if isinstance(st, If)]
    assert len(guards) == 2
    labels = [st.label for g in guards for st in g.then_body]
    assert labels == [Label("s", 1), Label("s", 2)]
    residual = body[-1]
    assert isinstance(residual, Assume)
    assert to_source(p).count("store x r") == 2


def test_unroll_residual_modes():
    src = "vars x = 0;\nthread t { i: r = 0; while (r < 2) { s: store x r; } }"
    negated = unroll(parse(src), 1)
    assert "assume (r >= 2)" in to_source(negated)


def test_unroll_nested_instances_increase():
    src = """
vars x = 0;
thread t {
  i: r = 0;
  while (r < 2) {
    j: q = 0;
    while (q < 2) { s: store x q; j2: q = q + 1; }
    i2: r = r + 1;
  }
}
"""
    p = unroll(parse(src), 2)
    assert not has_loops(p)
    cfg = build_cfg(p)
    # four distinct copies; instance indices strictly increase along paths
    s_instances = [lbl.instance for lbl in cfg.nodes if lbl.name == "s"]
    assert len(s_instances) == 4 and len(set(s_instances)) == 4
    for a in cfg.nodes:
        for b in cfg.nodes:
            if a.name == b.name and a != b and b in cfg.reachable(a):
                assert a.instance < b.instance


def test_unroll_spin_wait_shape():
    # a spin wait unrolls to a guarded re-load plus assume of the exit guard
    src = """
vars y = 0;
thread t {
  l0: r = load y;
  while (r != 1) { l1: r = load y; }
  d: store y 2;
}
"""
    p = unroll(parse(src), 1)
    text = to_source(p)
    assert "assume (r == 1)" in text
    assert not has_loops(p)


def test_preds_mp(mp_program):
    cfg = build_cfg(mp_program)
    assert set(cfg.preds[Label("d")]) == {Label("c")}
    assert set(cfg.preds[Label("a")]) == {Label("t1.entry")}


def test_preds_join_point():
    src = """
vars x = 0;
thread t {
  c: r = load x;
  if (r == 0) { a: store x 1; } else { b: store x 2; }
  d: r2 = load x;
}
"""
    p = parse(src)
    cfg = build_cfg(p)
    (join,) = [l for l in cfg.nodes if l.name.endswith(".j")]
    assert set(cfg.preds[join]) == {Label("a"), Label("b")}
    assert set(cfg.preds[Label("d")]) == {join}


def test_cfg_loop_headers():
    src = "vars x = 0;\nthread t { i: r = 0; while (r < 1) { s: store x 1; } }"
    cfg = build_cfg(parse(src))
    assert len(cfg.loop_headers) == 1


@pytest.mark.parametrize("src", [
    "vars x = 0;\nthread t { i: r = 0; while (r < 1) { } }",
    "vars x = 0;\nthread t { while (r < 1) { a: r = 1; } }",
    """vars x = 0;
thread t {
  i: r = 0; j: q = 0;
  if (r == 0) { while (r < 1) { } } else { a: store x 1; }
  while (q < 1) { while (r < 2) { } while (r < 3) { b: r = r + 1; } }
}""",
    *LOOPED_SOURCES])
def test_every_loop_header_has_a_back_edge(src):
    """Every loop header has at least two predecessors, one of them at or
    after it in reverse post-order, also when the body is empty: so no
    header is a nop with one predecessor, which would pass that
    predecessor's states on unwidened (`AnalysisContext.pass_through`)."""
    cfg = build_cfg(parse(src))
    assert cfg.loop_headers
    for head in cfg.loop_headers:
        rpo = cfg.rpo[cfg.thread_of[head]]
        preds = cfg.preds[head]
        assert len(preds) >= 2, head
        assert any(rpo.index(p) >= rpo.index(head) for p in preds), head


def test_cas_and_fadd_parse():
    p = parse("vars x = 0;\nthread t { a: r = cas x 0 1; b: q = fadd x -1; }")
    (a, b), _ = p._walked[0]
    assert isinstance(a, Cas) and isinstance(b, LoadInst) is False
    assert b.addend.value == -1


def test_long_thread_cfg_is_not_recursive():
    from ramosaic.oracle import _thread_paths

    n = 1200
    body = " ".join(f"s{i}: store x {i % 3};" for i in range(n))
    cfg = build_cfg(parse(f"vars x = 0;\nthread t {{ {body} }}\n"))
    assert len(cfg.rpo["t"]) == n + 2
    assert cfg.rpo["t"][0] == cfg.entries["t"] and cfg.rpo["t"][-1] == cfg.exits["t"]
    (path,) = _thread_paths(cfg, "t")
    assert path == cfg.rpo["t"]


def test_analysis_leaves_no_cyclic_garbage():
    """A CFG, and a whole `tmai` run over it, is freed by reference counting
    alone: with the cyclic collector off, the runs leave it nothing."""
    programs = [parse(peterson(4))] + [random_program(seed) for seed in range(20)]
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for program in programs:
            tmai(program)
        found = gc.collect()
    finally:
        if enabled:
            gc.enable()
    assert found == 0


def test_oracle_leaves_no_cyclic_garbage():
    """Enumerating a program's executions, validating them and checking an
    analysis against them is freed by reference counting alone: the
    search's recursive helpers do not keep themselves, and with them the
    program's CFG, in reference cycles."""
    programs = [random_program(seed) for seed in range(20)]
    results = [tmai(program) for program in programs]
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for program, result in zip(programs, results):
            for e in enumerate_executions(program):
                validate_execution(program, e)
            check_soundness(program, result)
        found = gc.collect()
    finally:
        if enabled:
            gc.enable()
    assert found == 0


def test_reachable_through_nested_loops_and_branches():
    src = """
vars x = 0;
thread t {
  while (r < 3) {
    while (q < 2) { a: q = load x; if (q == 0) { b: store x 2; } }
    c: r = r + 1;
  }
  d: store x 1;
}
thread u { e: store x 5; }
"""
    for p in (parse(src), unroll(parse(src), 2)):
        cfg = build_cfg(p)
        reach = one_iteration_reach(cfg)
        for a in cfg.nodes:
            assert cfg.reachable(a) == reach[a]
    # within one iteration a body label reaches the rest of its body and
    # what follows the loop, and no earlier label of the body
    cfg = build_cfg(parse(src))
    named = {a: {b.name for b in cfg.reachable(Label(a)) if b.name in set("abcde")} for a in "abcd"}
    assert named == {"a": {"b", "c", "d"}, "b": {"c", "d"}, "c": {"d"}, "d": set()}


def test_sb_index_from_cfg_pairs():
    from ramosaic.posets import SbIndex

    src = """
vars x = 0;
thread t {
  while (r < 2) { a: store x 1; f: r = r + 1; }
  if (r == 0) { b: store x 2; } else { c: store x 3; }
  d: store x 4;
}
thread u { e: store x 5; }
"""
    sb = SbIndex.from_cfg(build_cfg(parse(src)))
    ordered = {(x, y) for x in "abcde" for y in "abcde" if sb.strict((x, 1), (y, 1))}
    assert ordered == {("a", "b"), ("a", "c"), ("a", "d"), ("b", "d"), ("c", "d")}
