"""Interference maps and the reflexive-transitive program order."""

from ramosaic.interference import CTX, get_interfs
from ramosaic.litmus import Label, build_cfg, parse

from conftest import MP_SRC


def test_get_interfs_mp():
    p = parse(MP_SRC)
    m = get_interfs(p, build_cfg(p))
    assert m["t2"][Label("c")] == (CTX, Label("b"))
    assert m["t2"][Label("d")] == (CTX, Label("a"))
    assert m["t1"] == {}


def test_get_interfs_single_thread():
    p = parse("vars x = 0;\nthread t { a: store x 1; c: r = load x; }")
    m = get_interfs(p, build_cfg(p))
    assert m["t"][Label("c")] == (CTX,)


def test_get_interfs_two_writers():
    src = """
vars x = 0;
thread w1 { a: store x 1; }
thread w2 { b: store x 2; }
thread r0 { c: r = load x; }
"""
    p = parse(src)
    m = get_interfs(p, build_cfg(p))
    assert m["r0"][Label("c")] == (CTX, Label("a"), Label("b"))


def test_get_interfs_locks():
    src = """
vars x = 0;
locks m;
thread t1 { p1: lock m; q1: unlock m; }
thread t2 { p2: lock m; q2: unlock m; }
"""
    p = parse(src)
    im = get_interfs(p, build_cfg(p))
    assert im["t1"][Label("p1")] == (CTX, Label("q2"))
    assert im["t2"][Label("p2")] == (CTX, Label("q1"))


def _ppo(cfg, a, b) -> bool:
    """The reflexive-transitive program order: CFG reachability."""
    return a == b or b in cfg.reachable(a)


def test_ppo_reflexive_transitive():
    p = parse(MP_SRC)
    cfg = build_cfg(p)
    assert _ppo(cfg, Label("a"), Label("b"))
    assert _ppo(cfg, Label("a"), Label("a"))
    assert not _ppo(cfg, Label("b"), Label("a"))
    assert not _ppo(cfg, Label("a"), Label("d"))  # another thread
    labels = list(cfg.nodes)
    for x in labels:
        for y in labels:
            for z in labels:
                if _ppo(cfg, x, y) and _ppo(cfg, y, z):
                    assert _ppo(cfg, x, z)
