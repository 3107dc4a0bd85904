"""The compiled step tier (:mod:`repro.compiler.steps`, docs/COMPILER.md).

Covers tier selection (``compiled="auto"``/``"off"``/``"require"``),
compile-or-fall-back demotion, differential behaviour against the
interpretive tier on the unobserved fast path, recompilation across
``reconfigure``, and the closure-binding contract (compiled steps keep
working after a checkpoint restore mutates the buffer store in place).
"""

import pytest

from repro.automata.constraint import DEFAULT_REGISTRY
from repro.compiler import compile_source
from repro.connectors import library
from repro.runtime.errors import CompileError
from repro.runtime.ports import mkports

from tests.conftest import pump


def drive_posted(conn, rounds=20):
    """Single-threaded unobserved driving over post_send/post_recv — the
    compiled tier's zero-allocation fast path (no tracer, no metrics, no
    parked threads).  Returns the per-head received values."""
    engine = conn.engine
    tails, heads = list(conn.tail_vertices), list(conn.head_vertices)
    outstanding = {}
    got = {v: [] for v in heads}
    for k in range(rounds):
        for v in heads:
            op = outstanding.get(v)
            if op is not None and op.done:
                got[v].append(op.value)
                outstanding[v] = None
            if outstanding.get(v) is None:
                outstanding[v] = engine.post_recv(v)
        for v in tails:
            op = outstanding.get(v)
            if op is None or op.done:
                outstanding[v] = engine.post_send(v, k)
    for v in heads:
        op = outstanding.get(v)
        if op is not None and op.done:
            got[v].append(op.value)
    return got


# -- tier selection ---------------------------------------------------------


def test_auto_compiles_library_connectors():
    for name in ("Replicator", "EarlyAsyncMerger", "Sequencer"):
        conn = library.connector(name, 2, compiled="auto")
        outs, ins = mkports(len(conn.tail_vertices), len(conn.head_vertices))
        conn.connect(outs, ins)
        stats = conn.stats()
        assert stats["step_tier"] == "auto"
        assert stats["compiled_regions"] >= 1, name
        conn.close()


def test_off_never_compiles():
    conn = library.connector("Replicator", 2, compiled="off")
    outs, ins = mkports(1, 2)
    conn.connect(outs, ins)
    assert conn.stats()["compiled_regions"] == 0
    got = drive_posted(conn, rounds=5)
    conn.close()
    h0, h1 = conn.head_vertices
    assert got[h0] == got[h1] and len(got[h0]) >= 3


def test_require_accepts_compilable():
    conn = library.connector("Sequencer", 3, compiled="require")
    outs, ins = mkports(len(conn.tail_vertices), len(conn.head_vertices))
    conn.connect(outs, ins)
    assert conn.stats()["compiled_regions"] == len(conn.engine.regions)
    conn.close()


def test_invalid_tier_rejected():
    with pytest.raises(ValueError, match="compiled"):
        library.connector("Replicator", 2, compiled="sometimes")


# -- compile-or-fall-back ---------------------------------------------------


def test_unregistered_function_demotes_and_late_registration_works():
    """An unregistered <name> demotes the region (the interpreter resolves
    names at first fire, so late registration must keep working) instead of
    failing the connect."""
    reg = DEFAULT_REGISTRY.merged_with(None)
    conn = compile_source("T(a;b) = Transform<late>(a;b)").instantiate_connector(
        "T", registry=reg, compiled="auto"
    )
    outs, ins = mkports(1, 1)
    conn.connect(outs, ins)
    assert conn.stats()["compiled_regions"] == 0  # demoted, not failed
    reg.register_function("late", lambda x: x * 10)  # after connect
    got = drive_posted(conn, rounds=5)
    conn.close()
    head = conn.head_vertices[0]
    assert got[head][:3] == [0, 10, 20]


def test_unregistered_function_fails_require():
    with pytest.raises(CompileError, match="late"):
        compile_source("T(a;b) = Transform<late>(a;b)").instantiate_connector(
            "T", compiled="require"
        ).connect(*mkports(1, 1))


def test_transition_budget_demotes(monkeypatch):
    from repro.compiler import steps

    monkeypatch.setattr(steps, "TRANSITION_BUDGET", 0)
    conn = library.connector("Replicator", 2, composition="aot",
                             compiled="auto")
    outs, ins = mkports(1, 2)
    conn.connect(outs, ins)
    assert conn.stats()["compiled_regions"] == 0
    # ...and the interpretive fallback still runs the protocol.
    got = drive_posted(conn, rounds=5)
    conn.close()
    h0, h1 = conn.head_vertices
    assert got[h0] == got[h1] and len(got[h0]) >= 3


def test_state_table_cap_interprets_without_demoting(monkeypatch):
    """A JIT region that reaches more control states than the table cap
    stays compiled: states past the cap fire through the interpreter, and
    deliveries match the interpretive tier."""
    from repro.runtime import engine as engine_module

    monkeypatch.setattr(engine_module, "_STATE_TABLE_CAP", 2)
    got = {}
    for tier in ("off", "auto"):
        conn = library.connector("EarlyAsyncMerger", 4, compiled=tier)
        conn.connect(*mkports(4, 1))
        engine = conn.engine
        for k in range(3):
            for t in conn.tail_vertices:
                engine.post_send(t, (t, k))
        ops = [engine.post_recv(conn.head_vertices[0]) for _ in range(12)]
        assert all(op.done for op in ops)
        got[tier] = [op.value for op in ops]
        stats = conn.stats()
        conn.close()
        assert stats["cached_states"] > 2  # the cap was actually exceeded
        if tier == "auto":
            assert stats["compiled_regions"] == 1
            assert 1 <= stats["compiled_states"] <= 2
    assert got["auto"] == got["off"]


def test_mid_drain_demotion_and_late_registration():
    """The initial state compiles, but the state after the fifo fills
    references an unregistered function: the region demotes mid-drain,
    keeps running interpreted, and a function registered after the
    demotion is used at first fire — exactly as under compiled="off"."""
    src = "T(a;b) = Fifo1(a;m) mult Transform<late>(m;b)"
    got = {}
    for tier in ("off", "auto"):
        reg = DEFAULT_REGISTRY.merged_with(None)
        conn = compile_source(src).instantiate_connector(
            "T", registry=reg, compiled=tier
        )
        conn.connect(*mkports(1, 1))
        if tier == "auto":
            assert conn.stats()["compiled_regions"] == 1
        engine = conn.engine
        (a,), (b,) = conn.tail_vertices, conn.head_vertices
        assert engine.post_send(a, 1).done  # fills the fifo
        assert conn.stats()["compiled_regions"] == 0  # demoted mid-drain
        reg.register_function("late", lambda x: x * 10)
        values = []
        for k in (2, 3):
            op = engine.post_recv(b)
            values.append(op.value if op.done else None)
            assert engine.post_send(a, k).done
        values.append(engine.post_recv(b).value)
        got[tier] = values
        conn.close()
    assert got["auto"] == got["off"] == [10, 20, 30]


def test_compile_error_is_value_error():
    """CompileError subclasses ValueError so legacy call sites that caught
    ValueError around codegen/simplify keep working."""
    assert issubclass(CompileError, ValueError)


# -- differential: compiled vs interpretive on the fast path ----------------


@pytest.mark.parametrize("name,n", [
    ("Replicator", 2), ("EarlyAsyncMerger", 3), ("Sequencer", 3),
    ("SequencedMerger", 2), ("Alternator", 2), ("Barrier", 2),
])
def test_two_tier_differential_unobserved(name, n):
    """Same single-threaded posted workload, no tracer/metrics attached
    (the compiled tier's fast path returns True without building the
    observability tuple): per-head streams must be identical."""
    results = {}
    for tier in ("off", "auto"):
        conn = library.connector(name, n, compiled=tier)
        outs, ins = mkports(len(conn.tail_vertices), len(conn.head_vertices))
        conn.connect(outs, ins)
        results[tier] = drive_posted(conn)
        stats = conn.stats()
        conn.close()
        if tier == "auto":
            assert stats["compiled_regions"] >= 1, name
        else:
            assert stats["compiled_regions"] == 0
    assert results["off"] == results["auto"], name


def test_data_constraints_compiled():
    """Filters and transforms inline to plain comparisons/calls in the
    generated source; semantics must match the interpretive plan walk."""
    reg = DEFAULT_REGISTRY.merged_with(None)
    reg.register_predicate("even", lambda x: x % 2 == 0)
    reg.register_function("double", lambda x: 2 * x)
    src = "T(a;b) = Filter<even>(a;m) mult Transform<double>(m;b)"
    got = {}
    for tier in ("off", "auto"):
        conn = compile_source(src).instantiate_connector(
            "T", registry=reg, compiled=tier
        )
        got[tier] = pump(conn, {0: [1, 2, 3, 4]}, {0: 2})[0]
    assert got["auto"] == got["off"] == [4, 8]


# -- reconfigure and restore ------------------------------------------------


def test_reconfigure_recompiles():
    """leave() recompiles the protocol for the smaller arity and re-adopts
    regions: the compiled tables must be rebuilt against the fresh
    structures (pending queues, buffers), and the survivors keep flowing
    through the compiled tier."""
    import threading

    conn = library.connector("Merger", 3, compiled="auto",
                             default_timeout=10.0)
    outs, ins = mkports(3, 1)
    conn.connect(outs, ins)
    assert conn.stats()["compiled_regions"] >= 1
    got: list = []

    def recv_some(count):
        t = threading.Thread(
            target=lambda: got.extend(ins[0].recv() for _ in range(count))
        )
        t.start()
        return t

    t = recv_some(1)
    outs[2].send("pre")
    t.join(10.0)
    conn.leave(outs[2])
    assert conn.stats()["compiled_regions"] >= 1  # recompiled, not demoted
    t = recv_some(2)
    outs[0].send("x")
    outs[1].send("y")
    t.join(10.0)
    assert got == ["pre", "x", "y"]
    conn.close()


def test_restore_feeds_compiled_closures():
    """set_contents mutates the deques compiled closures bind, so buffered
    state restored from a checkpoint must be visible to compiled steps."""
    c1 = library.connector("EarlyAsyncMerger", 2, compiled="auto")
    outs1, ins1 = mkports(2, 1)
    c1.connect(outs1, ins1)
    outs1[0].send("kept")
    cp = c1.checkpoint()
    c1.close()

    c2 = library.connector("EarlyAsyncMerger", 2, compiled="auto")
    outs2, ins2 = mkports(2, 1)
    c2.connect(outs2, ins2)
    c2.restore(cp)
    assert c2.stats()["compiled_regions"] >= 1
    assert ins2[0].recv() == "kept"
    c2.close()


# -- emitted source ---------------------------------------------------------


def test_region_sources_rows():
    from repro.compiler.steps import region_sources

    conn = library.connector("Sequencer", 2, compiled="auto")
    outs, ins = mkports(len(conn.tail_vertices), len(conn.head_vertices))
    conn.connect(outs, ins)
    rows = region_sources(conn.engine)
    assert rows, "compiled regions must expose their emitted source"
    for _idx, _state, label, source in rows:
        assert source.startswith("def _fire(")
        compile(source, f"<recheck {label}>", "exec")  # stays valid Python
    conn.close()
