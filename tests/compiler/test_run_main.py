"""Executing main definitions (Figs. 8/9): ports, forall, task registry."""

import pytest

from repro.compiler import compile_source, run_main
from repro.util.errors import ScopeError


def test_fig9_main_runs(fig9_source):
    program = compile_source(fig9_source)

    def pro(out):
        out.send(out.name)

    def con(ins):
        return [p.recv() for p in ins]

    for n in (1, 3):
        results = run_main(
            program, {"Tasks.pro": pro, "Tasks.con": con}, params={"N": n}
        )
        assert results[-1] == [f"out@{i}" for i in range(1, n + 1)]
        assert len(results) == n + 1


def test_fig8_style_scalar_main():
    src = """
C(a,b;c1,c2) = Fifo1(a;c1) mult Fifo1(b;c2)
main = C(aOut,bOut;cIn1,cIn2) among
  Tasks.a(aOut) and Tasks.b(bOut) and Tasks.c(cIn1,cIn2)
"""
    program = compile_source(src)
    order = []

    def a(out):
        out.send("from-a")

    def b(out):
        out.send("from-b")

    def c(i1, i2):
        return (i1.recv(), i2.recv())

    results = run_main(program, {"Tasks.a": a, "Tasks.b": b, "Tasks.c": c})
    assert results[2] == ("from-a", "from-b")


def test_registry_by_object():
    src = """
P(a;b) = Fifo1(a;b)
main = P(x;y) among T.send(x) and T.recv(y)
"""

    class T:
        @staticmethod
        def send(out):
            out.send(42)

        @staticmethod
        def recv(inp):
            return inp.recv()

    class Registry:
        pass

    reg = Registry()
    reg.T = T
    results = run_main(compile_source(src), reg)
    assert results[1] == 42


def test_registry_short_name_fallback():
    src = "P(a;b) = Fifo1(a;b)\nmain = P(x;y) among T.go(x) and T.stop(y)"
    results = run_main(
        compile_source(src),
        {"go": lambda o: o.send(1), "stop": lambda i: i.recv()},
    )
    assert results[1] == 1


def test_missing_param_rejected(fig9_source):
    program = compile_source(fig9_source)
    with pytest.raises(ScopeError, match="not supplied"):
        run_main(program, {}, params={})


def test_missing_task_rejected():
    src = "P(a;b) = Fifo1(a;b)\nmain = P(x;y) among T.a(x) and T.b(y)"
    with pytest.raises(ScopeError, match="not found"):
        run_main(compile_source(src), {"T.a": lambda o: o.send(1)})


def test_no_main_rejected():
    program = compile_source("P(a;b) = Fifo1(a;b)")
    with pytest.raises(ScopeError, match="no main"):
        run_main(program, {})


def test_indexed_port_use_in_forall(fig9_source):
    """forall (i:1..N) Tasks.pro(out[i]) hands each task its own port."""
    program = compile_source(fig9_source)
    seen = []

    def pro(out):
        seen.append(out.name)
        out.send(1)

    def con(ins):
        return [p.recv() for p in ins]

    run_main(program, {"Tasks.pro": pro, "Tasks.con": con}, params={"N": 3})
    assert sorted(seen) == ["out@1", "out@2", "out@3"]


def test_task_exceptions_propagate():
    src = "P(a;b) = Fifo1(a;b)\nmain = P(x;y) among T.boom(x) and T.quiet(y)"

    def boom(out):
        raise ValueError("task failed")

    def quiet(inp):
        # non-blocking so the group join is not held up by the dead peer
        ok, value = inp.try_recv()
        return value if ok else None

    with pytest.raises(ValueError, match="task failed"):
        run_main(
            compile_source(src),
            {"T.boom": boom, "T.quiet": quiet},
            join_timeout=10.0,
        )


def test_connector_options_forwarded(fig9_source):
    program = compile_source(fig9_source)

    def pro(out):
        out.send(0)

    def con(ins):
        return [p.recv() for p in ins]

    results = run_main(
        program,
        {"Tasks.pro": pro, "Tasks.con": con},
        params={"N": 2},
        composition="aot",
    )
    assert results[-1] == [0, 0]


def test_step_tier_option_forwarded(fig9_source):
    """``compiled=`` is the connector's step-tier option, not run_main's
    first parameter (which is positional-only)."""
    program = compile_source(fig9_source)

    def pro(out):
        out.send(0)

    def con(ins):
        return [p.recv() for p in ins]

    tasks = {"Tasks.pro": pro, "Tasks.con": con}
    results = run_main(program, tasks, params={"N": 2}, compiled="off")
    assert results[-1] == [0, 0]
    with pytest.raises(ValueError, match="compiled must be"):
        run_main(program, tasks, params={"N": 2}, compiled="bogus")
