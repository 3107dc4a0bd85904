"""Traced mode: wrap each layer's public entry points from outside.

:func:`install` replaces module attributes and class methods of the
program with wrappers that record a span around every call, and returns
a function that puts the originals back.  Nothing under ``src/`` changes;
untraced runs never call :func:`install`.
"""

from __future__ import annotations

import functools
import importlib

from spans import Tracer

#: (module, attribute path, span name).  Module-level functions are
#: wrapped in the module that *calls* them (``compile_source`` looks up
#: ``parse`` in ``repro.compiler.parametrized``, the lazy product looks up
#: ``compose_outgoing`` in ``repro.automata.lazy``).
TARGETS = (
    ("repro.compiler.parametrized", "parse", "lang.parse"),
    ("repro.compiler.parametrized", "compile_program", "compiler.compile"),
    ("repro.compiler.plan", "CompiledProtocol.instantiate_connector",
     "compiler.instantiate"),
    ("repro.compiler.steps", "StepCompiler.compile_state",
     "compiler.step_compile"),
    ("repro.compiler.steps", "StepCompiler.compile_automaton",
     "compiler.step_compile"),
    ("repro.compiler.plan", "product", "automata.product"),
    ("repro.runtime.connector", "product", "automata.product"),
    ("repro.automata.lazy", "compose_outgoing", "automata.expand"),
    ("repro.runtime.connector", "RuntimeConnector.connect", "connector.connect"),
    ("repro.runtime.engine", "CoordinatorEngine.post_send", "engine.post_send"),
    ("repro.runtime.engine", "CoordinatorEngine.post_recv", "engine.post_recv"),
    ("repro.runtime.ports", "Outport.send", "ports.send"),
    ("repro.runtime.ports", "Inport.recv", "ports.recv"),
    ("repro.runtime.channels", "ChannelOutport.send", "channels.send"),
    ("repro.runtime.channels", "ChannelInport.recv", "channels.recv"),
    ("repro.npb.cg", "run_reo", "npb.run_reo"),
    ("repro.npb.cg", "run_original", "npb.run_original"),
    ("repro.serve.daemon", "handle", "serve.control"),
)

#: Calls whose span carries a request id: the submitted value, which is
#: positional argument ``index`` (after ``self``).
RID_TARGETS = (
    ("repro.serve.service", "CoordinatorService.submit", "serve.submit", 2),
    ("repro.runtime.durable", "SessionDurability.on_submit",
     "durable.on_submit", 1),
    ("repro.runtime.durable", "SessionDurability.on_delivered",
     "durable.on_delivered", 1),
)


def _resolve(module: str, path: str):
    owner = importlib.import_module(module)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


def _plain(tracer: Tracer, fn, name: str):
    call = tracer.call

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return call(name, fn, args, kwargs)

    return traced


def _with_rid(tracer: Tracer, fn, name: str, index: int):
    call = tracer.call

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return call(name, fn, args, kwargs, rid=repr(args[index]))

    return traced


def install(tracer: Tracer):
    """Install every wrapper; returns the undo function."""
    from repro.runtime.connector import RuntimeConnector
    from repro.runtime.tasks import TaskGroup

    saved: list[tuple[object, str, object]] = []

    def replace(owner, attr, new):
        saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    for module, path, name in TARGETS:
        owner, attr = _resolve(module, path)
        replace(owner, attr, _plain(tracer, getattr(owner, attr), name))
    for module, path, name, index in RID_TARGETS:
        owner, attr = _resolve(module, path)
        replace(owner, attr, _with_rid(tracer, getattr(owner, attr), name, index))

    # A task group's span runs from ``with`` entry to the end of its join;
    # each task body becomes a span on its own thread whose parent is the
    # span that spawned it, named after the body's layer.
    enter, exit_, spawn = TaskGroup.__enter__, TaskGroup.__exit__, TaskGroup.spawn

    def traced_enter(self):
        # Subclasses with their own __exit__ would never close the span.
        if type(self).__exit__ is traced_exit:
            self._perfbench_span = tracer.open("tasks.spawn_join")
        return enter(self)

    def traced_exit(self, *exc):
        try:
            return exit_(self, *exc)
        finally:
            tracer.close(self._perfbench_span)

    def traced_spawn(self, fn, *args, name: str = "", **kwargs):
        parent = tracer.current()
        span = fn.__module__.split(".")[1] + ".party"
        task = name or fn.__name__

        def body(*a, **k):
            return tracer.call(span, fn, a, k, rid=task, parent=parent)

        return spawn(self, body, *args, name=task, **kwargs)

    replace(TaskGroup, "__enter__", traced_enter)
    replace(TaskGroup, "__exit__", traced_exit)
    replace(TaskGroup, "spawn", traced_spawn)

    # Connector statistics are read just before each connector closes or
    # drains (a drained engine is closed), so the JIT counts cover every
    # connector the run built.
    def record_stats(original):
        def traced(self, *args, **kwargs):
            if self.engine is not None and not self.engine._closed:
                stats = self.engine.stats()
                for key in ("steps", "expansions", "cached_states",
                            "compiled_states", "compiled_regions", "regions"):
                    tracer.count(f"conn.{key}", stats[key])
            return original(self, *args, **kwargs)
        return traced

    for attr in ("close", "drain"):
        replace(RuntimeConnector, attr,
                record_stats(RuntimeConnector.__dict__[attr]))

    def undo():
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

    return undo
