"""In-memory spans, self time and export.

A span is ``(sid, parent, name, tid, start, end, rid)``: ``name`` is
``<layer>.<what>`` (the layer table maps the prefix to a module name),
``parent`` is the sid of the span that caused it (0 for a root), ``rid``
is a request id or ``None``.  Spans are kept in a list while the benchmark
runs and written out when it ends.

A span's **self time** is its duration minus the part of its interval that
its children cover (children may nest and overlap, e.g. five task threads
under one join).  Summed per layer this is thread-seconds.  A root span's
self time is wall time that no span below it accounts for.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import defaultdict

#: Span-name prefix -> layer (module) name.  ``bench`` is the benchmark's
#: own driver code, not a layer of the program.
LAYERS = {
    "lang": "lang",
    "compiler": "compiler",
    "automata": "automata",
    "connector": "runtime.connector",
    "engine": "runtime.engine",
    "ports": "runtime.ports",
    "channels": "runtime.channels",
    "tasks": "runtime.tasks",
    "durable": "runtime.durable",
    "npb": "npb",
    "serve": "serve",
    "bench": "bench",
}


def layer_of(name: str) -> str:
    return LAYERS[name.split(".", 1)[0]]


class Tracer:
    """Collects spans from any thread; one stack of open spans per thread."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.thread_names: dict[int, str] = {}
        self.counters: dict[str, float] = defaultdict(float)
        self._ids = itertools.count(1)
        self._tls = threading.local()
        self.t0 = time.perf_counter()

    def _stack(self) -> list:
        try:
            return self._tls.stack
        except AttributeError:
            self._tls.stack = stack = []
            t = threading.current_thread()
            self.thread_names[t.ident] = t.name
            return stack

    def current(self) -> int:
        stack = self._stack()
        return stack[-1] if stack else 0

    def call(self, name: str, fn, args, kwargs, rid=None, parent=None):
        """Run ``fn(*args, **kwargs)`` inside a span.  ``parent`` overrides
        the calling thread's innermost open span (a task thread names the
        span that spawned it)."""
        stack = self._stack()
        if parent is None:
            parent = stack[-1] if stack else 0
        sid = next(self._ids)
        stack.append(sid)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(
                (sid, parent, name, threading.get_ident(), start, end, rid)
            )

    def open(self, name: str, rid=None) -> tuple:
        """Open a span that :meth:`close` ends (for enter/exit pairs)."""
        stack = self._stack()
        parent = stack[-1] if stack else 0
        sid = next(self._ids)
        stack.append(sid)
        return (sid, parent, name, rid, time.perf_counter())

    def close(self, token: tuple) -> None:
        end = time.perf_counter()
        sid, parent, name, rid, start = token
        stack = self._stack()
        if stack and stack[-1] == sid:
            stack.pop()
        self.spans.append(
            (sid, parent, name, threading.get_ident(), start, end, rid)
        )

    def count(self, key: str, value: float = 1.0) -> None:
        self.counters[key] += value


# --------------------------------------------------------------------------
# Analysis
# --------------------------------------------------------------------------


def children_of(spans) -> dict[int, list[tuple]]:
    kids: dict[int, list[tuple]] = defaultdict(list)
    for s in spans:
        kids[s[1]].append(s)
    return kids


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cur_a = cur_b = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        elif b > cur_b:
            cur_b = b
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans) -> dict[int, float]:
    """sid -> self time: duration minus the union of its children."""
    kids = children_of(spans)
    return {
        s[0]: (s[5] - s[4])
        - covered([(c[4], c[5]) for c in kids.get(s[0], ())], s[4], s[5])
        for s in spans
    }


def coverage(spans, selfs, roots, wrappers=()) -> float:
    """Share of the roots' wall time that an inner layer explains: one
    minus the self time of the roots and of the spans named in
    ``wrappers`` (spans that only wrap a whole run), over the roots'
    total duration."""
    wall = sum(r[5] - r[4] for r in roots)
    if not wall:
        return 0.0
    lost = sum(selfs[r[0]] for r in roots)
    lost += sum(selfs[s[0]] for s in spans if s[2] in wrappers)
    return 1.0 - lost / wall


def by_layer(per_name: dict[str, float]) -> dict[str, float]:
    out: dict[str, float] = defaultdict(float)
    for name, seconds in per_name.items():
        out[layer_of(name)] += seconds
    return dict(out)


def self_by_name(spans, selfs) -> dict[str, float]:
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        out[s[2]] += selfs[s[0]]
    return dict(out)


def layer_table(self_s: dict, wall: float) -> str:
    """Self seconds per layer (all threads) from per-name totals
    (:func:`self_by_name`), and each as a share of the roots' wall time;
    a layer's share exceeds 100% when its threads overlap."""
    selfs = by_layer(self_s)
    rows = [f"{'layer':<20}{'self_s':>12}{'of wall':>10}"]
    for layer in sorted(selfs, key=lambda k: -selfs[k]):
        rows.append(f"{layer:<20}{selfs[layer]:>12.4f}"
                    f"{100 * selfs[layer] / wall if wall else 0:>9.1f}%")
    rows.append(f"{'wall (roots)':<20}{wall:>12.4f}")
    return "\n".join(rows)


def write_chrome_trace(path, tracer: Tracer, pid: int = 1) -> None:
    """Chrome trace-event JSON (``traceEvents``: one complete ``X`` event
    per span, ``M`` events naming the threads).  Written line by line:
    ``json.dump`` of a dict per span is too slow for 10^5 spans."""
    t0 = tracer.t0
    with open(path, "w") as fh:
        fh.write('{"displayTimeUnit": "ms", "traceEvents": [\n')
        first = True
        for tid, name in tracer.thread_names.items():
            fh.write(("" if first else ",\n") + json.dumps(
                {"name": "thread_name", "ph": "M", "pid": pid, "tid": tid,
                 "args": {"name": name}}))
            first = False
        for sid, parent, name, tid, start, end, rid in tracer.spans:
            extra = "" if rid is None else f',"rid":{json.dumps(rid)}'
            fh.write(
                ("" if first else ",\n")
                + f'{{"name":"{name}","cat":"{layer_of(name)}","ph":"X",'
                f'"pid":{pid},"tid":{tid},"ts":{(start - t0) * 1e6:.3f},'
                f'"dur":{(end - start) * 1e6:.3f},'
                f'"args":{{"sid":{sid},"parent":{parent}{extra}}}}}')
            first = False
        fh.write("\n]}\n")
