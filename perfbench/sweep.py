"""The ``connector-sweep`` section: every library connector at N=8,
compiled fresh from its DSL, driven from one thread through the engine's
``post_send``/``post_recv``.

One round is: set-up (``compile_source`` → ``instantiate_connector`` →
``connect`` for all 18), a cold pass, settle passes, then warm passes, all
replaying the same seeded script.  No thread ever parks, so the wake path
is bypassed: compile, lazy expansion, step compile and firing do the work.
The script is send-heavy so buffers fill and many product states appear;
the lazy cache keeps growing for a few passes, which is why warm passes
come only after :data:`SETTLE_PASSES` unmeasured ones.

Checks: every received value was sent on that connector, no value is
received twice except on a replicating connector, and a round's step and
expansion counts equal every other round's (the drive is deterministic).
"""

from __future__ import annotations

import gc
import random
import time
from collections import Counter
from dataclasses import dataclass, field

import stats

N = 8
OPS = 2000            # script length per connector
SEND_SHARE = 0.7      # share of script entries that are sends
SETTLE_PASSES = 3
WARM_PASSES = 4
REPLICATING = frozenset({"Replicator", "EarlyAsyncReplicator",
                         "LateAsyncReplicator"})


def build_all():
    """Set-up: compile, instantiate and connect every library connector."""
    from repro.compiler import compile_source
    from repro.connectors import library
    from repro.runtime.ports import mkports

    conns = {}
    for name in library.names():
        program = compile_source(library.dsl_source(name, N))
        conn = program.instantiate_connector(name=name, sizes=N)
        outs, ins = mkports(len(conn.tail_vertices), len(conn.head_vertices))
        conn.connect(outs, ins)
        conns[name] = conn
    return conns


def time_setup() -> float:
    """Seconds of one :func:`build_all` call from a collected heap; the
    connectors are closed afterwards."""
    gc.collect()
    t0 = time.perf_counter()
    conns = build_all()
    elapsed = time.perf_counter() - t0
    for conn in conns.values():
        conn.close()
    return elapsed


def make_scripts(seed: int, conns) -> dict:
    """Per connector, a list of ``(vertex, is_send)``: the generated input."""
    scripts = {}
    for name, conn in conns.items():
        rng = random.Random(f"{seed}:{name}")
        tails, heads = conn.tail_vertices, conn.head_vertices
        script = []
        for _ in range(OPS):
            if tails and (not heads or rng.random() < SEND_SHARE):
                script.append((rng.choice(tails), True))
            else:
                script.append((rng.choice(heads), False))
        scripts[name] = script
    return scripts


class Driver:
    """Replays one connector's script, at most one open operation per
    vertex; keeps what was sent and received for the output check."""

    def __init__(self, conn, script):
        self.conn = conn
        self.script = script
        self.open: dict = {}     # vertex -> (handle, is_send)
        self.next_value = 0
        self.received: list = []
        self.posted = 0
        self.errors = 0

    def run_pass(self) -> None:
        # Kept lean: in traced runs this loop is the benchmark's own share
        # of the wall time, which must stay small next to the engine's.
        engine = self.conn.engine
        post_send, post_recv = engine.post_send, engine.post_recv
        open_ops, received = self.open, self.received
        value, posted, errors = self.next_value, self.posted, self.errors
        for vertex, is_send in self.script:
            prev = open_ops.get(vertex)
            if prev is not None:
                handle = prev[0]
                if not handle.done:
                    continue
                if handle.error is not None:
                    errors += 1
                elif not prev[1]:
                    received.append(handle.value)
            if is_send:
                value += 1
                open_ops[vertex] = (post_send(vertex, value), True)
            else:
                open_ops[vertex] = (post_recv(vertex), False)
            posted += 1
        self.next_value, self.posted, self.errors = value, posted, errors

    def finish(self, replicating: bool) -> int:
        """Collect the last completed operations; returns the number of
        output-check violations."""
        for handle, was_send in self.open.values():
            if handle.done and handle.error is not None:
                self.errors += 1
            elif handle.done and not was_send:
                self.received.append(handle.value)
        bad = sum(1 for v in self.received
                  if not (isinstance(v, int) and 1 <= v <= self.next_value))
        if not replicating:
            bad += sum(c - 1 for c in Counter(self.received).values() if c > 1)
        return bad


@dataclass
class Rounds:
    cold_rate: list = field(default_factory=list)
    warm_rate: list = field(default_factory=list)
    cold_s: list = field(default_factory=list)
    warm_s: list = field(default_factory=list)
    counts: list = field(default_factory=list)
    peak_mb: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0

    def metrics(self) -> dict:
        return {
            "cold_steps_per_s": stats.median(self.cold_rate),
            "warm_steps_per_s": stats.median(self.warm_rate),
        }


def _timed_pass(drivers) -> tuple[int, float]:
    steps0 = sum(d.conn.steps for d in drivers)
    t0 = time.perf_counter()
    for d in drivers:
        d.run_pass()
    elapsed = time.perf_counter() - t0
    return sum(d.conn.steps for d in drivers) - steps0, elapsed


class Round:
    """One round, in two halves: set-up and the cold pass, then the settle
    and warm passes.  ``wrap(name, fn)`` runs each phase (the traced run
    puts a root span around it)."""

    def __init__(self, seed: int, rounds: Rounds, wrap=None):
        self.rounds = rounds
        self.wrap = wrap
        # Start every round from a heap without the last round's cyclic
        # garbage, so no cold pass pays for collecting what earlier rounds
        # left behind.
        gc.collect()
        self.conns = self._phase("setup", build_all)
        scripts = make_scripts(seed, self.conns)
        self.drivers = [Driver(c, scripts[n]) for n, c in self.conns.items()]
        self.done = False

    def _phase(self, name, fn):
        return fn() if self.wrap is None else self.wrap(name, fn)

    def cold(self) -> None:
        steps, elapsed = self._phase("cold", lambda: _timed_pass(self.drivers))
        self.rounds.cold_rate.append(steps / elapsed)
        self.rounds.cold_s.append(elapsed)

    def warm(self) -> None:
        for _ in range(SETTLE_PASSES):
            self._phase("settle", lambda: _timed_pass(self.drivers))
        steps = elapsed = 0
        for _ in range(WARM_PASSES):
            s, e = self._phase("warm", lambda: _timed_pass(self.drivers))
            steps, elapsed = steps + s, elapsed + e
        self.rounds.warm_rate.append(steps / elapsed)
        self.rounds.warm_s.append(elapsed / WARM_PASSES)
        self.done = True

    def finish(self) -> None:
        """Check the outputs (of a completed round) and close everything."""
        rounds = self.rounds
        try:
            if self.done:
                counts = tuple(
                    (name, conn.steps, conn.stats()["expansions"])
                    for name, conn in self.conns.items()
                )
                for d, name in zip(self.drivers, self.conns):
                    rounds.attempted += d.posted
                    rounds.failed += d.errors + d.finish(name in REPLICATING)
                if rounds.counts and counts != rounds.counts[0]:
                    rounds.failed += 1
                rounds.counts.append(counts)
        finally:
            for conn in self.conns.values():
                conn.close()


def run_round(seed: int, rounds: Rounds, wrap=None) -> None:
    r = Round(seed, rounds, wrap)
    try:
        r.cold()
        r.warm()
    finally:
        r.finish()


def reset_peak_rss() -> None:
    """Start a new peak-RSS window: Linux resets ``VmHWM`` to the current
    RSS on a write of 5 to ``clear_refs``.  Where that is refused the
    window stays the process's whole life."""
    try:
        with open("/proc/self/clear_refs", "w") as f:
            f.write("5")
    except OSError:
        pass


def peak_rss_mb() -> float:
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


def run_rounds(seed: int, rounds: Rounds, seconds: float,
               min_rounds: int, between=None) -> None:
    """Whole rounds until ``seconds`` have passed (at least ``min_rounds``),
    recording each round's peak RSS; ``between()``, if given, runs after
    every round."""
    deadline = time.perf_counter() + seconds
    done = 0
    while done < min_rounds or time.perf_counter() < deadline:
        reset_peak_rss()
        run_round(seed, rounds)
        rounds.peak_mb.append(peak_rss_mb())
        done += 1
        if between is not None:
            between()
