"""The park/wake path: parking slots, wake-up calls, event-driven deadlock
detection.

A parked submitter sleeps on its op's slot until a resolver releases it or
its deadline passes — nothing polls.  A lost wake-up is therefore a hang,
not a hiccup: every test here joins its threads with a timeout and asserts
that none is left alive.
"""

import random
import sys
import threading
import time

import pytest

from repro.compiler import compile_source
from repro.connectors import library
from repro.runtime.metrics import MetricsRegistry
from repro.runtime.ports import mkports
from repro.runtime.tasks import SupervisedTaskGroup, TaskGroup
from repro.util.errors import (
    DeadlockError,
    PortClosedError,
    ProtocolTimeoutError,
)

JOIN = 20.0
#: Slack allowed on top of a deadline or a detection window.
SLACK = 0.2


class Runner:
    """A thread that keeps its target's result or exception."""

    def __init__(self, fn, *args):
        self.result = self.error = None
        self.t_end = None

        def body():
            try:
                self.result = fn(*args)
            except BaseException as exc:  # noqa: BLE001 - recorded for asserts
                self.error = exc
            self.t_end = time.monotonic()

        self.thread = threading.Thread(target=body, daemon=True)
        self.thread.start()


def join_all(*runners):
    for r in runners:
        r.thread.join(JOIN)
    assert not any(r.thread.is_alive() for r in runners), "a waiter hung"


def connect(source, name, n_out, n_in, **options):
    conn = compile_source(source).instantiate_connector(name, **options)
    outs, ins = mkports(n_out, n_in)
    conn.connect(outs, ins)
    return conn, outs, ins


def wait_parked(conn, n):
    """Wait until ``n`` submitters are parked on their slots."""
    deadline = time.monotonic() + JOIN
    while conn.stats()["blocked"] < n:
        assert time.monotonic() < deadline, "submitters never parked"
        time.sleep(0.001)


def family_total(registry, name):
    return sum(
        value
        for fam in registry.collect() if fam.name == name
        for _labels, value in fam.samples()
    )


def count_detector_runs(engine):
    calls = []
    detect = engine._maybe_deadlock

    def counted(op):
        calls.append(op)
        return detect(op)

    engine._maybe_deadlock = counted
    return calls


#: Three synchronous lanes: three regions whose parks and wakes update the
#: engine's parked count under three different region locks.
SYNC_LANES = "P(a,c,e;b,d,f) = Sync(a;b) mult Sync(c;d) mult Sync(e;f)"


@pytest.mark.parametrize("compiled", ["auto", "off"])
def test_timeout_racing_firing_keeps_every_op_exactly_once(compiled):
    """Send/recv on three synchronous lanes (six threads, more than the
    cores, with a short switch interval) with timeouts near the handoff
    latency: each op is delivered or timed out, never both, the books
    balance (submitted == completed + withdrawn) and no parked slot is
    left counted."""
    registry = MetricsRegistry()
    conn, outs, ins = connect(SYNC_LANES, "P", 3, 3, compiled=compiled,
                              metrics=registry, use_partitioning=True)
    assert conn.stats()["regions"] == 3
    n = 600
    rng = random.Random(13)

    def schedule():
        """(pause before the op, its timeout) per op: most ops start at
        once, some after a pause as long as the partner's timeout."""
        return [(rng.uniform(0, 1.5e-3) if rng.random() < 0.3 else 0.0,
                 rng.uniform(20e-6, 1.5e-3)) for _ in range(n)]

    def sender(port, plan):
        sent, timed_out = [], []
        for i, (pause, t) in enumerate(plan):
            time.sleep(pause)
            try:
                port.send(i, timeout=t)
                sent.append(i)
            except ProtocolTimeoutError:
                timed_out.append(i)
        return sent, timed_out

    def receiver(port, plan):
        got, timed_out = [], 0
        for pause, t in plan:
            time.sleep(pause)
            try:
                got.append(port.recv(timeout=t))
            except ProtocolTimeoutError:
                timed_out += 1
        return got, timed_out

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        lanes = [(Runner(sender, outs[i], schedule()),
                  Runner(receiver, ins[i], schedule())) for i in range(3)]
        join_all(*(r for lane in lanes for r in lane))
    finally:
        sys.setswitchinterval(interval)
    any_timeout = False
    for tx, rx in lanes:
        assert tx.error is None and rx.error is None
        sent, send_timed_out = tx.result
        got, recv_timed_out = rx.result
        assert sorted(got) == sent, "a value was lost or delivered twice"
        assert not set(got) & set(send_timed_out), "delivered and timed out"
        assert len(got) + recv_timed_out == n
        any_timeout = any_timeout or bool(send_timed_out or recv_timed_out)
    assert any_timeout, "no timeout raced a firing"
    submitted = family_total(registry, "repro_ops_submitted_total")
    completed = family_total(registry, "repro_ops_completed_total")
    withdrawn = family_total(registry, "repro_ops_withdrawn_total")
    assert submitted == 2 * 3 * n
    assert submitted == completed + withdrawn
    assert conn.stats()["blocked"] == 0
    assert conn.engine.quiescent
    conn.close()


def test_unregister_wakeups_leave_parked_op_to_complete():
    """Each ``unregister_party`` releases every slot; a waiter whose op is
    still unresolved re-parks (no detection: others are not blocked) and
    completes when its partner arrives."""
    conn, outs, ins = connect("P(a;b) = Fifo1(a;b)", "P", 1, 1)
    engine = conn.engine
    engine.register_party("rx", "rx")
    engine.register_party("tx", "tx")
    rx = Runner(ins[0].recv)
    wait_parked(conn, 1)
    for _ in range(50):
        engine.register_party("extra", "extra")
        engine.unregister_party("extra")
    wait_parked(conn, 1)
    outs[0].send("late")
    join_all(rx)
    assert rx.error is None and rx.result == "late"
    assert conn.stats()["blocked"] == 0
    conn.close()


def test_begin_drain_wakeup_leaves_admitted_send_to_complete():
    """``begin_drain`` wakes every parked submitter; an already admitted
    send re-parks and completes once the consumer makes room."""
    conn, outs, ins = connect("P(a;b) = Fifo1(a;b)", "P", 1, 1)
    outs[0].send(1)  # the fifo is full: the next send parks
    tx = Runner(outs[0].send, 2)
    wait_parked(conn, 1)
    conn.engine.begin_drain()
    wait_parked(conn, 1)
    assert ins[0].recv(timeout=JOIN) == 1
    join_all(tx)
    assert tx.error is None
    assert ins[0].recv(timeout=JOIN) == 2
    assert conn.stats()["blocked"] == 0
    conn.close()


def test_close_vertex_fails_its_op_and_wakes_the_rest():
    """Closing one vertex fails the op parked there and wakes every other
    waiter; those re-park and complete normally."""
    conn, outs, ins = connect("P(a,c;b,d) = Fifo1(a;b) mult Fifo1(c;d)",
                              "P", 2, 2)
    keep = Runner(ins[0].recv)
    closed = Runner(ins[1].recv)
    wait_parked(conn, 2)
    ins[1].close()
    join_all(closed)
    assert isinstance(closed.error, PortClosedError)
    wait_parked(conn, 1)
    outs[0].send("still here")
    join_all(keep)
    assert keep.error is None and keep.result == "still here"
    assert conn.stats()["blocked"] == 0
    conn.close()


def test_blocked_count_returns_to_zero():
    """After a round of parks, completions and a withdrawn timeout, no slot
    is counted as parked and the engine is quiescent."""
    conn = library.connector("Replicator", 3)
    outs, ins = mkports(1, 3)
    conn.connect(outs, ins)
    rounds = 50
    consumers = [Runner(lambda p=p: [p.recv() for _ in range(rounds)])
                 for p in ins]
    for i in range(rounds):
        outs[0].send(i)
        assert conn.stats()["blocked"] <= 3
    join_all(*consumers)
    assert all(c.error is None and c.result == list(range(rounds))
               for c in consumers)
    with pytest.raises(ProtocolTimeoutError):
        ins[0].recv(timeout=0.01)
    assert conn.stats()["blocked"] == 0
    assert conn.engine.quiescent
    conn.close()


#: Three parties, each receiving on its own pipe that nobody sends into.
THREE_WAY = "P(a,c,e;b,d,f) = Fifo1(a;b) mult Fifo1(c;d) mult Fifo1(e;f)"


def test_registered_deadlock_detected_within_grace():
    """Three supervised parties each park on a pipe nobody feeds: the last
    park raises the suspect and its waiter confirms it one grace window
    later, with no polling in between."""
    grace = 0.1
    conn, outs, ins = connect(THREE_WAY, "P", 3, 3, detection_grace=grace)
    runs = count_detector_runs(conn.engine)
    g = SupervisedTaskGroup()
    t0 = time.monotonic()
    handles = [g.spawn(ins[i].recv, ports=[outs[i], ins[i]], name=f"t{i}")
               for i in range(3)]
    for h in handles:
        h.thread.join(JOIN)
    t_detected = time.monotonic()
    assert not any(h.alive for h in handles)
    assert all(isinstance(h.exception, DeadlockError) for h in handles)
    assert t_detected - t0 < grace + SLACK
    # Event-driven: each party's park runs the detector at most once, and
    # a waiter that raised a suspect runs it once more after the grace
    # window (parties register one by one as the group spawns them, so an
    # early suspect can be superseded by a later one).
    assert len(runs) <= 2 * 3
    conn.close()


def test_deadlock_confirmed_after_wakeup_inside_grace():
    """A wake-up call (here ``begin_drain``) inside the grace window makes
    every waiter re-park, in any order; one of them must still confirm
    the suspect.  The last party to park raises it; both spawn orders
    run, so in one of them the raiser is woken (and re-parks) first."""
    grace = 0.2
    for order in ((0, 1), (1, 0), (0, 1), (1, 0)):
        conn, outs, ins = connect("P(a,c;b,d) = Fifo1(a;b) mult Fifo1(c;d)",
                                  "P", 2, 2, detection_grace=grace)
        g = SupervisedTaskGroup()
        handles = []
        for parked, i in enumerate(order, 1):
            handles.append(g.spawn(ins[i].recv, ports=[outs[i], ins[i]],
                                   name=f"t{i}"))
            wait_parked(conn, parked)
        conn.engine.begin_drain()
        t_wake = time.monotonic()
        for h in handles:
            h.thread.join(JOIN)
        assert not any(h.alive for h in handles), "deadlock never confirmed"
        assert all(isinstance(h.exception, DeadlockError) for h in handles)
        assert time.monotonic() - t_wake < grace + SLACK
        conn.close()


def test_deadlock_detected_after_raiser_times_out_and_reparks():
    """The last party parks with a timeout shorter than the grace window,
    so the suspect its park raises outlives its op; it then falls back to
    a blocking ``recv``.  No firing or (un)registration happened, so the
    new park sees the same sighting — it must still be confirmed, not
    left to a raiser that is gone."""
    grace = 0.2
    conn, outs, ins = connect(THREE_WAY, "P", 3, 3, detection_grace=grace)
    gates = [threading.Event() for _ in range(3)]

    def party(i, timeout):
        gates[i].wait(JOIN)
        try:
            return ins[i].recv(timeout=timeout)
        except ProtocolTimeoutError:
            return ins[i].recv()

    g = SupervisedTaskGroup()
    handles = [g.spawn(party, i, grace / 4 if i == 2 else None,
                       ports=[outs[i], ins[i]], name=f"t{i}")
               for i in range(3)]
    gates[0].set()
    gates[1].set()
    wait_parked(conn, 2)  # every party registered: no suspect before t2
    t0 = time.monotonic()
    gates[2].set()
    for h in handles:
        h.thread.join(JOIN)
    assert not any(h.alive for h in handles), "deadlock never confirmed"
    assert all(isinstance(h.exception, DeadlockError) for h in handles)
    assert time.monotonic() - t0 < grace / 4 + grace + SLACK
    conn.close()


def test_declared_deadlock_detected_without_grace():
    """``expected_parties=3`` and three unsupervised waiters: the third
    park finds the deadlock at once (declared mode has no grace)."""
    conn, outs, ins = connect(THREE_WAY, "P", 3, 3, expected_parties=3)
    t0 = time.monotonic()
    with pytest.raises(DeadlockError):
        with TaskGroup(join_timeout=JOIN) as g:
            handles = [g.spawn(ins[i].recv) for i in range(3)]
    assert time.monotonic() - t0 < SLACK
    assert all(isinstance(h.exception, DeadlockError) for h in handles)
    assert not any(h.thread.is_alive() for h in handles)
    conn.close()


def test_lone_waiter_times_out_on_its_deadline_without_polling():
    """A waiter that cannot complete a deadlock sleeps until its deadline:
    the timeout lands on time and the detector never runs."""
    conn, outs, ins = connect("P(a;b) = Fifo1(a;b)", "P", 1, 1)
    engine = conn.engine
    engine.register_party("rx", "rx")
    engine.register_party("tx", "tx")  # not blocked: no deadlock possible
    runs = count_detector_runs(engine)
    t0 = time.monotonic()
    rx = Runner(ins[0].recv, 0.05)
    join_all(rx)
    elapsed = rx.t_end - t0
    assert isinstance(rx.error, ProtocolTimeoutError)
    assert 0.05 <= elapsed < 0.05 + SLACK
    assert runs == []
    assert conn.stats()["blocked"] == 0
    conn.close()
