"""Checkpoint/restore round-trips for every library connector.

For each of the 18 connectors at arities 2, 3 and 8: drive a phase-A
workload, snapshot at a quiescent point, then (1) continue with a phase-B
workload on the original connector and (2) restore the snapshot into a
fresh instance and run the *same* phase B there.  The two phase-B runs must
be trace-equivalent (same fired labels and deliveries, via
:mod:`repro.runtime.trace`), observe the same values at the boundary, and
end in identical protocol states.

The snapshot additionally takes a trip through the durable on-disk format
(:mod:`repro.runtime.durable`) before the restore, so every connector state
in the matrix doubles as a golden test of the v1 snapshot encoding.

Phase B workloads are designed to be deterministic: operations are either
sequenced (one at a time) or forced (only one transition enabled), and the
engines' captured round-robin cursors make the remaining choices identical
across the two runs.  Phase A has no such obligation — it runs once.
"""

import time

import pytest

from repro.connectors import library
from repro.runtime.durable import SessionStore, checkpoint_to_data
from repro.runtime.errors import SchemaVersionError
from repro.runtime.ports import mkports
from repro.runtime.tasks import TaskGroup
from repro.runtime.trace import TraceRecorder

OP_TIMEOUT = 15.0
pytestmark = pytest.mark.fault_stress

JOIN_TIMEOUT = 60.0
ARITIES = (2, 3, 8)


# -- workload interpreter ---------------------------------------------------
#
# A phase is a list of steps:
#   ("pump", {out_idx: [values]}, {in_idx: count})  concurrent send/recv
#   ("poll", count)           cycle try_recv over all inports, collect count
#   ("cycle", count)          cycle try_send over all outports (sequencers)
#   ("ops", [(out_idx, val)]) sequential try_sends that must each succeed


def run_phase(conn, outs, ins, steps):
    collected = []
    for step in steps:
        if step[0] == "pump":
            _, sends, recvs = step
            results = {}

            def sender(port, values):
                for v in values:
                    port.send(v)

            def receiver(idx, port, count):
                results[idx] = [port.recv() for _ in range(count)]

            with TaskGroup(join_timeout=JOIN_TIMEOUT) as g:
                for idx, values in sends.items():
                    g.spawn(sender, outs[idx], values, name=f"send{idx}")
                for idx, count in recvs.items():
                    g.spawn(receiver, idx, ins[idx], count, name=f"recv{idx}")
            for idx in sorted(recvs):
                collected.extend((idx, v) for v in results[idx])
        elif step[0] == "poll":
            want = step[1]
            got = []
            deadline = time.monotonic() + OP_TIMEOUT
            while len(got) < want:
                assert time.monotonic() < deadline, "poll starved"
                for i, p in enumerate(ins):
                    ok, v = p.try_recv()
                    if ok:
                        got.append((i, v))
            collected.extend(got)
        elif step[0] == "cycle":
            want = step[1]
            grants = []
            deadline = time.monotonic() + OP_TIMEOUT
            while len(grants) < want:
                assert time.monotonic() < deadline, "cycle starved"
                for i, o in enumerate(outs):
                    if o.try_send(f"s{len(grants)}"):
                        grants.append(i)
                        break
            collected.extend(grants)
        else:  # "ops"
            for idx, val in step[1]:
                assert outs[idx].try_send(val), (idx, val)
                collected.append(idx)
    deadline = time.monotonic() + OP_TIMEOUT
    while not conn.engine.quiescent:
        assert time.monotonic() < deadline, "no quiescence after phase"
        time.sleep(0.002)
    return collected


def workload(name, n):
    """(phase_a, phase_b) per connector family; phase B is deterministic."""
    all_send_a = {i: [f"a{i}"] for i in range(n)}
    all_send_b = {i: [f"b{i}"] for i in range(n)}
    each_recv_1 = {i: 1 for i in range(n)}
    if name == "Merger":
        return (
            [("pump", all_send_a, {0: n})],
            [("pump", {i: [f"b{i}"]}, {0: 1}) for i in range(n)],
        )
    if name == "Replicator":
        return (
            [("pump", {0: ["a"]}, each_recv_1)],
            [("pump", {0: ["b"]}, each_recv_1)],
        )
    if name == "Router":
        return (
            [("pump", {0: ["a"]}, {0: 1})],
            [("pump", {0: ["b"]}, {n - 1: 1})],
        )
    if name == "EarlyAsyncMerger":
        return (
            [("pump", all_send_a, {})],  # n full fifos at the checkpoint
            [("pump", {}, {0: n})],  # drain order fixed by the rr cursors
        )
    if name == "LateAsyncMerger":
        return (
            [("pump", {0: ["a0"]}, {})],  # value parked in the tail fifo
            [("pump", {}, {0: 1}), ("pump", {1 % n: ["b"]}, {0: 1})],
        )
    if name == "EarlyAsyncReplicator":
        return ([("pump", {0: ["a"]}, {})], [("pump", {}, each_recv_1)])
    if name == "LateAsyncReplicator":
        return ([("pump", {0: ["a"]}, {})], [("pump", {}, each_recv_1)])
    if name == "EarlyAsyncRouter":
        return ([("pump", {0: ["a"]}, {})], [("pump", {}, {0: 1})])
    if name == "LateAsyncRouter":
        # The router already chose a fifo (rr-determined); phase B finds it.
        return ([("pump", {0: ["a"]}, {})], [("poll", 1)])
    if name == "Sequencer":
        return ([("cycle", max(1, n // 2))], [("cycle", n)])
    if name == "OutSequencer":
        return (
            [("pump", {0: ["a0"]}, {0: 1})],  # mid-cycle: token at slot 2
            [("pump", {0: [f"a{j}"]}, {j: 1}) for j in range(1, n)]
            + [("pump", {0: ["w"]}, {0: 1})],
        )
    if name == "EarlyAsyncOutSequencer":
        return (
            [("pump", {0: ["a"]}, {})],
            [("pump", {}, {0: 1}), ("pump", {0: ["b"]}, {1 % n: 1})],
        )
    if name == "Alternator":
        return (
            [("pump", all_send_a, {0: 1})],  # one round sent, 1 of n drained
            [("pump", {}, {0: n - 1})],  # drain the rest in index order
        )
    if name == "Barrier":
        return (
            [("pump", all_send_a, each_recv_1)],
            [("pump", all_send_b, each_recv_1)],
        )
    if name == "EarlyAsyncBarrierMerger":
        return ([("pump", all_send_a, {})], [("pump", {}, {0: n})])
    if name == "Lock":
        # outport i acquires for client i, outport n+i releases.
        return (
            [("ops", [(0, "acq"), (n, "rel"), (1, "acq")])],  # client 1 holds
            [("ops", [(n + 1, "rel")] + [(i, "acq") for i in (0,)] + [(n, "rel")])],
        )
    if name == "FifoChain":
        return ([("pump", {0: [1, 2]}, {})], [("pump", {}, {0: 2})])
    if name == "SequencedMerger":
        return (
            [("pump", {0: ["a0"]}, {0: 1})],
            [("pump", {j: [f"a{j}"]}, {j: 1}) for j in range(1, n)],
        )
    raise AssertionError(f"no workload for {name}")


def make(name, n, tracer, compiled="auto"):
    conn = library.connector(name, n, default_timeout=OP_TIMEOUT,
                             tracer=tracer, compiled=compiled)
    outs, ins = mkports(len(conn.tail_vertices), len(conn.head_vertices))
    conn.connect(outs, ins)
    return conn, outs, ins


def durable_hop(cp, tmp_path, tag):
    """Round-trip a checkpoint through the on-disk v1 snapshot format.

    The recovered checkpoint must be *identical* — same dataclass content,
    tuples still tuples — so the matrix's restore below exercises the
    decoded copy, not the in-memory original.
    """
    store = SessionStore(tmp_path, f"golden-{tag}")
    try:
        store.save_snapshot(cp, seq=0)
        rec = store.recover()
    finally:
        store.close()
    assert rec.outcome == "restored", tag
    got = rec.checkpoint
    assert checkpoint_to_data(got) == checkpoint_to_data(cp), tag
    assert got.buffers == cp.buffers and got.steps == cp.steps, tag
    assert got.regions == cp.regions and got.parties == cp.parties, tag
    return got


@pytest.mark.parametrize(
    "tiers", [("auto", "off"), ("off", "auto")],
    ids=["compiled-to-interp", "interp-to-compiled"],
)
@pytest.mark.parametrize("n", ARITIES)
@pytest.mark.parametrize("name", library.names())
def test_checkpoint_roundtrip(name, n, tiers, tmp_path):
    """Cross-tier round-trip: the checkpoint is taken under one step tier
    and restored under the other, in both directions.  Checkpoints carry
    per-state rr cursors as indexes into the candidate list, so this pins
    the tiers' shared dense candidate enumeration — a compiled table whose
    order diverged from the interpreter's scan would replay phase B with a
    different arbitration and fail trace equivalence here."""
    tier1, tier2 = tiers
    phase_a, phase_b = workload(name, n)

    tracer1 = TraceRecorder()
    c1, outs1, ins1 = make(name, n, tracer1, compiled=tier1)
    run_phase(c1, outs1, ins1, phase_a)
    cp = durable_hop(c1.checkpoint(), tmp_path, f"{name}-{n}")
    mark = len(tracer1.events)
    obs1 = run_phase(c1, outs1, ins1, phase_b)
    events1 = tracer1.events[mark:]
    end1 = c1.checkpoint()
    c1.close()

    tracer2 = TraceRecorder()
    c2, outs2, ins2 = make(name, n, tracer2, compiled=tier2)
    c2.restore(cp)  # also clears tracer2
    obs2 = run_phase(c2, outs2, ins2, phase_b)
    events2 = tracer2.events
    end2 = c2.checkpoint()
    c2.close()

    # Boundary observations and fired steps must agree exactly: restoring
    # the snapshot into a fresh instance is indistinguishable from having
    # continued the original run.
    assert obs1 == obs2, (name, n)
    assert [e.label for e in events1] == [e.label for e in events2], (name, n)
    assert [e.deliveries for e in events1] == [e.deliveries for e in events2]
    assert end1.buffers == end2.buffers, (name, n)
    assert end1.steps == end2.steps, (name, n)
    assert end1.regions == end2.regions, (name, n)


def test_snapshot_forward_compat(tmp_path):
    """A snapshot written by a *newer* schema raises the typed error and is
    left in place — an old binary must refuse, not quarantine, state it
    merely does not understand yet."""
    from repro.runtime.durable import SCHEMA_VERSION, _frame, _unframe

    conn = library.connector("Merger", 2, default_timeout=OP_TIMEOUT)
    outs, ins = mkports(len(conn.tail_vertices), len(conn.head_vertices))
    conn.connect(outs, ins)
    cp = conn.checkpoint()
    conn.close()

    store = SessionStore(tmp_path, "future")
    try:
        gen, _ = store.save_snapshot(cp, seq=0)
        path = store.dir / f"snapshot-{gen:08d}.ckpt"
        lines = path.read_bytes().splitlines(keepends=True)
        header = _unframe(lines[0])
        header["version"] = SCHEMA_VERSION + 1
        path.write_bytes(_frame(header) + b"".join(lines[1:]))

        with pytest.raises(SchemaVersionError) as exc:
            store.recover()
        assert exc.value.version == SCHEMA_VERSION + 1
        assert exc.value.supported == SCHEMA_VERSION
        # refused, not quarantined: the file survives for a newer binary
        assert path.exists()
        assert not list(store.dir.glob("*.corrupt"))
    finally:
        store.close()
