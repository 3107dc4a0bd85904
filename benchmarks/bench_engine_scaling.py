"""Experiment E8 — region-parallel engine scaling.

Sweeps the coordination engine over k disjoint regions and pins its
scaling property: dispatch is O(1) per op (a vertex→region routing table)
and a firing chases only the regions whose shared buffers it touched, so
the per-step cost must stay flat as independent regions are added —
**at 8 regions ns/step stays within** ``SCALING_BUDGET`` **of 1 region**.
(An engine that rescanned every region after every firing pays O(k) per
step here: the deleted single-lock engine measured 4.4× at 8 lanes.)

The workload is the canonical multi-region shape from
``tests/runtime/test_engine_regions.py``: k disjoint fifo chains in one
connector, partitioned into (at least) k independent regions.  The driver
is single-threaded and deterministic, so every lane count executes the
same protocol steps per value and the ratio isolates engine bookkeeping,
not scheduling luck.  Chain depth 4 makes every value cost ``depth+1``
firings.

``python -m pytest benchmarks/bench_engine_scaling.py -s`` prints the
sweep table; ``benchmarks/record.py`` persists it to BENCH_engine.json.
"""

import os
import time

import pytest

from repro.compiler.fromgraph import connector_from_graph
from repro.connectors.graph import Arc, ConnectorGraph
from repro.connectors.library import BuiltConnector
from repro.runtime.ports import mkports

LANES = (1, 2, 4, 8)
DEPTH = 4          # firings per value: depth pushes + 1 final pop
# CI's bench-smoke job shrinks the run via the environment.
VALUES = int(os.environ.get("BENCH_ENGINE_VALUES", "300"))
REPEATS = int(os.environ.get("BENCH_ENGINE_REPEATS", "5"))

SCALING_BUDGET = 2.0     # 8 regions: ns/step ≤ 2× the 1-region cost


def lanes_connector(k: int, depth: int = DEPTH):
    graph = ConnectorGraph()
    tails, heads = [], []
    for lane in range(k):
        for i in range(1, depth + 1):
            graph = graph.add(
                Arc("fifo1", (f"l{lane}x{i - 1}",), (f"l{lane}x{i}",), ())
            )
        tails.append(f"l{lane}x0")
        heads.append(f"l{lane}x{depth}")
    built = BuiltConnector(graph, tuple(tails), tuple(heads))
    return connector_from_graph(
        built, name=f"Lanes{k}", use_partitioning=True,
    )


def pump_once(k: int, values: int = VALUES):
    """One deterministic pump of k lanes; returns (steps, seconds).

    Single caller thread, alternating a send and a recv round across all
    lanes: every op completes synchronously (chain capacity > 1), so the
    measurement window contains engine work only — no parked threads, no
    wakeups, the same step sequence per lane at every k.
    """
    conn = lanes_connector(k)
    outs, ins = mkports(k, k)
    conn.connect(outs, ins)
    send = [o.send for o in outs]
    recv = [i.recv for i in ins]
    t0 = time.perf_counter()
    for j in range(values):
        for i in range(k):
            send[i](j)
        for i in range(k):
            recv[i]()
    dt = time.perf_counter() - t0
    steps = conn.steps
    conn.close()
    return steps, dt


def measure(k: int, repeats: int = REPEATS):
    """Best-of-``repeats`` ns/step and aggregate steps/s for one size."""
    best = None
    for _ in range(repeats):
        steps, dt = pump_once(k)
        if best is None or dt < best[1]:
            best = (steps, dt)
    steps, dt = best
    return {
        "lanes": k,
        "steps": steps,
        "ns_per_step": dt / steps * 1e9,
        "steps_per_s": steps / dt,
    }


def run_scaling_sweep(lanes=LANES, repeats=REPEATS):
    """The full sweep; rows keyed by lane count."""
    return {k: measure(k, repeats=repeats) for k in lanes}


def render(rows) -> str:
    lines = [
        f"{'lanes':>5} {'steps':>8} {'ns/step':>10} {'steps/s':>12}"
        f" {'vs 1 lane':>10}"
    ]
    for k, r in sorted(rows.items()):
        ratio = r["ns_per_step"] / rows[min(rows)]["ns_per_step"]
        lines.append(
            f"{k:>5} {r['steps']:>8} {r['ns_per_step']:>10.0f}"
            f" {r['steps_per_s']:>12.0f} {ratio:>9.2f}x"
        )
    return "\n".join(lines)


def test_engine_scaling_sweep(benchmark):
    """The sweep + the flat-per-step-cost pin, recorded via extra_info."""

    rows = benchmark.pedantic(run_scaling_sweep, rounds=1, iterations=1)
    print()
    print(render(rows))

    for k, r in rows.items():
        benchmark.extra_info[f"regions_{k}_ns_per_step"] = round(
            r["ns_per_step"], 1
        )
        benchmark.extra_info[f"regions_{k}_steps_per_s"] = round(
            r["steps_per_s"]
        )
    # Every lane does identical protocol work: k lanes fire k× the steps.
    for k in LANES:
        assert rows[k]["steps"] == k * rows[1]["steps"]

    growth = rows[8]["ns_per_step"] / rows[1]["ns_per_step"]
    benchmark.extra_info["ns_per_step_growth_at_8"] = round(growth, 3)
    assert growth <= SCALING_BUDGET, (
        f"8 independent regions cost {growth:.2f}x the 1-region ns/step"
    )


@pytest.mark.parametrize("k", LANES)
def test_region_throughput(benchmark, k):
    """Per-size rows for ``--benchmark-only`` output (regions mode)."""
    r = benchmark.pedantic(
        measure, args=(k,), kwargs={"repeats": 3},
        rounds=1, iterations=1,
    )
    benchmark.extra_info["ns_per_step"] = round(r["ns_per_step"], 1)
    benchmark.extra_info["steps_per_s"] = round(r["steps_per_s"])
