"""Per-layer metrics of a traced run, computed from its spans.

Seconds (``*_s``) and counts are per *round* — one reo/original pair on
``npb-cg``, one fresh compile + cold/settle/warm passes on
``connector-sweep``, one daemon run on ``serve-daemon`` — so runs of
different lengths compare.  Per-call times (``*_us``) are medians or
percentiles over every call in the run.
"""

from __future__ import annotations

from collections import defaultdict

import spans as sp
import stats

#: name -> unit, in BENCHMARK.json order.
UNITS = {
    "lang.parse_s": "s",
    "compiler.compile_s": "s",
    "compiler.instantiate_s": "s",
    "compiler.step_compile_s": "s",
    "automata.expand_s": "s",
    "connector.connect_s": "s",
    "jit.expansions": "count",
    "jit.cached_states": "count",
    "jit.compiled_states": "count",
    "jit.compiled_region_frac": "ratio",
    "jit.warmup_s": "s",
    "engine.ops": "count",
    "engine.steps": "count",
    "engine.steps_per_op": "ratio",
    "engine.post_us": "us",
    "ports.send_us.p50": "us",
    "ports.send_us.p99": "us",
    "ports.recv_us.p50": "us",
    "ports.recv_us.p99": "us",
    "ports.ops": "count",
    "ports.wait_frac": "ratio",
    "tasks.spawn_join_s": "s",
    "npb.compute_s": "s",
    "channels.op_us": "us",
    "serve.submit_us": "us",
    "serve.submit_self_us": "us",
    "serve.control_us": "us",
    "durable.append_us": "us",
    "serve.delivery_us.p50": "us",
    "serve.delivery_us.p99": "us",
    "solve_s": "s",
    "original_s": "s",
    "cold_steps_per_s": "1/s",
    "warm_steps_per_s": "1/s",
    "submit_p50_us.low": "us",
    "submit_p50_us.high": "us",
    "submit_p99_us.low": "us",
    "submit_p99_us.high": "us",
    "loadgen.late_us.p99": "us",
    "trace.overhead_frac": "ratio",
    "trace.coverage_frac": "ratio",
}


#: Absolute times and rates too unsteady between runs on a shared host for
#: a bound of 0.25 (10-run spreads up to 0.27-0.35): reported from a traced
#: run's untraced rounds, without a bound.
UNTRACED = ("solve_s", "original_s", "cold_steps_per_s", "warm_steps_per_s",
            "submit_p50_us.low", "submit_p50_us.high", "submit_p99_us.low",
            "submit_p99_us.high")


def _med_us(xs) -> float:
    return stats.median(xs) * 1e6 if xs else 0.0


def _pct_us(xs, pct) -> float:
    return stats.percentile(xs, pct) * 1e6 if xs else 0.0


#: Spans that wrap a whole solve: their self time, like the root spans',
#: is time that no inner layer explains.
WRAPPERS = ("npb.run_reo", "npb.run_original")


def compute(spans, selfs, roots, counters, rounds: int, *,
            warmup_s=None, overhead_frac=0.0, late=(), untraced=None) -> dict:
    """Every metric of :data:`UNITS`; a layer the workload never calls
    reads 0.  ``selfs`` is :func:`spans.self_times` and ``roots`` the
    spans whose wall time coverage is a share of; ``warmup_s`` overrides
    the JIT warm-up estimate (the sweep measures it as cold − warm pass
    time);
    ``untraced`` holds the end-to-end numbers of the run's untraced rounds
    that are reported here, unbounded (:data:`UNTRACED`)."""
    dur: dict[str, list] = defaultdict(list)
    own: dict[str, list] = defaultdict(list)
    for s in spans:
        dur[s[2]].append(s[5] - s[4])
        own[s[2]].append(selfs[s[0]])
    total_self = {k: sum(v) for k, v in own.items()}

    def per_round(*names) -> float:
        return sum(total_self.get(n, 0.0) for n in names) / rounds

    c = counters
    regions = c.get("conn.regions", 0.0)
    post = dur["engine.post_send"] + dur["engine.post_recv"]
    port_calls = dur["ports.send"] + dur["ports.recv"]
    party = sum(d for k, v in dur.items() if k.endswith(".party") for d in v)
    ops = len(post) + len(port_calls)
    steps = c.get("conn.steps", 0.0)

    submit_at = {s[6]: s[4] for s in spans if s[2] == "serve.submit"}
    delivery = [s[4] - submit_at[s[6]] for s in spans
                if s[2] == "durable.on_delivered" and s[6] in submit_at]

    expand_compile = per_round("automata.expand", "compiler.step_compile")

    return {
        "lang.parse_s": per_round("lang.parse"),
        "compiler.compile_s": per_round("compiler.compile"),
        "compiler.instantiate_s": per_round("compiler.instantiate"),
        "compiler.step_compile_s": per_round("compiler.step_compile"),
        "automata.expand_s": per_round("automata.expand"),
        "connector.connect_s": per_round("connector.connect"),
        "jit.expansions": c.get("conn.expansions", 0.0) / rounds,
        "jit.cached_states": c.get("conn.cached_states", 0.0) / rounds,
        "jit.compiled_states": c.get("conn.compiled_states", 0.0) / rounds,
        "jit.compiled_region_frac":
            c.get("conn.compiled_regions", 0.0) / regions if regions else 0.0,
        "jit.warmup_s": expand_compile if warmup_s is None else warmup_s,
        "engine.ops": ops / rounds,
        "engine.steps": steps / rounds,
        "engine.steps_per_op": steps / ops if ops else 0.0,
        "engine.post_us": _med_us(post),
        "ports.send_us.p50": _med_us(dur["ports.send"]),
        "ports.send_us.p99": _pct_us(dur["ports.send"], 99),
        "ports.recv_us.p50": _med_us(dur["ports.recv"]),
        "ports.recv_us.p99": _pct_us(dur["ports.recv"], 99),
        "ports.ops": len(port_calls) / rounds,
        "ports.wait_frac": sum(port_calls) / party if party else 0.0,
        "tasks.spawn_join_s": per_round("tasks.spawn_join"),
        "npb.compute_s": per_round("npb.party"),
        "channels.op_us": _med_us(dur["channels.send"] + dur["channels.recv"]),
        "serve.submit_us": _med_us(dur["serve.submit"]),
        "serve.submit_self_us": _med_us(own["serve.submit"]),
        "serve.control_us": _med_us(own["serve.control"]),
        "durable.append_us": _med_us(dur["durable.on_submit"]
                                     + dur["durable.on_delivered"]),
        "serve.delivery_us.p50": _med_us(delivery),
        "serve.delivery_us.p99": _pct_us(delivery, 99),
        **{k: (untraced or {}).get(k, 0.0) for k in UNTRACED},
        "loadgen.late_us.p99": _pct_us(list(late), 99),
        "trace.overhead_frac": overhead_frac,
        "trace.coverage_frac": sp.coverage(spans, selfs, roots, WRAPPERS),
    }
