"""The repository's benchmark: one command, every metric, output checks.

    python3 perfbench/run.py --workload npb-cg --seed 1 --seconds 36 --trace 0

Workloads (``perfbench/README.md`` says why each exists):

* ``npb-cg`` — NPB CG class S, 4 slaves, Reo vs the original, interleaved;
* ``connector-sweep`` — the 18 library connectors at N=8, cold and warm;
* ``serve-daemon`` — the JSON-lines daemon under an open-loop generator.

The end-to-end metrics are the ones that hold still on a shared host:
set-up time, memory, the share of operations that succeed and the paired
``reo_over_original`` ratio.  Every run reports all of them, so an untraced
run of ``connector-sweep`` or ``serve-daemon`` runs that section for a
third of the window and the ``npb-cg`` section for two thirds, each in a
fresh child process; an untraced ``npb-cg`` run gives it the whole window.  The named workload owns
``peak_rss_mb`` and ``setup_s``, whose set-ups are taken one per fresh
process, between the sections' units of work all through the window.
``--trace 1`` instead runs only the named section, alternating traced and
untraced rounds, and reports the per-layer metrics (with the absolute times
of the untraced rounds), a layer table and a Chrome trace file.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (name -> ``{"value", "unit"}``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import npb_cg  # noqa: E402
import perlayer  # noqa: E402
import serve_daemon  # noqa: E402
import spans as sp  # noqa: E402
import stats  # noqa: E402
import sweep  # noqa: E402

WORKLOADS = ("npb-cg", "connector-sweep", "serve-daemon")

#: End-to-end metric -> unit, in BENCHMARK.json order.
END_TO_END = {
    "setup_s": "s",
    "success_rate": "ratio",
    "peak_rss_mb": "MB",
    "reo_over_original": "ratio",
}

#: Minimum work per section, whatever ``--seconds`` says.
MIN_PAIRS, MIN_ROUNDS, MIN_SECONDS_PER_RATE = 8, 2, 2.0
#: ``setup_s`` is the median of set-ups of the named workload, one per
#: fresh process, taken between units of work (pairs, rounds, load chunks)
#: at most once per ``--seconds / SETUP_SAMPLES``: the host's speed flips
#: in phases a second or two long, so samples taken back to back share a
#: phase, while samples spread over the window share only the run's.
SETUP_SAMPLES = 24
#: Share of the window the ``npb-cg`` section gets when another workload is
#: named: its ``reo_over_original`` is the bounded metric whose spread more
#: pairs still shrink, while the named section's memory and checks need
#: only a few rounds or load chunks.
NPB_SHARE = 2 / 3
#: Seconds per rate of one serve load chunk; set-ups go between chunks.
SERVE_CHUNK_S = 2.5

OUT = ROOT / ".bench_out"


def describe(name: str, samples, unit: str, scale: float = 1.0) -> str:
    """One table line: median, quartiles and the tail rule's percentile."""
    xs = [x * scale for x in samples]
    line = f"  {name:<24} median {stats.median(xs):12.4f} {unit:<5} n={len(xs)}"
    if len(xs) >= 2:
        q1, _, q3 = statistics.quantiles(xs, n=4)
        line += f"  q1 {q1:.4f}  q3 {q3:.4f}"
    pct, value, _ = stats.tail(xs)
    if pct is not None and pct > 50:
        line += f"  p{pct:g} {value:.4f}"
    return line


def rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# --------------------------------------------------------------------------
# Sections
# --------------------------------------------------------------------------


def child(*args: str, timeout: float) -> dict:
    """Run ``run.py`` with ``args`` in a fresh process; its last stdout
    line is a JSON object."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=timeout,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"run.py {' '.join(args)} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def program_digest() -> str:
    """Digest of the program source and of the sweep's drive, the two
    things a seed's step and expansion counts depend on."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")) + [
            HERE / "sweep.py"]:
        h.update(str(path.relative_to(ROOT)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def check_sweep_counts(seed: int, rounds: sweep.Rounds) -> int:
    """Step and expansion counts of a seed must repeat across runs of the
    same code: compare with the counts an earlier run stored for this seed
    and this :func:`program_digest`, or store them if none did."""
    path = OUT / "sweep-counts.json"
    known = json.loads(path.read_text()) if path.exists() else {}
    key = f"{program_digest()}:{seed}"
    mine = [list(row) for row in rounds.counts[0]]
    if key in known:
        if known[key] != mine:
            print(f"sweep counts for seed {seed} differ from an earlier run "
                  f"of the same code", file=sys.stderr)
            return 1
        return 0
    known[key] = mine
    path.write_text(json.dumps(known))
    return 0


def start_daemon(tag: str, argv=serve_daemon.UNTRACED_ARGV):
    return serve_daemon.Daemon(ROOT, OUT / f"serve-state-{tag}", list(argv))


def setup_sample(workload: str, t0: float) -> float:
    """One set-up, taken in this fresh process: ``npb-cg`` — from process
    start to CG ready; ``connector-sweep`` — one build of every connector
    (after the imports); ``serve-daemon`` — one daemon start."""
    if workload == "npb-cg":
        npb_cg.setup()
        return time.perf_counter() - t0
    if workload == "connector-sweep":
        import repro.compiler  # noqa: F401 - not part of a set-up
        return sweep.time_setup()
    daemon = start_daemon("setup")
    daemon.shutdown()
    return daemon.setup_s


class SetupProbes:
    """Set-ups of ``workload``, each in a fresh process, taken when called
    and at least ``every`` seconds have passed since the last one began."""

    def __init__(self, workload: str, every: float):
        self.workload, self.every = workload, every
        self.last = float("-inf")
        self.samples: list[float] = []

    def __call__(self) -> None:
        now = time.perf_counter()
        if now - self.last >= self.every:
            self.last = now
            self.samples.append(child("--setup-probe", "--workload",
                                      self.workload, timeout=120)["setup_s"])


def section(name: str, seed: int, budget: float,
            probes: SetupProbes) -> dict:
    """One section, run in this (fresh) process for ``budget`` seconds,
    set-up probes included: its metrics, its table lines, its peak memory
    and its set-up samples."""
    out = {"metrics": {}, "attempted": 0, "failed": 0, "table": []}
    deadline = time.perf_counter() + budget
    probes()
    if name == "npb-cg":
        pairs = npb_cg.run_pairs(random.Random(seed), deadline, MIN_PAIRS,
                                 npb_cg.Pairs(), between=probes)
        part, peak = pairs, rss_mb()
        out["table"] += [describe("solve_s", pairs.reo_s, "s"),
                         describe("original_s", pairs.original_s, "s")]
    elif name == "connector-sweep":
        import repro.compiler  # noqa: F401 - not part of any round's set-up
        rounds = sweep.Rounds()
        sweep.run_rounds(seed, rounds, deadline - time.perf_counter(),
                         MIN_ROUNDS, between=probes)
        rounds.failed += check_sweep_counts(seed, rounds)
        part, peak = rounds, stats.median(rounds.peak_mb)
        out["table"] += [
            describe("cold_steps_per_s", rounds.cold_rate, "1/s"),
            describe("warm_steps_per_s", rounds.warm_rate, "1/s"),
            f"  sweep steps/expansions per round: "
            f"{sum(r[1] for r in rounds.counts[0])}/"
            f"{sum(r[2] for r in rounds.counts[0])}",
            describe("round_peak_rss_mb", rounds.peak_mb, "MB"),
        ]
    else:
        load = serve_daemon.Load()
        sv = serve_daemon.Section(start_daemon("load"), seed, load)
        try:
            done, per_chunk = 0.0, SERVE_CHUNK_S * len(serve_daemon.RATES)
            while (done < MIN_SECONDS_PER_RATE
                   or time.perf_counter() + per_chunk <= deadline):
                sv.chunk(SERVE_CHUNK_S)
                done += SERVE_CHUNK_S
                probes()
        finally:
            sv.finish()
        part, peak = load, load.peak_rss_mb
        for rate, lat in load.latency.items():
            out["table"] += [
                describe(f"submit_us.{rate}", lat, "us", 1e6),
                describe(f"loadgen.late_us.{rate}", load.late[rate], "us", 1e6),
            ]
    out["metrics"] = part.metrics()
    out["attempted"], out["failed"] = part.attempted, part.failed
    out["peak_rss_mb"] = peak
    out["setup_s"] = probes.samples
    return out


def untraced(workload: str, seed: int, seconds: float) -> dict:
    """The named section and, if it is another, the ``npb-cg`` section
    (:data:`NPB_SHARE` of the window), each in a fresh process; both take
    set-ups of the named workload as they go.

    The result line must carry every end-to-end metric whatever the
    workload, and ``reo_over_original`` comes from ``npb-cg``.  Separate
    processes keep the sections from disturbing each other (run in one
    process, the sweep's rates spread 0.31-0.35 between runs when it ran
    after CG, and 0.13-0.15 when it ran first).
    """
    budgets = {workload: seconds}
    if workload != "npb-cg":
        budgets = {workload: seconds * (1 - NPB_SHARE),
                   "npb-cg": seconds * NPB_SHARE}
    report = {"metrics": {}, "attempted": 0, "failed": 0, "table": []}
    setups: list[float] = []
    for name, budget in budgets.items():
        part = child("--section", name, "--workload", workload,
                     "--seed", str(seed), "--seconds", str(budget),
                     "--probe-every", str(seconds / SETUP_SAMPLES),
                     timeout=budget + 120)
        report["metrics"].update(part["metrics"])
        report["attempted"] += part["attempted"]
        report["failed"] += part["failed"]
        report["table"] += part["table"]
        setups += part["setup_s"]
        if name == workload:
            report["metrics"]["peak_rss_mb"] = part["peak_rss_mb"]
    report["metrics"]["setup_s"] = stats.median(setups)
    report["table"].append(describe("setup_s", setups, "s"))
    attempted, failed = report["attempted"], report["failed"]
    report["metrics"]["success_rate"] = (attempted - failed) / attempted
    return report


# --------------------------------------------------------------------------
# Traced mode
# --------------------------------------------------------------------------


def traced(workload: str, seed: int, seconds: float) -> dict:
    """Alternate untraced and traced rounds of the named section; the
    untraced ones give the tracing overhead."""
    import layers

    tracer = sp.Tracer()
    deadline = time.perf_counter() + seconds
    report = {"metrics": {}, "attempted": 0, "failed": 0, "table": []}
    trace_file = OUT / f"trace-{workload}-seed{seed}.json"

    def wrap(name, fn):
        return tracer.call(f"bench.{name}", fn, (), {})

    if workload == "npb-cg":
        plain, marked = npb_cg.Pairs(), npb_cg.Pairs()
        rng = random.Random(seed)
        i = 0
        while i < 4 or time.perf_counter() < deadline:
            if i % 2:
                undo = layers.install(tracer)
                try:
                    npb_cg.run_pairs(rng, 0.0, 1, marked, wrap)
                finally:
                    undo()
            else:
                npb_cg.run_pairs(rng, 0.0, 1, plain)
            i += 1
        rounds = len(marked.reo_s)
        overhead = stats.median(marked.reo_s) / stats.median(plain.reo_s) - 1
        runs, extra = (plain, marked), {"untraced": plain.metrics()}
    elif workload == "connector-sweep":
        plain, marked = sweep.Rounds(), sweep.Rounds()
        i = 0
        while i < 2 or time.perf_counter() < deadline:
            if i % 2:
                undo = layers.install(tracer)
                try:
                    sweep.run_round(seed, marked, wrap)
                finally:
                    undo()
            else:
                sweep.run_round(seed, plain)
            i += 1
        # Tracing must not change what the drive does.
        marked.failed += int(marked.counts[0] != plain.counts[0])
        rounds = len(marked.cold_s)
        overhead = (stats.median(plain.warm_rate)
                    / stats.median(marked.warm_rate) - 1)
        warmup = [c - w for c, w in zip(marked.cold_s, marked.warm_s)]
        runs, extra = (plain, marked), {"warmup_s": stats.median(warmup),
                                        "untraced": plain.metrics()}
    else:
        per_rate = max(2.0, seconds / 3)
        plain, marked = serve_daemon.Load(), serve_daemon.Load()
        spans_file = OUT / f"spans-serve-seed{seed}.json"
        launcher = [str(HERE / "serve_launcher.py"), str(spans_file)]
        for load, secs, tag, argv in (
            (plain, per_rate / 2, "plain", serve_daemon.UNTRACED_ARGV),
            (marked, per_rate, "traced", launcher),
        ):
            section = serve_daemon.Section(start_daemon(tag, argv), seed, load)
            try:
                section.chunk(secs)
            finally:
                section.finish()
        data = json.loads(spans_file.read_text())
        spans_file.unlink()
        tracer.spans = [tuple(s) for s in data["spans"]]
        tracer.thread_names = {int(k): v for k, v in data["thread_names"].items()}
        tracer.counters.update(data["counters"])
        rounds = 1
        overhead = (stats.median(marked.latency["low"])
                    / stats.median(plain.latency["low"]) - 1)
        late = marked.late["low"] + marked.late["high"]
        untraced_e2e = plain.metrics()
        untraced_e2e.update(
            (f"submit_p99_us.{k}", stats.percentile(v, 99) * 1e6)
            for k, v in plain.latency.items())
        runs, extra = (plain, marked), {"late": late,
                                        "untraced": untraced_e2e}

    for part in runs:
        report["attempted"] += part.attempted
        report["failed"] += part.failed
    all_spans = tracer.spans
    roots = [s for s in all_spans if s[1] == 0 and s[2].startswith("bench.")]
    if not roots:  # the daemon: its control loop is the root
        roots = [s for s in all_spans if s[2] == "serve.control"]
    selfs = sp.self_times(all_spans)
    wall = sum(r[5] - r[4] for r in roots)
    report["metrics"] = perlayer.compute(
        all_spans, selfs, roots, tracer.counters, max(rounds, 1),
        overhead_frac=overhead, **extra)
    report["table"].append(
        sp.layer_table(sp.self_by_name(all_spans, selfs), wall))
    sp.write_chrome_trace(trace_file, tracer)
    report["table"].append(f"  spans: {len(all_spans)} -> {trace_file}")
    return report


# --------------------------------------------------------------------------
# Entry point
# --------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--section", choices=WORKLOADS, help=argparse.SUPPRESS)
    parser.add_argument("--probe-every", type=float, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    OUT.mkdir(exist_ok=True)
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_sample(args.workload, t0)}))
        return 0
    if args.section:
        probes = SetupProbes(args.workload, args.probe_every)
        print(json.dumps(section(args.section, args.seed, args.seconds,
                                 probes)))
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    try:
        if args.trace:
            report = traced(args.workload, args.seed, args.seconds)
            units = perlayer.UNITS
        else:
            report = untraced(args.workload, args.seed, args.seconds)
            units = END_TO_END
    except Exception:  # noqa: BLE001 - the run failed; say why, print no result
        traceback.print_exc()
        return 1

    print(f"workload {args.workload} seed {args.seed} "
          f"trace {args.trace} wall {time.perf_counter() - t0:.1f}s")
    for line in report["table"]:
        print(line)
    for name, unit in units.items():
        print(f"  {name:<26} {report['metrics'][name]:>14.6g} {unit}")
    result = {
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": report["metrics"][name], "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
