"""Differential protocol fuzzing (ROADMAP item 5).

The paper's claim is that compiled protocol code behaves identically no
matter how it is executed; this package is the machine that tries to
falsify that, continuously, across every execution mode the runtime grows:

* :mod:`repro.fuzz.gen` — seeded random generator of well-formed connector
  DSL programs (library stages glued into pipelines);
* :mod:`repro.fuzz.sim` — reference simulator; random-walks a program into
  a *deterministic* operation script (uniquely-enabled steps only) plus a
  seeded perturbation schedule (mid-run checkpoint/restore, flood
  injections under shed policies);
* :mod:`repro.fuzz.harness` — runs one script under every mode: one global
  region vs partitioned regions × JIT vs AOT composition, plus the
  channels model for pure-FIFO programs, and checks every received value
  against the reference simulator's;
* :mod:`repro.fuzz.oracle` — normalizes traces (per-port streams ordered
  by the per-region sequence ``rseq``), residual buffers, shed counts and
  the metrics conservation law, and diffs modes with zero tolerance;
* :mod:`repro.fuzz.chaos` — threaded parties with seeded fault plans
  (crash-then-recover, floods) under order-insensitive oracles, covering
  the racy schedules the deterministic harness deliberately excludes;
* :mod:`repro.fuzz.shrink` — delta-debugging minimizer and self-contained
  JSON replay files (``tests/fuzz/corpus/``);
* :mod:`repro.fuzz.inject` — intentional scheduler bugs proving the oracle
  catches what it claims to catch;
* :mod:`repro.fuzz.cli` — the ``python -m repro fuzz`` surface.

docs/INTERNALS.md §10 documents the grammar, the normalization contract,
the shrink algorithm, and how to add a new execution mode to the matrix.
"""

from repro.fuzz.gen import FuzzProgram, build_program, from_library, generate
from repro.fuzz.harness import MODES, run_all, run_connector_mode
from repro.fuzz.oracle import RunResult, compare
from repro.fuzz.shrink import (
    from_replay,
    load_replay,
    save_replay,
    shrink,
    to_replay,
)
from repro.fuzz.sim import (
    Batch,
    RefSim,
    Schedule,
    Script,
    SimOp,
    build_script,
    make_schedule,
    revalidate,
)

__all__ = [
    "Batch",
    "FuzzProgram",
    "MODES",
    "RefSim",
    "RunResult",
    "Schedule",
    "Script",
    "SimOp",
    "build_program",
    "build_script",
    "compare",
    "from_library",
    "from_replay",
    "generate",
    "load_replay",
    "make_schedule",
    "revalidate",
    "run_all",
    "run_connector_mode",
    "save_replay",
    "shrink",
    "to_replay",
]
