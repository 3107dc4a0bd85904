"""The ``npb-cg`` section: NPB CG class S on 4 slaves, Reo against the
hand-synchronised original, run as interleaved pairs in one process.

Interleaving is what makes ``reo_over_original`` steady on a shared host:
both sides of a pair see the same machine, so drift cancels in the median
of the per-pair ratios even when absolute seconds swing between phases.  The seed
only decides which side of each pair runs first; the CG matrix keeps its
canonical NPB seed so ``BenchResult.verified`` stays meaningful.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field

import stats

CLASS, NPROCS = "S", 4


def setup() -> None:
    """What a fresh process does before its first solve: import, build the
    matrix, compute the serial oracle, compile both connectors."""
    from repro.connectors import library
    from repro.npb import cg

    cg.make_matrix(CLASS)
    cg.oracle(CLASS)
    library.connector("Replicator", NPROCS)
    library.connector("EarlyAsyncMerger", NPROCS)


@dataclass
class Pairs:
    reo_s: list = field(default_factory=list)
    original_s: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0

    def metrics(self) -> dict:
        return {
            "solve_s": stats.median(self.reo_s),
            "original_s": stats.median(self.original_s),
            "reo_over_original": stats.median_of_ratios(self.reo_s,
                                                        self.original_s),
        }


def run_pairs(rng: random.Random, deadline: float, min_pairs: int,
              pairs: Pairs, wrap=None, between=None) -> Pairs:
    """Run reo/original pairs until ``deadline`` (at least ``min_pairs``).
    ``wrap(name, fn)`` runs one solve (the traced run puts a root span
    around it); ``rng`` picks which side of each pair goes first;
    ``between()``, if given, runs after every pair."""
    from repro.npb import cg

    done = 0
    while done < min_pairs or time.perf_counter() < deadline:
        sides = [("reo", cg.run_reo), ("original", cg.run_original)]
        if rng.random() < 0.5:
            sides.reverse()
        for side, fn in sides:
            if wrap is None:
                result = fn(CLASS, NPROCS)
            else:
                result = wrap(side, lambda: fn(CLASS, NPROCS))
            pairs.attempted += 1
            if not result.verified:
                pairs.failed += 1
            (pairs.reo_s if side == "reo" else pairs.original_s).append(
                result.seconds)
        done += 1
        if between is not None:
            between()
    return pairs

