"""The benchmark's arithmetic: the tail-percentile rule, open-loop latency
and the paired ratio.

Pure functions over lists of numbers, so ``perfbench/tests`` can pin every
rule the reported metrics rest on.
"""

from __future__ import annotations

import math
import statistics

#: Percentiles the tail rule may report, highest first.
TAIL_LADDER = (99.99, 99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

#: A percentile is reported only if at least this many samples lie beyond it.
TAIL_MIN_BEYOND = 10


median = statistics.median


def percentile(values, pct: float) -> float:
    """The ``pct``-th percentile by linear interpolation between closest
    ranks (numpy's default); ``values`` need not be sorted."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no samples")
    pos = (len(xs) - 1) * pct / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail(values) -> tuple[float | None, float | None, int]:
    """The tail rule: ``(pct, value, n)`` for the highest percentile of
    :data:`TAIL_LADDER` with at least :data:`TAIL_MIN_BEYOND` samples
    beyond it, together with the sample count.  ``pct`` and ``value`` are
    ``None`` when even the median has too few samples beyond it."""
    n = len(values)
    for pct in TAIL_LADDER:
        # Rounded: 100 - 99.9 is not exactly 0.1 in binary floating point.
        if round(n * (100.0 - pct) / 100.0, 6) >= TAIL_MIN_BEYOND:
            return pct, percentile(values, pct), n
    return None, None, n


def median_of_ratios(numerators, denominators) -> float:
    """Median of the pairwise ratios ``numerators[i] / denominators[i]``.

    For interleaved pairs this is the robust ratio: both members of a pair
    ran back to back, in the same host phase.  When the host flips between
    a fast and a slow phase, the two sides' medians can land in different
    phases and the ratio of the two medians jumps (measured: one run gave
    4.26 where the others gave 2.3-2.5)."""
    if len(numerators) != len(denominators):
        raise ValueError("one denominator per numerator")
    return median(n / d for n, d in zip(numerators, denominators))


def open_loop_latencies(due, done) -> list[float]:
    """Per-request latency of an open-loop run, timed from each request's
    *due* time (not its send time), so a stall that delays later sends is
    charged to every request it delayed."""
    if len(due) != len(done):
        raise ValueError("one completion time per due time")
    return [d - s for s, d in zip(due, done)]
