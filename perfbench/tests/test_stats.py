import statistics

import pytest

import stats


def test_percentile_interpolates_between_ranks():
    xs = [10, 20, 30, 40, 50]
    assert stats.percentile(xs, 0) == 10
    assert stats.percentile(xs, 50) == 30
    assert stats.percentile(xs, 100) == 50
    assert stats.percentile(xs, 90) == pytest.approx(46.0)
    assert stats.percentile(list(reversed(xs)), 25) == 20


@pytest.mark.parametrize("n, pct", [
    (100_000, 99.99),  # exactly 10 samples beyond p99.99
    (99_999, 99.9),
    (10_000, 99.9),
    (1_000, 99.0),
    (999, 95.0),       # p99 would leave 9.99 beyond it
    (200, 95.0),
    (100, 90.0),
    (40, 75.0),
    (20, 50.0),
])
def test_tail_rule_picks_highest_percentile_with_ten_beyond(n, pct):
    xs = list(range(n))
    got_pct, value, count = stats.tail(xs)
    assert (got_pct, count) == (pct, n)
    assert value == stats.percentile(xs, pct)
    assert round(n * (100 - got_pct) / 100, 6) >= stats.TAIL_MIN_BEYOND


def test_tail_rule_reports_nothing_below_twenty_samples():
    assert stats.tail(list(range(19))) == (None, None, 19)
    assert stats.tail([]) == (None, None, 0)


def test_open_loop_latency_is_timed_from_due_time():
    # Request 1 was due at t=1 but a stall held every send until t=2.5:
    # its latency counts the wait, not just the 0.5 s after sending.
    due = [0.0, 1.0, 2.0]
    done = [0.25, 3.0, 3.25]
    assert stats.open_loop_latencies(due, done) == [0.25, 2.0, 1.25]


def test_open_loop_latency_needs_one_completion_per_request():
    with pytest.raises(ValueError):
        stats.open_loop_latencies([0.0, 1.0], [0.5])


def test_paired_ratio_survives_a_phase_flip():
    # The host runs fast (1x) for some pairs and slow (2x) for others;
    # the reo side is 2.5x the original inside every pair.
    speed = [1, 1, 1, 2, 2, 1, 2, 2, 2]
    original = [0.05 * k for k in speed]
    reo = [0.125 * k for k in speed]
    assert stats.median_of_ratios(reo, original) == pytest.approx(2.5)


def test_paired_ratio_differs_from_ratio_of_medians_across_phases():
    # Medians taken side by side can land in different phases: here the
    # reo median is a slow-phase solve, the original median a fast one.
    reo = [0.15, 0.29, 0.30, 0.31, 0.32]
    original = [0.05, 0.055, 0.06, 0.11, 0.12]
    side_by_side = statistics.median(reo) / statistics.median(original)
    assert side_by_side == pytest.approx(5.0)
    assert stats.median_of_ratios(reo, original) == pytest.approx(
        statistics.median([3.0, 0.29 / 0.055, 5.0, 0.31 / 0.11, 0.32 / 0.12]))


def test_paired_ratio_needs_pairs():
    with pytest.raises(ValueError):
        stats.median_of_ratios([1.0, 2.0], [1.0])
