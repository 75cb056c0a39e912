"""Tests for repro.utils.stats."""

import math

import pytest

from repro.utils.stats import (
    LatencyAccumulator,
    RunningMean,
    log_binomial,
    log_sum_binomials,
    percentiles,
)


def test_log_binomial_matches_math_comb():
    assert abs(log_binomial(10, 3) - math.log(math.comb(10, 3))) < 1e-9
    assert abs(log_binomial(50, 25) - math.log(math.comb(50, 25))) < 1e-6


def test_log_binomial_out_of_range_is_minus_infinity():
    assert log_binomial(5, 7) == float("-inf")
    assert log_binomial(5, -1) == float("-inf")


def test_log_sum_binomials_matches_direct_sum():
    direct = sum(math.comb(20, i) for i in range(1, 4))
    assert abs(log_sum_binomials(20, 3) - math.log(direct)) < 1e-9


def test_running_mean_matches_batch_statistics():
    values = [1.0, 2.0, 3.0, 4.0, 10.0]
    running = RunningMean()
    for value in values:
        running.add(value)
    assert abs(running.mean - sum(values) / len(values)) < 1e-12
    mean = sum(values) / len(values)
    expected_variance = sum((v - mean) ** 2 for v in values) / (len(values) - 1)
    assert abs(running.variance - expected_variance) < 1e-12
    assert running.std == pytest.approx(expected_variance**0.5)


def test_percentiles_match_numpy_linear_interpolation():
    np = pytest.importorskip("numpy")
    values = [5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0]
    qs = [0.0, 25.0, 50.0, 95.0, 99.0, 100.0]
    expected = np.percentile(values, qs)
    computed = percentiles(values, qs)
    for got, want in zip(computed, expected):
        assert got == pytest.approx(float(want))


def test_percentiles_reject_empty_and_out_of_range():
    with pytest.raises(ValueError):
        percentiles([], [50.0])
    with pytest.raises(ValueError):
        percentiles([1.0], [101.0])


def test_latency_accumulator_summary_and_merge():
    accumulator = LatencyAccumulator(label="svc")
    for value in [0.010, 0.020, 0.030, 0.040]:
        accumulator.add(value)
    summary = accumulator.summary()
    assert summary["label"] == "svc"
    assert summary["count"] == 4
    assert summary["mean"] == pytest.approx(0.025)
    assert summary["p50"] == pytest.approx(0.025)
    assert summary["min"] == 0.010 and summary["max"] == 0.040
    assert accumulator.total == pytest.approx(0.100)


def test_latency_accumulator_empty_summary_is_zeroed():
    summary = LatencyAccumulator().summary()
    assert summary["count"] == 0
    assert summary["p99"] == 0.0 and summary["mean"] == 0.0


def test_latency_accumulator_reservoir_bounds_memory():
    accumulator = LatencyAccumulator(max_samples=16)
    for i in range(1000):
        accumulator.add(float(i))
    assert accumulator.count == 1000
    assert len(accumulator._samples) == 16  # reservoir never exceeds the cap
    summary = accumulator.summary()
    assert summary["min"] == 0.0 and summary["max"] == 999.0  # exact despite sampling
    assert summary["mean"] == pytest.approx(499.5)
    assert 0.0 <= summary["p50"] <= 999.0
