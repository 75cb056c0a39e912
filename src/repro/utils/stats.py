"""Log-binomial terms of the sample budgets, and running latency statistics.

The sample-size expressions of the paper (Lemma 2, Lemma 3, Eqn. 2 and Eqn. 7)
follow from the Chernoff bounds of Appendix B.2; the samplers evaluate them as
closed forms whose only non-elementary terms are the ``log C(n, k)`` sums
below.  The running statistics back the serving and benchmark latency
accounting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, List, Sequence

from repro.utils.rng import RandomSource


def log_binomial(n: int, k: int) -> float:
    """Natural logarithm of the binomial coefficient ``C(n, k)``.

    Computed through ``lgamma`` so the sample-size formulas stay finite even
    for the very large ``C(|Omega|, k)`` terms appearing in Eqn. 2 / Eqn. 7.
    """
    if k < 0 or k > n:
        return float("-inf")
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)


def log_sum_binomials(n: int, max_k: int) -> float:
    """``log(sum_{i=1..max_k} C(n, i))`` computed stably (phi_K in Eqn. 7)."""
    if max_k <= 0:
        return float("-inf")
    max_k = min(max_k, n)
    logs = [log_binomial(n, i) for i in range(1, max_k + 1)]
    peak = max(logs)
    return peak + math.log(sum(math.exp(value - peak) for value in logs))


def percentiles(values: Iterable[float], qs: Sequence[float]) -> List[float]:
    """Linear-interpolation percentiles of ``values`` at each ``q`` in [0, 100].

    The same convention as ``numpy.percentile(..., method="linear")``, kept in
    pure Python so latency accounting does not allocate arrays per snapshot.
    Raises on an empty input -- a latency table with no observations is a bug,
    not a zero.
    """
    data = sorted(float(v) for v in values)
    if not data:
        raise ValueError("percentiles() requires at least one value")
    results: List[float] = []
    for q in qs:
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile rank must lie in [0, 100], got {q}")
        position = (len(data) - 1) * q / 100.0
        lower = math.floor(position)
        upper = math.ceil(position)
        if lower == upper:
            results.append(data[int(position)])
        else:
            fraction = position - lower
            results.append(data[lower] * (1.0 - fraction) + data[upper] * fraction)
    return results


LATENCY_PERCENTILES = (50.0, 95.0, 99.0)


@dataclass
class RunningMean:
    """Streaming mean / variance via Welford's algorithm.

    Holds the exact moments behind :class:`LatencyAccumulator` without
    storing every observation.
    """

    count: int = 0
    mean: float = 0.0
    _m2: float = 0.0

    def add(self, value: float) -> None:
        """Incorporate one observation."""
        self.count += 1
        delta = value - self.mean
        self.mean += delta / self.count
        self._m2 += delta * (value - self.mean)

    @property
    def variance(self) -> float:
        """Sample variance (0.0 with fewer than two observations)."""
        if self.count < 2:
            return 0.0
        return self._m2 / (self.count - 1)

    @property
    def std(self) -> float:
        """Sample standard deviation."""
        return math.sqrt(self.variance)


@dataclass
class LatencyAccumulator:
    """Streaming latency statistics: mean/std plus tail percentiles.

    The accumulator keeps a Welford :class:`RunningMean` for the exact
    moments, exact min/max, and a bounded reservoir (Vitter's Algorithm R,
    seeded so runs are reproducible) of at most ``max_samples`` observations
    for the percentile snapshot -- memory stays O(``max_samples``) no matter
    how long a service lives, and percentiles are exact until the reservoir
    first overflows.  One instance serves both the serving-layer
    instrumentation (:mod:`repro.serve.service`) and the benchmark reporting
    helpers (:mod:`repro.bench.reporting`).  Not thread-safe by itself;
    concurrent writers must hold their own lock (the service does).
    """

    label: str = "latency"
    max_samples: int = 65536
    _samples: List[float] = field(default_factory=list)
    _running: RunningMean = field(default_factory=RunningMean)
    _min: float = float("inf")
    _max: float = float("-inf")
    # Reservoir replacement draws are instrumentation-only randomness (they
    # shape the percentile snapshot past the cap, never a query answer), but
    # they still flow through RandomSource so the whole library has a single
    # seeded RNG idiom -- and runs stay reproducible bit-for-bit.
    _reservoir_rng: RandomSource = field(default_factory=lambda: RandomSource(0x51A75), repr=False)

    def add(self, seconds: float) -> None:
        """Record one latency observation (in seconds)."""
        value = float(seconds)
        self._running.add(value)
        self._min = min(self._min, value)
        self._max = max(self._max, value)
        if len(self._samples) < self.max_samples:
            self._samples.append(value)
        else:
            slot = self._reservoir_rng.integer(0, self._running.count)
            if slot < self.max_samples:
                self._samples[slot] = value

    @property
    def count(self) -> int:
        """Number of recorded observations."""
        return self._running.count

    @property
    def mean(self) -> float:
        """Mean latency (0.0 when empty)."""
        return self._running.mean

    @property
    def total(self) -> float:
        """Sum of all recorded latencies."""
        return self._running.mean * self._running.count

    def percentile(self, q: float) -> float:
        """One percentile of the recorded latencies."""
        return percentiles(self._samples, [q])[0]

    def summary(self) -> dict:
        """Snapshot dict: count, mean, std, p50/p95/p99, min/max (seconds)."""
        if not self._samples:
            return {
                "label": self.label,
                "count": 0,
                "mean": 0.0,
                "std": 0.0,
                **{f"p{int(q)}": 0.0 for q in LATENCY_PERCENTILES},
                "min": 0.0,
                "max": 0.0,
            }
        tail = percentiles(self._samples, LATENCY_PERCENTILES)
        return {
            "label": self.label,
            "count": self.count,
            "mean": self.mean,
            "std": self._running.std,
            **{f"p{int(q)}": value for q, value in zip(LATENCY_PERCENTILES, tail)},
            "min": self._min,
            "max": self._max,
        }
