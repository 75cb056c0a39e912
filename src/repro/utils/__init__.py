"""Shared utilities used across the PITEX reproduction.

The utilities are intentionally small and dependency free (only ``numpy``).
Durations are read from :func:`repro.obs.clock.monotonic` and work is counted
in the :mod:`repro.obs.telemetry` registry; neither lives here.

* :mod:`repro.utils.rng` -- deterministic random number management.
* :mod:`repro.utils.heap` -- indexed and plain binary heaps used by the lazy
  propagation sampler and best-effort exploration.
* :mod:`repro.utils.stats` -- the ``log_binomial`` terms from which the
  samplers' budgets are computed in closed form, running statistics and the
  latency accumulator behind the serving metrics.
* :mod:`repro.utils.validation` -- argument checking helpers shared by public
  API entry points.
* :mod:`repro.utils.memo` -- the batch fill of the query-local row memos.
"""

from repro.utils.rng import RandomSource, spawn_rng
from repro.utils.heap import BatchedEventQueue, MinHeap, MaxHeap, LazyEdgeHeap
from repro.utils.stats import (
    LatencyAccumulator,
    RunningMean,
    percentiles,
)
from repro.utils.validation import (
    ensure_positive_int,
    ensure_probability,
    ensure_in_range,
    ensure_non_empty,
)

__all__ = [
    "RandomSource",
    "spawn_rng",
    "MinHeap",
    "MaxHeap",
    "LazyEdgeHeap",
    "BatchedEventQueue",
    "LatencyAccumulator",
    "RunningMean",
    "percentiles",
    "ensure_positive_int",
    "ensure_probability",
    "ensure_in_range",
    "ensure_non_empty",
]
