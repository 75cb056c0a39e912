"""Deterministic-safe observability: counters, gauges, traces and clocks.

The serving layer's only window used to be a latency table; this package adds
the three primitives every upcoming serving feature (memoization hit rates,
incremental index maintenance, SLO gates) needs to gate on:

* :mod:`repro.obs.telemetry` -- a process-wide :class:`Telemetry` registry of
  named counters and gauges with commutative, lossless cross-process merge
  semantics (counters sum, gauges keep the max).
* :mod:`repro.obs.trace` -- structured per-query trace spans
  (:func:`trace_span`) collected by an optional :class:`TraceRecorder` and
  emitted as JSON Lines (``pitex serve-replay --trace trace.jsonl``).
* :mod:`repro.obs.clock` -- the **single sanctioned home** for wall-clock
  reads (:func:`wall_clock`) and the monotonic :class:`Clock` behind span
  durations; pitexlint's DET004/OBS001 rules allowlist exactly this module.

Determinism contract (asserted by tests, benchmarks and CI): counters that
describe *work* -- cache hits, edge visits, sample counts -- are
deterministic functions of a seeded workload, so the thread and process
backends must report **exactly equal** values for them
(:func:`deterministic_counters`); wall-clock durations are the only fields
allowed to differ.  See ``docs/observability.md``.
"""

from repro.obs.clock import Clock, monotonic, wall_clock
from repro.obs.telemetry import (
    DETERMINISTIC_PREFIXES,
    Telemetry,
    counter,
    deterministic_counters,
    gauge,
    get_telemetry,
    install,
)
from repro.obs.trace import (
    TraceRecorder,
    get_recorder,
    install_recorder,
    trace_span,
    tracing_enabled,
)

__all__ = [
    "Clock",
    "monotonic",
    "wall_clock",
    "DETERMINISTIC_PREFIXES",
    "Telemetry",
    "counter",
    "deterministic_counters",
    "gauge",
    "get_telemetry",
    "install",
    "TraceRecorder",
    "get_recorder",
    "install_recorder",
    "trace_span",
    "tracing_enabled",
]
