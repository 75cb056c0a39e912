"""Process-wide registry of named counters and gauges with exact merging.

One :class:`Telemetry` instance per process collects every named counter the
library increments -- engine cache hits, store load-or-build outcomes,
engine freezes, per-method query work (``query.<method>.*`` edge visits and
sample counts, which ``pitex query --json`` reports), worker deaths.  The
active instance is a module global reachable through :func:`get_telemetry` /
the :func:`counter` and :func:`gauge` conveniences, so instrumentation
points need no plumbing; worker processes
(:mod:`repro.serve.sharded`) :func:`install` a **fresh** instance right after
fork -- a forked child inherits the parent's counts, and shipping those back
in the shutdown shard would double-count them.

Merge semantics are the whole point: counters merge by **sum** and gauges by
**max**, so folding worker shards into a parent snapshot is commutative,
associative and lossless -- any arrival order of shards yields the same
totals, which is what lets the thread and process backends produce comparable
snapshots (:meth:`ServiceMetrics.telemetry`).

Determinism contract: counters under :data:`DETERMINISTIC_PREFIXES` describe
seeded work and must be bitwise-equal across backends for the same workload
(:func:`deterministic_counters` extracts that comparable subset); everything
else -- per-replica store loads, worker lifecycle -- may legitimately differ.

Thread-safety: every method takes the instance lock; increments are atomic.
"""

from __future__ import annotations

import threading
from typing import Dict, Mapping, Optional

# Counter prefixes whose values are deterministic functions of a seeded
# workload: equal across thread/process backends, worker counts and arrival
# orders.  Wall-clock durations are deliberately *not* counters, so nothing
# here can smuggle timing into the comparable subset.  answer_cache.* earns
# its seat through single-flight miss accounting plus per-user request
# sharding (see repro.serve.answers); scheduling-dependent wait counts stay
# out of telemetry entirely.
DETERMINISTIC_PREFIXES = ("query.", "estimator.", "engine_cache.", "answer_cache.")


class Telemetry:
    """A named-counter/gauge registry with commutative, lossless merging."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, int] = {}
        self._gauges: Dict[str, float] = {}

    # ---------------------------------------------------------------- write
    def counter(self, name: str, amount: int = 1) -> int:
        """Add ``amount`` to counter ``name`` (creating it); returns the total."""
        with self._lock:
            value = self._counters.get(name, 0) + int(amount)
            self._counters[name] = value
            return value

    def gauge(self, name: str, value: float) -> float:
        """Set gauge ``name``; returns the stored value.

        Gauges merge by max (see :meth:`merge`), so treat them as high-water
        marks when they must survive a cross-process merge.
        """
        with self._lock:
            stored = float(value)
            self._gauges[name] = stored
            return stored

    # ----------------------------------------------------------------- read
    def counters(self) -> Dict[str, int]:
        """A point-in-time copy of every counter."""
        with self._lock:
            return dict(self._counters)

    def gauges(self) -> Dict[str, float]:
        """A point-in-time copy of every gauge."""
        with self._lock:
            return dict(self._gauges)

    def snapshot(self) -> dict:
        """A picklable/JSON-friendly ``{"counters": ..., "gauges": ...}``.

        This is the shard shape worker processes ship over the shutdown pipe
        and :meth:`merge` consumes.
        """
        with self._lock:
            return {"counters": dict(self._counters), "gauges": dict(self._gauges)}

    # ---------------------------------------------------------------- merge
    def merge(self, snapshot: Mapping) -> None:
        """Fold another registry's :meth:`snapshot` in: sum counters, max gauges.

        Sum and max are both commutative and associative, so shards merge to
        the same totals in any arrival order, and no shard's contribution can
        be lost or double-counted by reordering.
        """
        counters = snapshot.get("counters", {})
        gauges = snapshot.get("gauges", {})
        with self._lock:
            for name, value in counters.items():
                self._counters[name] = self._counters.get(name, 0) + int(value)
            for name, value in gauges.items():
                current = self._gauges.get(name)
                self._gauges[name] = (
                    float(value) if current is None else max(current, float(value))
                )

    def reset(self) -> None:
        """Drop every counter and gauge (test isolation helper)."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()


def merge_snapshots(*snapshots: Mapping) -> dict:
    """Merge any number of :meth:`Telemetry.snapshot` dicts into one.

    Pure function over the shard dicts (order-insensitive by the sum/max
    semantics of :meth:`Telemetry.merge`); used by report assembly and the
    merge-semantics tests.
    """
    merged = Telemetry()
    for snapshot in snapshots:
        merged.merge(snapshot)
    return merged.snapshot()


def deterministic_counters(counters: Mapping[str, int]) -> Dict[str, int]:
    """The backend-comparable subset of ``counters``, sorted by name.

    Filters to :data:`DETERMINISTIC_PREFIXES` -- the counters that must be
    exactly equal between the thread and process backends for the same seeded
    workload.  CI and ``bench_serving`` compare these dicts directly.
    """
    return {
        name: counters[name]
        for name in sorted(counters)
        if name.startswith(DETERMINISTIC_PREFIXES)
    }


# ------------------------------------------------------------ active registry
_install_lock = threading.Lock()
_active = Telemetry()


def get_telemetry() -> Telemetry:
    """The process's active registry (instrumentation points write here)."""
    return _active


def install(telemetry: Optional[Telemetry] = None) -> Telemetry:
    """Swap the active registry; returns the previous one.

    ``None`` installs a fresh empty registry.  Worker processes call this
    immediately after fork so the shard they ship at shutdown contains only
    their own work, and tests use the returned previous instance to restore
    global state.
    """
    global _active
    with _install_lock:
        previous = _active
        _active = telemetry if telemetry is not None else Telemetry()
        return previous


def counter(name: str, amount: int = 1) -> int:
    """Increment ``name`` on the active registry; returns the new total."""
    return _active.counter(name, amount)


def gauge(name: str, value: float) -> float:
    """Set gauge ``name`` on the active registry; returns the stored value."""
    return _active.gauge(name, value)
