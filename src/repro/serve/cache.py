"""Warm engine cache: LRU over (dataset, params) keys.

Building a :class:`~repro.core.engine.PitexEngine` is cheap, but the engine's
*warmth* is not: its offline indexes and the freeze-time per-user tables
(:mod:`repro.index.tables`) are built once and then serve every query.  The
serving layer therefore keeps engines alive between requests in a small LRU
keyed by whatever identifies an engine configuration to the caller (the CLI
and the service use ``(dataset, scale, epsilon, delta, k, method knobs...)``
tuples).

Every cache hit is re-validated against the engine's graph ``version``: if the
graph mutated after the engine was cached, its indexes and tables describe a
stale snapshot, so the entry is dropped and rebuilt instead of served.
All operations are thread-safe; ``get_or_create`` serializes factory calls for
the *same* key so concurrent requests cannot build one engine twice, while
different keys build in parallel.

By default ``get_or_create`` also **freezes** every factory-built engine
before inserting it (:meth:`PitexEngine.freeze`): a cached engine is by
definition shared across requests, so its indexes and tables are built up
front and its graph is guarded against mutation while it serves.  Pass
``freeze=False`` to cache engines that build lazily on first use, or
``freeze_methods`` to warm only the methods a deployment actually serves.
``put`` never freezes -- callers inserting an engine directly keep full
control over its lifecycle.

The cache is **process-local** by design: warm engines hold live numpy
arrays and locks, so nothing here is shared across processes.  Replicas in
other processes warm themselves from the :class:`~repro.serve.store.IndexStore`
instead (see :mod:`repro.serve.sharded`), which is the cross-process
equivalent of a cache hit.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Hashable, List, Optional, Sequence

from repro.core.engine import METHODS, PitexEngine
from repro.exceptions import InvalidParameterError
from repro.obs.telemetry import counter


@dataclass
class EngineCacheStats:
    """Counters describing cache behaviour since construction.

    Every increment is mirrored into the process-wide telemetry registry
    under ``engine_cache.*`` so service snapshots expose the same numbers
    without holding a cache reference.
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    invalidations: int = 0
    single_flight_waits: int = 0

    def as_dict(self) -> dict:
        """Plain-dict snapshot (JSON friendly)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
            "single_flight_waits": self.single_flight_waits,
        }


@dataclass
class _Entry:
    engine: PitexEngine
    graph_version: int


@dataclass
class _Gate:
    """Single-flight gate: one build lock plus a waiter refcount.

    The refcount lets the *last* leaving thread remove the gate from the
    pending table, so a waiter blocked on the lock can never be orphaned onto
    a gate a newcomer no longer sees (which would allow two concurrent
    factory runs after a failed build).
    """

    lock: threading.Lock = field(default_factory=threading.Lock)
    refs: int = 0


class EngineCache:
    """A thread-safe LRU cache of warm :class:`PitexEngine` instances.

    Parameters
    ----------
    capacity:
        Maximum number of cached engines (LRU eviction beyond it).
    freeze:
        Freeze factory-built engines before caching them (default), so their
        indexes and tables are built before the first request.
    freeze_methods:
        Methods passed to :meth:`PitexEngine.freeze` on insert; ``None``
        warms every method.
    """

    def __init__(
        self,
        capacity: int = 8,
        freeze: bool = True,
        freeze_methods: Optional[Sequence[str]] = None,
    ) -> None:
        if capacity <= 0:
            raise InvalidParameterError(f"capacity must be positive, got {capacity}")
        if freeze_methods is not None:
            # Fail fast: a typo here would otherwise surface only after every
            # expensive factory build, and be re-paid on every retry.
            unknown = [m for m in freeze_methods if m.lower() not in METHODS]
            if unknown:
                raise InvalidParameterError(
                    f"unknown freeze_methods {unknown!r}; choose from {METHODS}"
                )
        self.capacity = int(capacity)
        self.freeze = bool(freeze)
        self.freeze_methods = tuple(freeze_methods) if freeze_methods is not None else None
        self.stats = EngineCacheStats()
        self._lock = threading.Lock()
        self._entries: "OrderedDict[Hashable, _Entry]" = OrderedDict()
        self._pending: dict = {}

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def keys(self) -> List[Hashable]:
        """Cached keys, least-recently used first."""
        with self._lock:
            return list(self._entries)

    # ------------------------------------------------------------------ core
    def get(self, key: Hashable) -> Optional[PitexEngine]:
        """The cached engine for ``key`` (refreshing recency), or ``None``.

        A stale entry -- one whose graph mutated after caching -- is evicted
        and reported as a miss.
        """
        return self._lookup(key, record=True)

    def _lookup(self, key: Hashable, record: bool) -> Optional[PitexEngine]:
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                if record:
                    self.stats.misses += 1
                    counter("engine_cache.miss")
                return None
            if entry.engine.graph.version != entry.graph_version:
                del self._entries[key]
                self.stats.invalidations += 1
                counter("engine_cache.invalidation")
                if record:
                    self.stats.misses += 1
                    counter("engine_cache.miss")
                return None
            self._entries.move_to_end(key)
            if record:
                self.stats.hits += 1
                counter("engine_cache.hit")
            return entry.engine

    def put(self, key: Hashable, engine: PitexEngine) -> None:
        """Insert (or replace) an engine, evicting the LRU entry if full.

        A same-key replace never grows the cache, so it skips the
        over-capacity eviction pass entirely: replacing a resident entry must
        not evict (or count as evicting) the key's LRU neighbor.
        """
        with self._lock:
            replaced = key in self._entries
            self._entries[key] = _Entry(engine=engine, graph_version=engine.graph.version)
            self._entries.move_to_end(key)
            if replaced:
                return
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.stats.evictions += 1
                counter("engine_cache.eviction")

    def get_or_create(self, key: Hashable, factory: Callable[[], PitexEngine]) -> PitexEngine:
        """The cached engine for ``key``, building it with ``factory`` on a miss.

        Concurrent misses on the same key run ``factory`` once: the first
        caller builds under a per-key lock while the rest wait and then hit.
        When the cache was constructed with ``freeze=True`` (the default) the
        built engine is frozen -- still under the single-flight gate, so the
        warm-up work happens exactly once too -- before it becomes visible to
        other callers.
        """
        engine = self.get(key)
        if engine is not None:
            return engine
        with self._lock:
            gate = self._pending.get(key)
            if gate is None:
                gate = _Gate()
                self._pending[key] = gate
            else:
                # A build for this key is already in flight; we are about to
                # block on its gate instead of running the factory ourselves.
                self.stats.single_flight_waits += 1
                counter("engine_cache.single_flight_wait")
            gate.refs += 1
        try:
            with gate.lock:
                # Double-check: another thread may have built while we waited.
                engine = self._lookup(key, record=False)
                if engine is not None:
                    return engine
                engine = factory()
                if self.freeze and not engine.is_frozen:
                    engine.freeze(self.freeze_methods)
                self.put(key, engine)
                return engine
        finally:
            # The last thread through removes the gate -- also after a
            # double-check hit or a factory failure -- so _pending cannot
            # grow one gate per key forever.
            with self._lock:
                gate.refs -= 1
                if gate.refs == 0 and self._pending.get(key) is gate:
                    self._pending.pop(key)

    def invalidate(self, key: Hashable) -> bool:
        """Drop one entry; returns whether it existed."""
        with self._lock:
            if key in self._entries:
                del self._entries[key]
                self.stats.invalidations += 1
                counter("engine_cache.invalidation")
                return True
            return False

    def clear(self) -> None:
        """Drop every entry, counting each as an invalidation (stats are kept).

        ``clear`` is a bulk :meth:`invalidate`, so snapshots must account for
        the dropped entries the same way -- silently clearing would
        under-report drops in ``stats.invalidations`` and the mirrored
        ``engine_cache.invalidation`` telemetry.
        """
        with self._lock:
            dropped = len(self._entries)
            self._entries.clear()
            if dropped:
                self.stats.invalidations += dropped
                counter("engine_cache.invalidation", dropped)
