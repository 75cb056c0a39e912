"""The serving layer's one cache primitive, and the warm engine cache on it.

:class:`SingleFlightLRU` is a thread-safe LRU whose misses compute once per
key: concurrent misses on one key run the compute once while the rest wait
on the key's gate.  It owns the lock, the ordered map, the gate table, the
:class:`CacheStats` counters and their telemetry mirror, and one accounting
rule: the caller that runs the compute records the single miss; every caller
that finds the value records a hit, waiters included; waits go to
``stats.single_flight_waits`` only, never to telemetry, because they depend
on thread scheduling.  So U unique keys over N lookups record U misses and
N - U hits however the threads interleave (while nothing is evicted).

Subclasses are *policies*: they override ``_entry``, ``_superseded`` and
``_admit``, and every hook that touches cache state runs under the LRU's
lock.  :class:`~repro.serve.answers.AnswerCache` is the epoch policy;
:class:`EngineCache` below keeps warm :class:`~repro.core.engine.PitexEngine`
instances keyed by engine configuration.  An engine is cheap to build, but
its offline indexes and freeze-time per-user tables are not.  Each lookup
compares the engine's pinned graph version (``engine.graph.version``) with
its source graph's current one: an engine whose source graph took a write
is dropped (an invalidation) and rebuilt, while requests already running on
it finish on the version they started on.
``get_or_create`` freezes every factory-built engine inside the gate
(:meth:`PitexEngine.freeze`; opt out with ``freeze=False``, narrow it with
``freeze_methods``); ``put`` never freezes.

The caches are **process-local**: warm engines hold live numpy arrays and
locks.  Replicas in other processes warm themselves from the
:class:`~repro.serve.store.IndexStore` instead (:mod:`repro.serve.sharded`).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

from repro.core.engine import METHODS, PitexEngine
from repro.exceptions import InvalidParameterError
from repro.obs.telemetry import counter

_MISS = object()


@dataclass
class CacheStats:
    """One cache's counters since construction.

    Mirrored into telemetry as ``<prefix>.hit/miss/eviction/invalidation``,
    plus ``<prefix>.bytes``: the cumulative size of every sized insert,
    where ``bytes_cached`` is the resident size.  ``single_flight_waits``
    depends on thread scheduling and is never mirrored.
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    invalidations: int = 0
    bytes_cached: int = 0
    single_flight_waits: int = 0

    def as_dict(self) -> dict:
        """Plain-dict snapshot (JSON friendly)."""
        return asdict(self)

    @property
    def hit_rate(self) -> float:
        """Hits over lookups (0.0 before the first lookup)."""
        lookups = self.hits + self.misses
        return (self.hits / lookups) if lookups else 0.0


@dataclass
class _Entry:
    """One resident value and its size in bytes."""

    value: Any
    num_bytes: int = 0


@dataclass
class _Gate:
    """Single-flight gate: one compute lock plus a waiter refcount.

    The *last* leaving thread removes the gate, so a waiter can never be
    orphaned onto a gate a newcomer no longer sees.
    """

    lock: threading.Lock = field(default_factory=threading.Lock)
    refs: int = 0


class SingleFlightLRU:
    """A thread-safe LRU whose misses compute once per key.

    Parameters
    ----------
    capacity:
        Maximum number of resident entries (LRU eviction beyond it).
    prefix:
        Telemetry prefix of the mirrored :class:`CacheStats` counters.
    """

    def __init__(self, capacity: int, prefix: str) -> None:
        if capacity <= 0:
            raise InvalidParameterError(f"capacity must be positive, got {capacity}")
        self.capacity = int(capacity)
        self.stats = CacheStats()
        self._prefix = prefix
        self._lock = threading.Lock()
        self._entries: "OrderedDict[Hashable, _Entry]" = OrderedDict()
        self._pending: Dict[Hashable, _Gate] = {}

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def keys(self) -> List[Hashable]:
        """Resident keys, least-recently used first."""
        with self._lock:
            return list(self._entries)

    # ------------------------------------------------------------ policy hooks
    def _entry(self, value: Any) -> _Entry:
        """Wrap ``value`` for insertion.  Runs *outside* the lock."""
        return _Entry(value)

    def _superseded(self, key: Hashable) -> Iterable[Hashable]:
        """Resident keys to invalidate before ``key`` is looked up.

        Runs once per lookup, before it; a policy may also record what the
        lookup tells it (the answer cache's newest epoch per engine key).
        """
        return ()

    def _admit(self, key: Hashable) -> bool:
        """Whether a value for ``key`` may be inserted now."""
        return True

    # -------------------------------------------------------------------- core
    def get(self, key: Hashable) -> Optional[Any]:
        """The live value for ``key`` (refreshing recency), or ``None``.

        Records a hit, or a miss when nothing live is resident.
        """
        self._invalidate(lambda: self._superseded(key))
        with self._lock:
            value = self._lookup_locked(key, count_miss=True)
        return None if value is _MISS else value

    def _get_or_compute(self, key: Hashable, compute: Callable[[], Any]) -> Tuple[Any, bool]:
        """``(value, hit)``: the live value for ``key``, or ``compute()``'s result.

        Concurrent misses on one key compute once; the rest wait, then hit.
        A failure propagates and is never cached (its miss stays counted).
        """
        self._invalidate(lambda: self._superseded(key))
        with self._lock:
            value = self._lookup_locked(key, count_miss=False)
            if value is not _MISS:
                return value, True
            gate = self._pending.get(key)
            if gate is None:
                gate = self._pending[key] = _Gate()
            else:
                self.stats.single_flight_waits += 1
            gate.refs += 1
        try:
            with gate.lock:
                # Double-check: the compute we waited behind may have landed.
                with self._lock:
                    value = self._lookup_locked(key, count_miss=True)
                if value is not _MISS:
                    return value, True
                value = compute()
                self.put(key, value)
                return value, False
        finally:
            # The last thread through removes the gate -- also after a hit
            # or a failed compute -- so _pending cannot grow one gate per key.
            with self._lock:
                gate.refs -= 1
                if gate.refs == 0:
                    del self._pending[key]

    def put(self, key: Hashable, value: Any) -> None:
        """Insert (or replace) ``value``, evicting LRU entries beyond capacity.

        A same-key replace never grows the cache, so it never evicts.  A key
        the policy does not ``_admit`` is dropped silently.
        """
        entry = self._entry(value)
        with self._lock:
            if not self._admit(key):
                return
            replaced = self._entries.pop(key, None)
            self._entries[key] = entry
            self.stats.bytes_cached += entry.num_bytes
            if entry.num_bytes:
                counter(f"{self._prefix}.bytes", entry.num_bytes)
            if replaced is not None:
                self.stats.bytes_cached -= replaced.num_bytes
            while len(self._entries) > self.capacity:
                _, evicted = self._entries.popitem(last=False)
                self.stats.bytes_cached -= evicted.num_bytes
                self.stats.evictions += 1
                counter(f"{self._prefix}.eviction")

    def invalidate(self, key: Hashable) -> bool:
        """Drop one entry; returns whether it existed."""
        return self._invalidate(lambda: [key] if key in self._entries else []) > 0

    def clear(self) -> None:
        """Drop every entry, counting each as an invalidation (stats are kept).

        ``clear`` is a bulk :meth:`invalidate`: silently clearing would
        under-report drops in ``stats.invalidations`` and its telemetry.
        """
        self._invalidate(lambda: list(self._entries))

    # --------------------------------------------------------------- internals
    def _invalidate(self, select: Callable[[], Iterable[Hashable]]) -> int:
        """Drop the keys ``select()`` names (evaluated under the lock)."""
        with self._lock:
            dropped = [self._entries.pop(key) for key in select()]
            if dropped:
                self.stats.invalidations += len(dropped)
                self.stats.bytes_cached -= sum(entry.num_bytes for entry in dropped)
                counter(f"{self._prefix}.invalidation", len(dropped))
        return len(dropped)

    def _lookup_locked(self, key: Hashable, count_miss: bool) -> Any:
        """The resident value for ``key`` (refreshing recency) or ``_MISS``.

        Caller must hold ``self._lock``.  Records a hit when found, and a
        miss when ``count_miss`` and nothing is resident.
        """
        entry = self._entries.get(key)
        if entry is None:
            if count_miss:
                # pitexlint: ignore[LCK001] -- _locked helper: caller holds self._lock
                self.stats.misses += 1
                counter(f"{self._prefix}.miss")
            return _MISS
        # pitexlint: ignore[LCK001] -- _locked helper: caller holds self._lock
        self._entries.move_to_end(key)
        # pitexlint: ignore[LCK001] -- _locked helper: caller holds self._lock
        self.stats.hits += 1
        counter(f"{self._prefix}.hit")
        return entry.value


class EngineCache(SingleFlightLRU):
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
        super().__init__(capacity, "engine_cache")
        if freeze_methods is not None:
            # Fail fast: a typo here would otherwise surface only after every
            # expensive factory build, and be re-paid on every retry.
            unknown = [m for m in freeze_methods if m.lower() not in METHODS]
            if unknown:
                raise InvalidParameterError(
                    f"unknown freeze_methods {unknown!r}; choose from {METHODS}"
                )
        self.freeze = bool(freeze)
        self.freeze_methods = tuple(freeze_methods) if freeze_methods is not None else None

    def get_or_create(self, key: Hashable, factory: Callable[[], PitexEngine]) -> PitexEngine:
        """The cached engine for ``key``, building it with ``factory`` on a miss.

        Concurrent misses on one key run ``factory`` once.  With
        ``freeze=True`` (the default) the built engine is frozen still under
        the gate, so the warm-up also runs once, before anyone sees it.
        """

        def build() -> PitexEngine:
            engine = factory()
            if self.freeze and not engine.is_frozen:
                engine.freeze(self.freeze_methods)
            return engine

        return self._get_or_compute(key, build)[0]

    def _superseded(self, key: Hashable) -> List[Hashable]:
        """``[key]`` when its engine's source graph moved past the pinned version."""
        entry = self._entries.get(key)
        stale = entry is not None and entry.value.source_graph.version != entry.value.graph.version
        return [key] if stale else []
