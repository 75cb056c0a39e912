"""Fingerprint-keyed answer memoization for frozen engines.

An engine's answer is a *pure function* of ``(engine seed, query
fingerprint)`` and its graph/model state: every query derives its RNG stream
from :meth:`PitexEngine.query_fingerprint` alone, so two identical requests
against the same frozen engine produce bitwise-identical results.  That
purity makes a full answer cache trivially correct -- this module is that
cache.

:class:`AnswerCache` is a thread-safe LRU keyed on
``(engine_key, graph.version, model.content_hash(), fingerprint)``.  The
``graph.version`` component rolls the epoch on any mutation (Berkholz et
al.'s update-keyed answering, PAPERS.md): a stale epoch can never *hit*, and
:meth:`AnswerCache.get_or_compute` sweeps the superseded entries out as soon
as the new epoch is observed, counting each as an ``invalidation``.

Determinism contract -- the part that earns ``answer_cache.*`` a seat in
:data:`~repro.obs.telemetry.DETERMINISTIC_PREFIXES`:

* ``get_or_compute`` is **single-flight per key** (the
  :class:`~repro.serve.cache.EngineCache` gate pattern): concurrent misses on
  one fingerprint run ``compute`` once while the rest wait and then hit.  A
  workload with U unique fingerprints and N occurrences therefore records
  exactly U misses and N - U hits *regardless of thread interleaving*.
* single-flight **waits** are scheduling noise, so they are kept in
  :class:`AnswerCacheStats` only and deliberately *not* mirrored into
  telemetry (same caveat as ``engine_cache.single_flight_wait``, which is
  excluded from cross-backend comparisons by never being emitted in replay
  runs -- see docs/observability.md).
* ``answer_cache.bytes`` counts the pickled size of every *inserted* result.
  Pickle encodes floats at fixed width, so the size is identical across
  backends even though wall-clock fields like ``elapsed_seconds`` differ.
* evictions only stay deterministic while the working set fits: once the LRU
  starts evicting under concurrency, recency order -- and therefore *which*
  key re-misses later -- depends on scheduling.  The default capacity is
  generous for exactly this reason; size it above the unique-fingerprint
  count of any workload whose telemetry you intend to compare.

Per-worker replicas inside :class:`~repro.serve.sharded.ProcessShardedService`
stay globally consistent with the shared thread-backend cache because the
request router shards *by user*: each fingerprint lands on exactly one
worker, so per-worker hit/miss tallies sum to the shared cache's totals.
"""

from __future__ import annotations

import hashlib
import pickle
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Dict, Hashable, Iterable, Optional, Tuple

from repro.core.query import PitexResult
from repro.exceptions import InvalidParameterError
from repro.obs.telemetry import counter

DEFAULT_ANSWER_CAPACITY = 4096

_MISS = object()


def answer_key(engine, request, engine_key: Optional[Hashable] = None) -> tuple:
    """The cache key for ``request`` against frozen ``engine``.

    ``request`` is duck-typed (any object with the
    :class:`~repro.serve.service.QueryRequest` fields), so both backends and
    the benchmarks can share this helper without import cycles.  Budget
    defaults are resolved exactly as :meth:`PitexEngine.query` resolves them,
    so the fingerprint here is the one the frozen query path seeds from.
    """
    budget = engine.budget
    k = request.k if request.k is not None else budget.k
    epsilon = request.epsilon if request.epsilon is not None else budget.epsilon
    delta = request.delta if request.delta is not None else budget.delta
    fingerprint = engine.query_fingerprint(
        user=request.user,
        method=request.method,
        k=k,
        epsilon=epsilon,
        delta=delta,
        exploration=request.exploration,
    )
    key = engine_key if engine_key is not None else request.engine_key
    return (key, engine.graph.version, engine.model.content_hash(), fingerprint)


def answer_digest(results: Iterable[Optional[PitexResult]]) -> str:
    """A sha256 over the deterministic facets of ``results``, in order.

    Hashes user, method, tag ids/names, spread (exact ``float.hex``), the
    evaluated/pruned set counts and the work counters -- everything a frozen
    engine reproduces bit-for-bit -- while excluding wall-clock fields
    (``elapsed_seconds``) and the optional evaluation trace.  ``None``
    entries (failed queries) hash as an error marker so a failure cannot
    alias a success.  Two replays agree on this digest iff their answers are
    byte-identical, which is what the CI warm legs and ``bench_serving``
    gate on.
    """
    hasher = hashlib.sha256()
    for result in results:
        if result is None:
            hasher.update(b"<error>\x00")
            continue
        facet = "|".join(
            (
                str(result.query.user),
                result.method,
                ",".join(str(tag) for tag in result.tag_ids),
                ",".join(result.tags),
                float(result.spread).hex(),
                str(result.evaluated_tag_sets),
                str(result.pruned_tag_sets),
                str(result.edges_visited),
                str(result.samples_drawn),
            )
        )
        hasher.update(facet.encode("utf-8"))
        hasher.update(b"\x00")
    return hasher.hexdigest()


@dataclass
class AnswerCacheStats:
    """Counters describing answer-cache behaviour since construction.

    Every field except ``single_flight_waits`` is mirrored into the
    process-wide telemetry registry under ``answer_cache.*``; waits are
    scheduling-dependent and stay local (see the module docstring).
    ``bytes_cached`` tracks the pickled size of the *currently resident*
    entries (inserts add, evictions/invalidations subtract), while the
    ``answer_cache.bytes`` telemetry counter is cumulative-inserted and
    therefore monotone.
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    invalidations: int = 0
    bytes_cached: int = 0
    single_flight_waits: int = 0

    def as_dict(self) -> dict:
        """Plain-dict snapshot (JSON friendly)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
            "bytes_cached": self.bytes_cached,
            "single_flight_waits": self.single_flight_waits,
        }

    @property
    def hit_rate(self) -> float:
        """Hits over lookups (0.0 before the first lookup)."""
        lookups = self.hits + self.misses
        return (self.hits / lookups) if lookups else 0.0


@dataclass
class _CachedAnswer:
    result: PitexResult
    num_bytes: int


@dataclass
class _Gate:
    """Single-flight gate: one compute lock plus a waiter refcount.

    Same shape as the :class:`~repro.serve.cache.EngineCache` gate: the
    refcount lets the last leaving thread remove the gate, so a waiter can
    never be orphaned onto a gate a newcomer no longer sees.
    """

    lock: threading.Lock = field(default_factory=threading.Lock)
    refs: int = 0


class AnswerCache:
    """A thread-safe LRU of frozen-engine answers, keyed by fingerprint.

    Parameters
    ----------
    capacity:
        Maximum number of cached answers (LRU eviction beyond it).  Keep it
        above the unique-fingerprint count of workloads whose telemetry must
        compare across backends -- see the module docstring's eviction
        caveat.
    """

    def __init__(self, capacity: int = DEFAULT_ANSWER_CAPACITY) -> None:
        if capacity <= 0:
            raise InvalidParameterError(f"capacity must be positive, got {capacity}")
        self.capacity = int(capacity)
        self.stats = AnswerCacheStats()
        self._lock = threading.Lock()
        self._entries: "OrderedDict[tuple, _CachedAnswer]" = OrderedDict()
        # Latest observed (graph.version, model hash) per engine_key: a newer
        # epoch sweeps the older one's entries as invalidations.
        self._epochs: Dict[Hashable, Tuple[int, str]] = {}
        self._pending: dict = {}

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    # ------------------------------------------------------------------ core
    def get_or_compute(
        self, key: tuple, compute: Callable[[], PitexResult]
    ) -> Tuple[PitexResult, bool]:
        """The cached answer for ``key``, running ``compute`` once on a miss.

        Returns ``(result, hit)``.  Concurrent misses on the same key are
        single-flighted: one caller computes while the rest wait on its gate
        and then hit, so miss counts equal unique-key counts regardless of
        scheduling.  Failures propagate and are never cached.
        """
        with self._lock:
            self._observe_epoch_locked(key)
            cached = self._peek_locked(key)
            if cached is not _MISS:
                self.stats.hits += 1
                counter("answer_cache.hit")
                return cached, True
            gate = self._pending.get(key)
            if gate is None:
                gate = _Gate()
                self._pending[key] = gate
            else:
                # A compute for this key is already in flight; block on its
                # gate instead of recomputing.  Stats-only: mirroring waits
                # into telemetry would make the deterministic subset
                # scheduling-dependent.
                self.stats.single_flight_waits += 1
            gate.refs += 1
        try:
            with gate.lock:
                with self._lock:
                    cached = self._peek_locked(key)
                    if cached is not _MISS:
                        # The compute we waited behind satisfied this key.
                        self.stats.hits += 1
                        counter("answer_cache.hit")
                        return cached, True
                    self.stats.misses += 1
                    counter("answer_cache.miss")
                result = compute()
                self._put(key, result)
                return result, False
        finally:
            with self._lock:
                gate.refs -= 1
                if gate.refs == 0 and self._pending.get(key) is gate:
                    self._pending.pop(key)

    def clear(self) -> None:
        """Drop every entry, counting each as an invalidation (stats kept)."""
        with self._lock:
            dropped = len(self._entries)
            freed = sum(entry.num_bytes for entry in self._entries.values())
            self._entries.clear()
            if dropped:
                self.stats.invalidations += dropped
                self.stats.bytes_cached -= freed
                counter("answer_cache.invalidation", dropped)

    # -------------------------------------------------------------- internals
    def _peek_locked(self, key: tuple):
        """The cached result for ``key`` (refreshing recency) or ``_MISS``.

        Caller must hold ``self._lock``; records no stats.
        """
        entry = self._entries.get(key)
        if entry is None:
            return _MISS
        # pitexlint: ignore[LCK001] -- _locked helper: caller holds self._lock
        self._entries.move_to_end(key)
        return entry.result

    def _observe_epoch_locked(self, key: tuple) -> None:
        """Sweep entries of ``key``'s engine superseded by a newer epoch.

        Caller must hold ``self._lock``.  The epoch is ``(graph.version,
        model hash)``: a graph mutation bumps the version, a model swap
        changes the hash, and either rolls every cached answer for that
        engine key into ``invalidations``.
        """
        engine_key, version, model_hash = key[0], key[1], key[2]
        epoch = (version, model_hash)
        known = self._epochs.get(engine_key)
        if known == epoch:
            return
        # pitexlint: ignore[LCK001] -- _locked helper: caller holds self._lock
        self._epochs[engine_key] = epoch
        if known is None:
            return
        stale = [k for k in self._entries if k[0] == engine_key and (k[1], k[2]) != epoch]
        for stale_key in stale:
            # pitexlint: ignore[LCK001] -- _locked helper: caller holds self._lock
            entry = self._entries.pop(stale_key)
            # pitexlint: ignore[LCK001] -- _locked helper: caller holds self._lock
            self.stats.bytes_cached -= entry.num_bytes
        if stale:
            # pitexlint: ignore[LCK001] -- _locked helper: caller holds self._lock
            self.stats.invalidations += len(stale)
            counter("answer_cache.invalidation", len(stale))

    def _put(self, key: tuple, result: PitexResult) -> None:
        """Insert ``result``, accounting bytes and evicting beyond capacity.

        A compute can outlive its epoch: while it ran, another request may
        have observed a newer ``(graph.version, model hash)`` for the same
        engine key.  Such a result can never hit, and inserting it would
        take a live entry's slot, so it is dropped.
        """
        num_bytes = len(pickle.dumps(result))
        with self._lock:
            if self._epochs.get(key[0]) != (key[1], key[2]):
                return
            self._entries[key] = _CachedAnswer(result=result, num_bytes=num_bytes)
            self._entries.move_to_end(key)
            self.stats.bytes_cached += num_bytes
            counter("answer_cache.bytes", num_bytes)
            while len(self._entries) > self.capacity:
                _, evicted = self._entries.popitem(last=False)
                self.stats.bytes_cached -= evicted.num_bytes
                self.stats.evictions += 1
                counter("answer_cache.eviction")
