"""Fingerprint-keyed answer memoization for frozen engines.

An engine's answer is a *pure function* of ``(engine seed, query
fingerprint)`` and its graph/model state: every query derives its RNG stream
from :meth:`PitexEngine.query_fingerprint` alone, so two identical requests
against the same frozen engine produce bitwise-identical results.  That
purity makes a full answer cache trivially correct -- this module is that
cache.

:class:`AnswerCache` is the epoch policy on the serving layer's one
single-flight LRU (:class:`~repro.serve.cache.SingleFlightLRU`), keyed on
``(engine_key, graph.version, model.content_hash(), fingerprint)``.  The
``graph.version`` component rolls the epoch on any mutation (Berkholz et
al.'s update-keyed answering, PAPERS.md): a stale epoch can never *hit*, the
first lookup in a new epoch sweeps the superseded entries out as
invalidations, and a result whose epoch rolled while it computed is returned
but never inserted.

Determinism contract -- the part that earns ``answer_cache.*`` a seat in
:data:`~repro.obs.telemetry.DETERMINISTIC_PREFIXES`:

* the LRU's accounting rule makes U unique fingerprints over N lookups
  record exactly U misses and N - U hits *regardless of thread
  interleaving*; single-flight waits stay in ``stats`` only.
* ``answer_cache.bytes`` counts the pickled size of every *inserted* result.
  Pickle encodes floats at fixed width, so the size is identical across
  backends even though wall-clock fields like ``elapsed_seconds`` differ.
* evictions stay deterministic only while the working set fits: once the
  LRU evicts under concurrency, which key re-misses later depends on
  scheduling.  Size the capacity above the unique-fingerprint count of any
  workload whose telemetry you intend to compare.

Per-worker replicas inside :class:`~repro.serve.sharded.ProcessShardedService`
sum to the shared thread-backend cache's totals because, with answer caches
on, the router sends every request to its user's affinity shard (with
caches off it follows load instead), so each fingerprint reaches exactly
one worker.
"""

from __future__ import annotations

import hashlib
import pickle
from typing import Callable, Dict, Hashable, Iterable, List, Optional, Tuple

from repro.core.query import PitexResult
from repro.serve.cache import SingleFlightLRU, _Entry

DEFAULT_ANSWER_CAPACITY = 4096


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


class AnswerCache(SingleFlightLRU):
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
        super().__init__(capacity, "answer_cache")
        # Latest observed (graph.version, model hash) per engine_key: a newer
        # epoch sweeps the older one's entries as invalidations.
        self._epochs: Dict[Hashable, Tuple[int, str]] = {}

    def get_or_compute(
        self, key: tuple, compute: Callable[[], PitexResult]
    ) -> Tuple[PitexResult, bool]:
        """The cached answer for ``key``, running ``compute`` once on a miss.

        Returns ``(result, hit)``.  Concurrent misses on the same key are
        single-flighted: one caller computes while the rest wait on its gate
        and then hit, so miss counts equal unique-key counts regardless of
        scheduling.  Failures propagate and are never cached.
        """
        return self._get_or_compute(key, compute)

    def _entry(self, result: PitexResult) -> _Entry:
        """Size the answer by its pickled bytes (identical across backends)."""
        return _Entry(result, num_bytes=len(pickle.dumps(result)))

    def _superseded(self, key: tuple) -> List[tuple]:
        """Observe ``key``'s epoch; the resident keys a newer epoch supersedes.

        The epoch is ``(graph.version, model hash)``: a graph mutation bumps
        the version, a model swap changes the hash, and either rolls every
        cached answer for that engine key into ``invalidations``.
        """
        engine_key, epoch = key[0], (key[1], key[2])
        known = self._epochs.get(engine_key)
        self._epochs[engine_key] = epoch
        if known is None or known == epoch:
            return []
        return [k for k in self._entries if k[0] == engine_key and (k[1], k[2]) != epoch]

    def _admit(self, key: tuple) -> bool:
        """Drop a result whose epoch rolled during its compute.

        While a compute ran, another request may have observed a newer
        ``(graph.version, model hash)`` for the same engine key.  Such a
        result can never hit, and inserting it would take a live entry's
        slot.
        """
        return self._epochs.get(key[0]) == (key[1], key[2])
