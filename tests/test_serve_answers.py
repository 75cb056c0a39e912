"""Tests for the fingerprint-keyed answer cache and its service integration.

Unit coverage for :mod:`repro.serve.answers` (LRU behaviour, byte accounting,
epoch invalidation, single-flight determinism, telemetry mirroring) plus the
tentpole's end-to-end gate: a cached service replay must answer bitwise
identically to the uncached oracle, with hits split out of the execute
percentiles and a hit rate that rises with the workload's zipf skew.
"""

import pickle
import threading
import time

import pytest

from repro.core.engine import PitexEngine
from repro.datasets.synthetic import load_dataset
from repro.exceptions import InvalidParameterError
from repro.obs.telemetry import Telemetry, get_telemetry, install
from repro.serve.answers import AnswerCache, answer_digest, answer_key
from repro.serve.replay import replay_stream
from repro.serve.service import PitexService, QueryRequest


@pytest.fixture(scope="module")
def dataset():
    return load_dataset("lastfm", scale=0.08, seed=11)


def make_engine(dataset, seed=7):
    return PitexEngine(
        dataset.graph, dataset.model, max_samples=40, index_samples=40, default_k=2, seed=seed
    )


def key_for(engine_key="e", version=1, model_hash="m", fingerprint="fp"):
    return (engine_key, version, model_hash, fingerprint)


# ------------------------------------------------------------------ unit: LRU
def test_answer_cache_hit_miss_and_telemetry_mirror():
    previous = install(Telemetry())
    try:
        cache = AnswerCache(capacity=4)
        result, hit = cache.get_or_compute(key_for(fingerprint="a"), lambda: "answer-a")
        assert (result, hit) == ("answer-a", False)
        result, hit = cache.get_or_compute(
            key_for(fingerprint="a"), lambda: pytest.fail("compute re-ran on a hit")
        )
        assert (result, hit) == ("answer-a", True)
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.hit_rate == 0.5
        assert cache.stats.bytes_cached == len(pickle.dumps("answer-a"))
        counters = get_telemetry().counters()
        assert counters["answer_cache.hit"] == 1
        assert counters["answer_cache.miss"] == 1
        assert counters["answer_cache.bytes"] == cache.stats.bytes_cached
        assert cache.stats.as_dict() == {
            "hits": 1,
            "misses": 1,
            "evictions": 0,
            "invalidations": 0,
            "bytes_cached": cache.stats.bytes_cached,
            "single_flight_waits": 0,
        }
    finally:
        install(previous)


def test_answer_cache_lru_eviction_and_byte_accounting():
    previous = install(Telemetry())
    try:
        cache = AnswerCache(capacity=2)
        for name in ("a", "b", "c"):
            cache.get_or_compute(key_for(fingerprint=name), lambda name=name: f"answer-{name}")
        assert cache.stats.evictions == 1
        assert len(cache) == 2
        # "a" was least recently used; "b" and "c" stay resident.
        _, hit = cache.get_or_compute(key_for(fingerprint="b"), lambda: "rebuilt-b")
        assert hit
        _, hit = cache.get_or_compute(key_for(fingerprint="a"), lambda: "rebuilt-a")
        assert not hit  # evicted earlier, so it recomputes (and evicts "c")
        assert cache.stats.evictions == 2
        resident = len(pickle.dumps("answer-b")) + len(pickle.dumps("rebuilt-a"))
        assert cache.stats.bytes_cached == resident
        assert get_telemetry().counters()["answer_cache.eviction"] == 2
    finally:
        install(previous)


def test_answer_cache_rejects_nonpositive_capacity():
    with pytest.raises(InvalidParameterError):
        AnswerCache(capacity=0)


# --------------------------------------------------------- unit: invalidation
def test_answer_cache_invalidates_on_epoch_roll():
    """A new (graph.version, model hash) epoch sweeps the stale entries."""
    previous = install(Telemetry())
    try:
        cache = AnswerCache(capacity=8)
        cache.get_or_compute(key_for(version=1, fingerprint="a"), lambda: "v1-a")
        cache.get_or_compute(key_for(version=1, fingerprint="b"), lambda: "v1-b")
        cache.get_or_compute(key_for("other", version=1, fingerprint="a"), lambda: "other-a")
        # First lookup at version 2 rolls the epoch for engine key "e" only.
        result, hit = cache.get_or_compute(key_for(version=2, fingerprint="a"), lambda: "v2-a")
        assert (result, hit) == ("v2-a", False)
        assert cache.stats.invalidations == 2  # both v1 entries of "e"
        assert get_telemetry().counters()["answer_cache.invalidation"] == 2
        # The stale v1 entry can never hit again even if asked for directly.
        result, hit = cache.get_or_compute(key_for(version=1, fingerprint="a"), lambda: "v1-a2")
        assert not hit
        # The other engine key's epoch was untouched.
        _, hit = cache.get_or_compute(key_for("other", version=1, fingerprint="a"), lambda: None)
        assert hit
    finally:
        install(previous)


def test_answer_cache_drops_a_result_whose_epoch_rolled_during_compute():
    """A compute that outlives its epoch is returned but never inserted.

    The nested lookup observes epoch 2 while the epoch-1 compute still runs.
    Inserting the epoch-1 answer afterwards would take the live epoch-2
    entry's slot in a full cache, for an entry that can never hit.
    """
    previous = install(Telemetry())
    try:
        cache = AnswerCache(capacity=1)

        def stale_compute():
            cache.get_or_compute(key_for(version=2, fingerprint="fp-b"), lambda: "v2-b")
            return "v1-a"

        result, hit = cache.get_or_compute(key_for(version=1, fingerprint="fp-a"), stale_compute)
        assert (result, hit) == ("v1-a", False)
        assert len(cache) == 1
        assert cache.stats.evictions == 0
        assert cache.stats.bytes_cached == len(pickle.dumps("v2-b"))
        result, hit = cache.get_or_compute(
            key_for(version=2, fingerprint="fp-b"), lambda: pytest.fail("live entry was evicted")
        )
        assert (result, hit) == ("v2-b", True)
    finally:
        install(previous)


def test_answer_cache_clear_counts_invalidations():
    previous = install(Telemetry())
    try:
        cache = AnswerCache(capacity=4)
        for name in ("a", "b", "c"):
            cache.get_or_compute(key_for(fingerprint=name), lambda name=name: f"answer-{name}")
        cache.clear()
        assert len(cache) == 0
        assert cache.stats.invalidations == 3
        assert cache.stats.bytes_cached == 0
        assert get_telemetry().counters()["answer_cache.invalidation"] == 3
        # Stats survive the clear; the next lookup is a clean miss.
        _, hit = cache.get_or_compute(key_for(fingerprint="a"), lambda: "again")
        assert not hit
    finally:
        install(previous)


# -------------------------------------------------------- unit: single-flight
def test_answer_cache_single_flight_computes_once_and_waits_stay_local():
    """Concurrent misses on one key: one compute, the rest wait then hit.

    The deterministic-accounting contract: U unique keys and N occurrences
    record exactly U misses and N - U hits no matter the interleaving, and
    the waits are visible in stats but never mirrored into telemetry (they
    are scheduling noise).
    """
    previous = install(Telemetry())
    try:
        cache = AnswerCache(capacity=4)
        compute_calls = []
        compute_started = threading.Event()

        def slow_compute():
            compute_calls.append(threading.get_ident())
            compute_started.set()
            time.sleep(0.05)  # hold the gate while the waiters pile up
            return "shared-answer"

        results = [None] * 4

        def owner():
            results[0] = cache.get_or_compute(key_for(), slow_compute)

        def waiter(slot):
            compute_started.wait(timeout=5.0)
            results[slot] = cache.get_or_compute(
                key_for(), lambda: pytest.fail("waiter must not compute")
            )

        threads = [threading.Thread(target=owner)]
        threads += [threading.Thread(target=waiter, args=(slot,)) for slot in (1, 2, 3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(compute_calls) == 1
        assert all(result == ("shared-answer", slot > 0) for slot, result in enumerate(results))
        assert cache.stats.misses == 1
        assert cache.stats.hits == 3
        counters = get_telemetry().counters()
        assert counters["answer_cache.miss"] == 1
        assert counters["answer_cache.hit"] == 3
        assert "answer_cache.single_flight_wait" not in counters
    finally:
        install(previous)


def test_answer_cache_failure_propagates_and_is_not_cached():
    cache = AnswerCache(capacity=4)
    attempts = []

    def flaky():
        attempts.append(1)
        if len(attempts) == 1:
            raise RuntimeError("transient")
        return "recovered"

    with pytest.raises(RuntimeError):
        cache.get_or_compute(key_for(), flaky)
    result, hit = cache.get_or_compute(key_for(), flaky)
    assert (result, hit) == ("recovered", False)
    assert len(attempts) == 2
    assert cache.stats.misses == 2


# ------------------------------------------------------------- keys & digests
def test_answer_key_resolves_budget_defaults(dataset):
    engine = make_engine(dataset)
    user = dataset.workload("mid", 1)[0]
    defaulted = QueryRequest(user=user, k=None, method="lazy")
    explicit = QueryRequest(
        user=user,
        k=engine.budget.k,
        method="lazy",
        epsilon=engine.budget.epsilon,
        delta=engine.budget.delta,
    )
    assert answer_key(engine, defaulted) == answer_key(engine, explicit)
    assert answer_key(engine, defaulted) != answer_key(
        engine, QueryRequest(user=user, k=None, method="indexest")
    )
    key = answer_key(engine, defaulted, engine_key="override")
    assert key[0] == "override"
    assert key[1] == engine.graph.version
    assert key[2] == engine.model.content_hash()


def test_answer_digest_orders_and_marks_failures(dataset):
    engine = make_engine(dataset).freeze(methods=["lazy"])
    users = dataset.workload("mid", 2)
    results = [engine.query(user=user, k=2, method="lazy") for user in users]
    assert answer_digest(results) == answer_digest(list(results))
    assert answer_digest(results) != answer_digest(list(reversed(results)))
    assert answer_digest([results[0], None]) != answer_digest([results[0], results[1]])


# -------------------------------------------------------- service integration
def test_cached_replay_is_bitwise_equal_to_uncached_oracle(dataset):
    """The tentpole gate: memoized answers == the no-cache oracle, byte for byte."""
    engine = make_engine(dataset).freeze(methods=["indexest"], ks=[2])
    stream = dataset.query_workload.query_stream(20, seed=5, zipf_s=1.2)
    unique = len({user for _, user in stream})
    assert unique < len(stream)  # the zipf skew must actually create repeats

    with PitexService.for_engine(engine, num_workers=2) as service:
        oracle = replay_stream(service, stream, method="indexest", k=2)
    assert oracle.failures == 0
    assert oracle.cache_hits == 0
    assert oracle.warm.count == 0

    cache = AnswerCache()
    with PitexService.for_engine(
        engine, num_workers=2, answer_cache=cache
    ) as service:
        cached = replay_stream(service, stream, method="indexest", k=2)
    assert cached.failures == 0
    assert cached.answers_digest == oracle.answers_digest
    # Single-flight accounting: exactly one miss per unique fingerprint.
    assert cache.stats.misses == unique
    assert cache.stats.hits == len(stream) - unique
    assert cached.cache_hits == len(stream) - unique
    assert cached.hit_rate == pytest.approx((len(stream) - unique) / len(stream))
    assert cached.cold.count == unique
    assert cached.warm.count == len(stream) - unique

    # The metrics split: hits never pollute the execute percentiles.
    snapshot = service.metrics.snapshot()
    assert snapshot["execute"]["count"] == unique
    assert snapshot["answer_hits"]["count"] == len(stream) - unique
    assert snapshot["latency"]["count"] == len(stream)


def test_unfrozen_engine_never_consults_the_answer_cache(dataset):
    """Unfrozen answers are not pure functions of the fingerprint: no caching."""
    engine = make_engine(dataset)
    user = dataset.workload("mid", 1)[0]
    cache = AnswerCache()
    with PitexService.for_engine(engine, answer_cache=cache) as service:
        for _ in range(2):
            response = service.submit(QueryRequest(user=user, k=2, method="lazy")).result()
            assert response.ok and not response.cache_hit
    assert len(cache) == 0
    assert cache.stats.hits == cache.stats.misses == 0


def test_cache_hits_skip_query_telemetry_and_spans(dataset):
    """A hit never touches the engine: no query.* counters, no execute span."""
    from repro.obs.trace import TraceRecorder, install_recorder

    engine = make_engine(dataset).freeze(methods=["lazy"], ks=[2])
    user = dataset.workload("mid", 1)[0]
    previous = install(Telemetry())
    recorder = TraceRecorder()
    previous_recorder = install_recorder(recorder)
    try:
        with PitexService.for_engine(engine, answer_cache=AnswerCache()) as service:
            for _ in range(3):
                assert service.submit(QueryRequest(user=user, k=2, method="lazy")).result().ok
        counters = get_telemetry().counters()
        assert counters["query.count"] == 1  # only the miss executed
        assert counters["answer_cache.miss"] == 1
        assert counters["answer_cache.hit"] == 2
    finally:
        install_recorder(previous_recorder)
        install(previous)
    assert len(recorder.spans()) == 1  # one execute span for the one miss


def test_hit_rate_rises_with_zipf_skew(dataset):
    """Satellite: the answer-cache hit rate is monotone in the zipf exponent."""
    engine = make_engine(dataset).freeze(methods=["lazy"], ks=[2])
    rates = []
    for zipf_s in (0.0, 0.9, 2.0):
        stream = dataset.query_workload.query_stream(30, seed=17, zipf_s=zipf_s)
        with PitexService.for_engine(engine, answer_cache=AnswerCache()) as service:
            report = replay_stream(service, stream, method="lazy", k=2)
        assert report.failures == 0
        unique = len({user for _, user in stream})
        assert report.hit_rate == pytest.approx(1.0 - unique / len(stream))
        rates.append(report.hit_rate)
    assert rates[0] <= rates[1] <= rates[2]
    assert rates[2] > rates[0], "zipf skew never moved the hit rate"


# ---------------------------------------------------- freeze-time user tables
def test_freeze_builds_per_user_tables_and_thaw_drops_them(dataset):
    engine = make_engine(dataset)
    assert engine.frozen_user_tables is None
    engine.freeze(methods=["indexest+", "delaymat"], ks=[2])
    tables = engine.frozen_user_tables
    assert tables is not None
    assert tables.pruning and tables.delayed_graphs and tables.delayed_filters
    engine.thaw()
    assert engine.frozen_user_tables is None


def test_freeze_without_table_methods_or_disabled_skips_tables(dataset):
    engine = make_engine(dataset).freeze(methods=["lazy"], ks=[2])
    assert engine.frozen_user_tables is None  # no table-backed method warmed
    engine.thaw()
    engine.freeze(methods=["indexest+"], ks=[2], precompute_tables=False)
    assert engine.frozen_user_tables is None


def test_precomputed_tables_answer_bitwise_like_lazy_derivation(dataset):
    """IndexEst+ tables are bitwise-neutral: with vs without precompute agree."""
    users = dataset.workload("mid", 3)

    def answers(precompute):
        engine = make_engine(dataset).freeze(
            methods=["indexest+"], ks=[2], precompute_tables=precompute
        )
        return [
            (result.tag_ids, result.spread, result.samples_drawn, result.edges_visited)
            for result in (
                engine.query(user=user, k=2, method="indexest+") for user in users
            )
        ]

    assert answers(True) == answers(False)


def test_delaymat_tables_are_replica_consistent(dataset):
    """Two same-seed frozen engines share identical precomputed delaymat answers."""
    users = dataset.workload("mid", 2)

    def answers():
        engine = make_engine(dataset, seed=7).freeze(methods=["delaymat"], ks=[2])
        assert engine.frozen_user_tables.delayed_graphs
        return [
            (result.tag_ids, result.spread, result.samples_drawn)
            for result in (
                engine.query(user=user, k=2, method="delaymat") for user in users
            )
        ]

    assert answers() == answers()
