"""Tests for the warm engine cache and the concurrent query service."""

import threading
import time

import pytest

from repro.core.engine import PitexEngine
from repro.datasets.synthetic import load_dataset
from repro.exceptions import InvalidParameterError
from repro.obs.telemetry import Telemetry, deterministic_counters, get_telemetry, install
from repro.serve.answers import answer_digest
from repro.serve.cache import EngineCache
from repro.serve.service import DEFAULT_ENGINE_KEY, PitexService, QueryRequest


@pytest.fixture(scope="module")
def dataset():
    return load_dataset("lastfm", scale=0.08, seed=11)


def make_engine(dataset, seed=7):
    return PitexEngine(
        dataset.graph, dataset.model, max_samples=40, index_samples=40, default_k=2, seed=seed
    )


# ----------------------------------------------------------------- EngineCache
def test_cache_hits_after_create(dataset):
    cache = EngineCache(capacity=2)
    engine = cache.get_or_create("a", lambda: make_engine(dataset))
    assert cache.get_or_create("a", lambda: pytest.fail("factory re-ran on a hit")) is engine
    assert cache.stats.hits == 1
    assert cache.stats.misses == 1


def test_cache_lru_eviction(dataset):
    cache = EngineCache(capacity=2)
    for key in ("a", "b", "c"):
        cache.get_or_create(key, lambda: make_engine(dataset))
    assert cache.stats.evictions == 1
    assert cache.keys() == ["b", "c"]  # "a" was least recently used
    cache.get("b")
    cache.get_or_create("d", lambda: make_engine(dataset))
    assert cache.keys() == ["b", "d"]  # "c" evicted, "b" refreshed


def test_cache_invalidates_when_graph_version_changes(dataset):
    cache = EngineCache(capacity=2)
    graph = dataset.graph.copy()
    engine = PitexEngine(graph, dataset.model, max_samples=40, index_samples=40, default_k=2)
    cache.put("a", engine)
    assert cache.get("a") is engine
    source, target = next(
        (s, t)
        for s in graph.vertices()
        for t in graph.vertices()
        if s != t and not graph.has_edge(s, t)
    )
    graph.add_edge(source, target, [0.1] * graph.num_topics)
    assert cache.get("a") is None  # stale entry dropped
    assert cache.stats.invalidations == 1
    rebuilt = cache.get_or_create("a", lambda: make_engine(dataset))
    assert rebuilt is not engine


def test_cache_concurrent_create_runs_factory_once(dataset):
    cache = EngineCache(capacity=4)
    calls = []
    barrier = threading.Barrier(4)

    def factory():
        calls.append(1)
        return make_engine(dataset)

    def worker():
        barrier.wait()
        cache.get_or_create("shared", factory)

    threads = [threading.Thread(target=worker) for _ in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert len(calls) == 1


def test_cache_single_flight_under_contention_builds_exactly_once(dataset):
    """Regression: many staggered concurrent misses -> exactly one factory run.

    The factory sleeps so every thread arrives while the build is still in
    flight (the window in which a broken gate would let a second build
    through), and the returned engine must be the *same object* for all
    callers -- a second silent build would hand out a divergent engine.
    """
    cache = EngineCache(capacity=4, freeze=False)
    build_calls = []
    build_started = threading.Event()

    def slow_factory():
        build_calls.append(threading.get_ident())
        build_started.set()
        time.sleep(0.05)  # hold the gate open while the others pile up
        return make_engine(dataset)

    results = [None] * 8
    barrier = threading.Barrier(8)

    def worker(slot):
        barrier.wait()
        if slot % 2:
            build_started.wait(timeout=5.0)  # half the threads arrive mid-build
        results[slot] = cache.get_or_create("shared", slow_factory)

    threads = [threading.Thread(target=worker, args=(slot,)) for slot in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert len(build_calls) == 1, f"factory ran {len(build_calls)} times"
    assert all(engine is results[0] for engine in results)
    assert len(cache) == 1


def test_cache_single_flight_retries_after_factory_failure(dataset):
    """A failed build releases the gate; the next caller rebuilds cleanly."""
    cache = EngineCache(capacity=2, freeze=False)
    attempts = []

    def flaky_factory():
        attempts.append(1)
        if len(attempts) == 1:
            raise RuntimeError("transient build failure")
        return make_engine(dataset)

    with pytest.raises(RuntimeError):
        cache.get_or_create("k", flaky_factory)
    engine = cache.get_or_create("k", flaky_factory)
    assert len(attempts) == 2
    assert cache.get("k") is engine


def test_cache_freezes_on_insert_by_default(dataset):
    """Cached engines are shared across requests, so they freeze on insert."""
    cache = EngineCache(capacity=2, freeze_methods=["indexest", "lazy"])
    engine = cache.get_or_create("a", lambda: make_engine(dataset))
    assert engine.is_frozen
    assert engine.frozen_methods == ("indexest", "lazy")
    # A hit returns the already-frozen engine without re-freezing.
    assert cache.get_or_create("a", lambda: pytest.fail("rebuilt on a hit")) is engine

    unfrozen_cache = EngineCache(capacity=2, freeze=False)
    engine = unfrozen_cache.get_or_create("a", lambda: make_engine(dataset))
    assert not engine.is_frozen
    # put() never freezes: direct inserts keep lifecycle control at the caller.
    cache.put("b", make_engine(dataset))
    assert not cache.get("b").is_frozen


def test_cache_counters_flow_into_telemetry_registry(dataset):
    """Satellite: hit/miss/eviction accounting is visible without a cache ref.

    Every ``CacheStats`` increment must be mirrored as an
    ``engine_cache.*`` counter in the process-wide registry -- that is what
    lets service snapshots report cache behaviour.
    """
    previous = install(Telemetry())
    try:
        cache = EngineCache(capacity=1, freeze=False)
        cache.get_or_create("a", lambda: make_engine(dataset))  # miss + build
        cache.get("a")  # hit
        cache.get_or_create("b", lambda: make_engine(dataset))  # miss, evicts "a"
        cache.invalidate("b")
        counters = get_telemetry().counters()
        assert counters["engine_cache.miss"] == 2
        assert counters["engine_cache.hit"] == 1
        assert counters["engine_cache.eviction"] == 1
        assert counters["engine_cache.invalidation"] == 1
        assert "engine_cache.single_flight_wait" not in counters
        assert cache.stats.as_dict() == {
            "hits": 1,
            "misses": 2,
            "evictions": 1,
            "invalidations": 1,
            "bytes_cached": 0,
            "single_flight_waits": 0,
        }
    finally:
        install(previous)


def test_cache_single_flight_wait_is_counted(dataset):
    """A thread that blocks behind an in-flight build is counted as a waiter."""
    previous = install(Telemetry())
    try:
        cache = EngineCache(capacity=2, freeze=False)
        waiter_inbound = threading.Event()
        results = [None, None]

        def slow_factory():
            waiter_inbound.wait(timeout=5.0)
            time.sleep(0.25)  # hold the gate while the waiter reaches it
            return make_engine(dataset)

        def builder():
            results[0] = cache.get_or_create("shared", slow_factory)

        def waiter():
            waiter_inbound.set()
            results[1] = cache.get_or_create(
                "shared", lambda: pytest.fail("waiter must not build")
            )

        builder_thread = threading.Thread(target=builder)
        builder_thread.start()
        # The waiter may only start once the builder owns the gate, or it
        # could win the race and become the builder itself.
        deadline = time.monotonic() + 5.0
        while not cache._pending and time.monotonic() < deadline:
            time.sleep(0.005)
        assert cache._pending, "builder never registered its single-flight gate"
        waiter_thread = threading.Thread(target=waiter)
        waiter_thread.start()
        builder_thread.join()
        waiter_thread.join()
        assert results[0] is results[1]
        assert cache.stats.single_flight_waits == 1
        assert "engine_cache.single_flight_wait" not in get_telemetry().counters()
    finally:
        install(previous)


def test_cache_concurrent_misses_count_like_sequential_calls(dataset):
    """Racing callers record what the same calls made one by one record.

    Four barrier-released ``get_or_create`` calls on an empty cache build
    once: the builder records the one miss, the three callers that waited
    behind it record hits, and the waits stay out of telemetry -- so the
    deterministic counters do not depend on thread scheduling.
    """
    previous = install(Telemetry())
    try:
        cache = EngineCache(capacity=2, freeze=False)
        barrier = threading.Barrier(4)

        def slow_factory():
            time.sleep(0.1)  # hold the gate while the other callers arrive
            return make_engine(dataset)

        def caller():
            barrier.wait()
            cache.get_or_create("k", slow_factory)

        threads = [threading.Thread(target=caller) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10.0)
        assert not any(thread.is_alive() for thread in threads)
        expected = {"engine_cache.hit": 3, "engine_cache.miss": 1}
        assert deterministic_counters(get_telemetry().counters()) == expected
        assert (cache.stats.hits, cache.stats.misses) == (3, 1)
    finally:
        install(previous)


def test_cache_clear_counts_invalidations(dataset):
    """Regression (bugfix): clear() is a bulk invalidate, not a silent drop.

    Dropping N entries via clear() must add N to ``stats.invalidations`` and
    mirror the same amount into ``engine_cache.invalidation`` telemetry --
    previously cleared entries vanished without a trace, under-reporting
    drops relative to per-key invalidate().
    """
    previous = install(Telemetry())
    try:
        cache = EngineCache(capacity=4, freeze=False)
        for key in ("a", "b", "c"):
            cache.put(key, make_engine(dataset))
        cache.clear()
        assert len(cache) == 0
        assert cache.stats.invalidations == 3
        assert get_telemetry().counters()["engine_cache.invalidation"] == 3
        # An empty clear is a no-op on both stats and telemetry.
        cache.clear()
        assert cache.stats.invalidations == 3
        assert get_telemetry().counters()["engine_cache.invalidation"] == 3
    finally:
        install(previous)


def test_cache_put_same_key_replace_never_evicts(dataset):
    """Regression (bugfix): replacing a resident key must not run evictions.

    A same-key put never grows the cache, so at full capacity it must not
    evict (or count as evicting) the key's LRU neighbor -- previously the
    over-capacity loop could fire on a replace and throw out a live entry.
    """
    previous = install(Telemetry())
    try:
        cache = EngineCache(capacity=2, freeze=False)
        cache.put("a", make_engine(dataset, seed=1))
        cache.put("b", make_engine(dataset, seed=2))
        replacement = make_engine(dataset, seed=3)
        cache.put("a", replacement)  # replace at full capacity
        assert cache.stats.evictions == 0
        assert "engine_cache.eviction" not in get_telemetry().counters()
        assert sorted(cache.keys()) == ["a", "b"]
        assert cache.get("a") is replacement
        # The replace refreshed "a"'s recency: a genuine insert evicts "b".
        cache.put("c", make_engine(dataset, seed=4))
        assert cache.stats.evictions == 1
        assert cache.keys() == ["a", "c"]
    finally:
        install(previous)


def test_cache_rejects_nonpositive_capacity():
    with pytest.raises(InvalidParameterError):
        EngineCache(capacity=0)


def test_cache_rejects_unknown_freeze_methods():
    # Fail at construction, not after the first expensive factory build.
    with pytest.raises(InvalidParameterError):
        EngineCache(freeze_methods=["indexes"])  # typo for "indexest"


# ---------------------------------------------------------------- PitexService
def test_service_answers_queries_and_records_metrics(dataset):
    engine = make_engine(dataset)
    users = dataset.workload("mid", 3)
    with PitexService.for_engine(engine, num_workers=2) as service:
        futures = [
            service.submit(QueryRequest(user=user, k=2, method="lazy", group="mid"))
            for user in users
        ]
        responses = [future.result() for future in futures]
    assert all(response.ok for response in responses)
    assert all(response.result.tag_ids for response in responses)
    snapshot = service.metrics.snapshot()
    assert snapshot["completed"] == 3
    assert snapshot["failed"] == 0
    assert snapshot["latency"]["count"] == 3
    assert snapshot["latency"]["p99"] >= snapshot["latency"]["p50"] > 0.0
    assert snapshot["groups"]["mid"]["count"] == 3
    assert snapshot["throughput_qps"] > 0.0


def test_service_throughput_counts_completed_requests_only():
    """A service that fails every request reports 0 qps, not its failure rate."""

    def provider(key):
        raise RuntimeError("no engine")

    with PitexService(provider, num_workers=2) as service:
        responses = [service.submit(QueryRequest(user=user, k=2)).result() for user in range(5)]
    assert not any(response.ok for response in responses)
    snapshot = service.metrics.snapshot()
    assert (snapshot["completed"], snapshot["failed"]) == (0, 5)
    assert snapshot["throughput_qps"] == 0.0


def test_failed_requests_stay_out_of_the_execute_series():
    """Requests that never reached an engine add no execute sample; latency keeps them."""

    def provider(key):
        raise RuntimeError("no engine")

    with PitexService(provider, num_workers=2) as service:
        responses = [service.submit(QueryRequest(user=user, k=2)).result() for user in range(5)]
    assert not any(response.ok for response in responses)
    snapshot = service.metrics.snapshot()
    assert (snapshot["completed"], snapshot["failed"]) == (0, 5)
    assert snapshot["execute"]["count"] == 0
    assert snapshot["latency"]["count"] == 5 and snapshot["queue"]["count"] == 5


def test_service_durations_read_the_obs_clock(dataset, monkeypatch):
    """A scripted obs clock reaches the execute, queue and uptime figures exactly."""
    import repro.obs.clock as clock_module

    class ScriptedClock(clock_module.Clock):
        now = 100.0

        def monotonic(self):
            return self.now

    scripted = ScriptedClock()
    monkeypatch.setattr(clock_module, "DEFAULT_CLOCK", scripted)
    engine = make_engine(dataset)
    durations = iter([0.125, 0.5, 0.25])
    query = engine.query

    def timed_query(**kwargs):
        result = query(**kwargs)
        scripted.now += next(durations)
        return result

    engine.query = timed_query
    with PitexService.for_engine(engine, num_workers=1) as service:
        responses = [
            service.submit(QueryRequest(user=user, k=2, method="lazy")).result()
            for user in dataset.workload("mid", 3)
        ]
        snapshot = service.metrics.snapshot()
    assert [response.execute_seconds for response in responses] == [0.125, 0.5, 0.25]
    assert [response.queue_seconds for response in responses] == [0.0, 0.0, 0.0]
    execute = snapshot["execute"]
    assert (execute["count"], execute["p50"], execute["min"], execute["max"]) == (3, 0.25, 0.125, 0.5)
    assert snapshot["elapsed_seconds"] == 0.875


def test_service_snapshot_carries_telemetry_deltas(dataset):
    """The metrics snapshot grows a telemetry section scoped to the service.

    Counters incremented before the service existed (engine builds, other
    tests) must not leak in: ServiceMetrics reports deltas against the
    registry state at construction.
    """
    previous = install(Telemetry())
    try:
        engine = make_engine(dataset)
        users = dataset.workload("mid", 3)
        get_telemetry().counter("query.count", 100)  # pre-service noise
        with PitexService.for_engine(engine, num_workers=2) as service:
            for user in users:
                assert service.submit(QueryRequest(user=user, k=2, method="lazy")).result().ok
        telemetry = service.metrics.snapshot()["telemetry"]
        assert telemetry["counters"]["query.count"] == 3  # the 100 is baseline
        assert telemetry["counters"]["query.lazy.count"] == 3
        assert telemetry["counters"]["query.lazy.samples"] > 0
        assert telemetry["deterministic"]["query.count"] == 3
        assert all(
            name.startswith(("query.", "estimator.", "engine_cache."))
            for name in telemetry["deterministic"]
        )
        assert telemetry["workers"] == {}  # thread backend: no process shards
    finally:
        install(previous)


def test_service_sync_query_and_failure_paths(dataset):
    engine = make_engine(dataset)
    with PitexService.for_engine(engine) as service:
        answered = service.submit(QueryRequest(user=dataset.workload("mid", 1)[0], k=2, method="lazy"))
        assert answered.result().ok and answered.result().result.tag_ids
        response = service.submit(QueryRequest(user=10**9, k=2, method="lazy")).result()
        assert not response.ok
        assert "UnknownVertexError" in response.error
        again = service.submit(QueryRequest(user=10**9, k=2, method="lazy")).result()
        assert not again.ok and again.error.startswith("UnknownVertexError")
    assert service.metrics.snapshot()["failed"] == 2


def in_flight(service):
    with service._dispatch._condition:
        return [slot.in_flight for slot in service._workers]


def hold_queries(engine, ran=None):
    """Make ``engine.query`` wait for the returned event; ``entered`` counts the waits.

    Appends each query's user to ``ran`` in the order the queries start.
    """
    entered, release, query = threading.Semaphore(0), threading.Event(), engine.query

    def held_query(**kwargs):
        if ran is not None:
            ran.append(kwargs["user"])
        entered.release()
        assert release.wait(timeout=30)
        return query(**kwargs)

    engine.query = held_query
    return entered, release


def test_requests_go_to_the_least_loaded_thread_worker(dataset):
    """N workers held inside the engine, M requests queued: in-flight counts differ by at most one.

    Every thread worker is a Dispatcher slot fed through its own inbox, so a
    request joins the worker with the fewest in flight when it is
    submitted.  Released, the workers answer as the single-worker oracle.
    """
    users = dataset.workload("mid", 4) + dataset.workload("low", 3)
    requests = [QueryRequest(user=user, k=2, method="lazy") for user in users]
    num_workers = 3
    engine = make_engine(dataset)
    entered, release = hold_queries(engine)
    with PitexService.for_engine(engine, num_workers=num_workers) as service:
        try:
            futures = [service.submit(request) for request in requests]
            for _ in range(num_workers):
                assert entered.acquire(timeout=30)
            counts = in_flight(service)
        finally:
            release.set()
        responses = [future.result(timeout=60) for future in futures]
    assert sum(counts) == len(requests)
    assert max(counts) - min(counts) <= 1
    assert all(response.ok and response.worker is None for response in responses)
    with PitexService.for_engine(make_engine(dataset), num_workers=1) as oracle:
        expected = [oracle.submit(request).result() for request in requests]
    assert answer_digest(r.result for r in responses) == answer_digest(r.result for r in expected)


def test_a_future_cancelled_while_queued_is_released_unexecuted(dataset):
    engine = make_engine(dataset)
    users = dataset.workload("mid", 3)
    ran = []
    entered, release = hold_queries(engine, ran)
    with PitexService.for_engine(engine, num_workers=1) as service:
        try:
            first = service.submit(QueryRequest(user=users[0], k=2, method="lazy"))
            assert entered.acquire(timeout=30)
            second = service.submit(QueryRequest(user=users[1], k=2, method="lazy"))
            third = service.submit(QueryRequest(user=users[2], k=2, method="lazy"))
            assert second.cancel()  # queued behind the held first request
        finally:
            release.set()
        assert first.result(timeout=60).ok and third.result(timeout=60).ok
        assert in_flight(service) == [0]
    assert ran == [users[0], users[2]]
    assert service.metrics.snapshot()["completed"] == 2


def test_close_answers_every_queued_request_in_fifo_order(dataset):
    engine = make_engine(dataset)
    users = dataset.workload("mid", 3) + dataset.workload("low", 2)
    ran = []
    entered, release = hold_queries(engine, ran)
    service = PitexService.for_engine(engine, num_workers=1)
    futures = [service.submit(QueryRequest(user=user, k=2, method="lazy")) for user in users]
    assert entered.acquire(timeout=30)
    timer = threading.Timer(0.2, release.set)  # close() starts while the worker is held
    timer.start()
    service.close()
    timer.join()
    assert all(future.done() and future.result().ok for future in futures)
    assert ran == users


def test_service_routes_engine_keys_and_fails_unknown(dataset):
    engines = {"a": make_engine(dataset, seed=1), "b": make_engine(dataset, seed=2)}

    def provider(key):
        return engines[key]

    user = dataset.workload("mid", 1)[0]
    with PitexService(provider, num_workers=2) as service:
        assert service.num_workers == 2
        ok_a = service.submit(QueryRequest(user=user, k=2, method="lazy", engine_key="a")).result()
        ok_b = service.submit(QueryRequest(user=user, k=2, method="lazy", engine_key="b")).result()
        bad = service.submit(QueryRequest(user=user, k=2, method="lazy", engine_key="zz")).result()
    assert ok_a.ok and ok_b.ok
    assert not bad.ok and "unavailable" in bad.error


def test_service_survives_cancelled_queued_future(dataset):
    engine = make_engine(dataset)
    user = dataset.workload("mid", 1)[0]
    with PitexService.for_engine(engine, num_workers=1) as service:
        first = service.submit(QueryRequest(user=user, k=2, method="lazy"))
        second = service.submit(QueryRequest(user=user, k=2, method="lazy"))
        third = service.submit(QueryRequest(user=user, k=2, method="lazy"))
        second.cancel()  # may or may not win the race with the worker
        # The worker must survive a cancelled future and keep draining.
        assert first.result().ok
        assert third.result().ok


def test_service_rejects_submit_after_close(dataset):
    service = PitexService.for_engine(make_engine(dataset))
    service.close()
    with pytest.raises(RuntimeError):
        service.submit(QueryRequest(user=0, k=2, method="lazy", engine_key=DEFAULT_ENGINE_KEY))


def test_service_rejects_bad_parameters(dataset):
    engine = make_engine(dataset)
    with pytest.raises(InvalidParameterError):
        PitexService.for_engine(engine, num_workers=0)
    with pytest.raises(InvalidParameterError):
        PitexService.for_engine(engine, max_batch=0)
    with pytest.raises(InvalidParameterError):
        PitexService.for_engine(engine, max_batch=2)
