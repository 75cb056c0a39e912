"""Fork-safety / equivalence tests for the process-sharded serving backend.

The contract under test (``repro.serve.sharded``): a frozen engine replica
reconstructed in another process from the :class:`IndexStore` -- shared graph
bundle plus offline indexes, all through read-only ``mmap`` -- answers
bitwise identically to the in-process thread oracle, because a frozen
engine's answer is a pure function of ``(engine seed, query fingerprint)``.

Three failure families are pinned alongside the happy path:

* *mapping*: ``to_shared_arrays``/``from_shared_arrays`` round-trip the graph
  exactly, ``mmap`` and in-memory replicas agree, and the mapped arrays are
  genuinely read-only;
* *death*: a killed worker surfaces a clean ``WorkerError``-tagged response
  (never a hang), in-flight and after the fact, while surviving shards keep
  serving; a broken spec fails construction with the worker's real error;
* *accounting*: the parent's per-worker execute series follow the
  responses' worker ids, worker telemetry shards merge into the parent
  metrics on close, and replay reports carry ``backend`` + ``host_cores``;
* *dispatch*: a request runs on the least-loaded live worker unless answer
  caches pin it to its affinity shard, and the per-worker in-flight counts
  return to zero however a request ends.

The full-service replay and dispatch tests run under every start method the
platform offers (``fork``, ``spawn``, ``forkserver``).

The worker loop (:func:`_serve_requests`, :func:`_worker_main`) is also
driven in-process over real ``multiprocessing`` pipes, so its branches --
including the unpicklable-result degrade path -- are exercised under
coverage, which cannot see forked children.
"""

import dataclasses
import os
import signal
import threading
from collections import Counter

import multiprocessing
import numpy as np
import pytest

from repro.core.engine import PitexEngine
from repro.datasets.synthetic import load_dataset
from repro.exceptions import GraphError, ReadOnlyGraphError, StoreError, WorkerError
from repro.graph.digraph import TopicSocialGraph
from repro.obs.telemetry import Telemetry, get_telemetry, install
from repro.serve.replay import replay_stream
from repro.serve.service import DEAD, PitexService, QueryRequest
from repro.serve.sharded import (
    Fatal,
    ProcessShardedService,
    Query,
    Ready,
    Reply,
    Shard,
    Stop,
    _serve_requests,
    _worker_main,
    build_engine_from_spec,
    publish_engine_spec,
)
from repro.serve.store import IndexStore, graph_bundle_key
from repro.utils.stats import LatencyAccumulator

METHODS = ("indexest", "indexest+", "delaymat")
ENGINE_SEED = 7
START_METHODS = [
    pytest.param(
        method,
        marks=pytest.mark.skipif(
            method not in multiprocessing.get_all_start_methods(),
            reason=f"start method {method!r} is not available on this platform",
        ),
    )
    for method in ("fork", "spawn", "forkserver")
]


@pytest.fixture(scope="module")
def dataset():
    return load_dataset("lastfm", scale=0.08, seed=11)


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    return IndexStore(tmp_path_factory.mktemp("pitex-process-store"))


@pytest.fixture(scope="module")
def spec(dataset, store):
    return publish_engine_spec(
        store,
        dataset.graph,
        dataset.model,
        engine_seed=ENGINE_SEED,
        index_samples=50,
        methods=METHODS,
        ks=(2,),
        max_samples=40,
        default_k=2,
        index_seed=11,
    )


@pytest.fixture(scope="module")
def reference_engine(dataset, store, spec):
    """The in-process oracle: same seed, same store-built indexes, frozen."""
    graph, model = dataset.graph, dataset.model
    rr_index = store.load_rr_index(graph, model, 50)
    delayed_index = store.load_delayed_index(graph, model, 50)
    engine = PitexEngine(
        graph,
        model,
        max_samples=40,
        index_samples=50,
        default_k=2,
        seed=ENGINE_SEED,
        rr_index=rr_index,
        delayed_index=delayed_index,
    )
    return engine.freeze(methods=METHODS, ks=(2,))


def answer_plan(engine, users):
    """Bitwise-comparable answers for every (user, method) pair."""
    return [
        (user, method) + facet(engine.query(user=user, k=2, method=method))
        for user in users
        for method in METHODS
    ]


def facet(result):
    return (result.tag_ids, result.spread, result.samples_drawn, result.edges_visited)


# ----------------------------------------------------------- shared arrays
def test_graph_shared_arrays_roundtrip_is_exact(dataset):
    graph = dataset.graph
    arrays = graph.to_shared_arrays()
    rebuilt = TopicSocialGraph.from_shared_arrays(arrays)
    assert rebuilt.fingerprint() == graph.fingerprint()
    assert rebuilt.version == graph.version
    assert rebuilt.num_vertices == graph.num_vertices
    assert rebuilt.num_edges == graph.num_edges
    np.testing.assert_array_equal(rebuilt.csr.out_indptr, graph.csr.out_indptr)
    np.testing.assert_array_equal(rebuilt.csr.in_indptr, graph.csr.in_indptr)
    np.testing.assert_array_equal(rebuilt.probability_matrix, graph.probability_matrix)
    assert rebuilt.snapshot() is rebuilt  # a replica is one read-only version
    with pytest.raises(ReadOnlyGraphError):
        rebuilt.add_edge(0, 1, [0.5] * rebuilt.num_topics)


def test_graph_shared_arrays_header_mismatch_raises(dataset):
    arrays = dict(dataset.graph.to_shared_arrays())
    header = arrays["shape"].copy()
    header[2] += 1  # claim one more edge than the arrays carry
    arrays["shape"] = header
    with pytest.raises(GraphError):
        TopicSocialGraph.from_shared_arrays(arrays)


def test_graph_bundle_mmap_arrays_are_read_only(dataset, store, spec):
    graph, model, manifest = store.load_graph_bundle(spec.bundle_key, mmap=True)
    assert manifest["graph_fingerprint"] == dataset.graph.fingerprint()
    assert isinstance(graph.probability_matrix, np.memmap)
    with pytest.raises(ValueError):
        graph.probability_matrix[0, 0] = 0.5
    assert model.content_hash() == dataset.model.content_hash()


def test_graph_bundle_key_is_stable_and_save_idempotent(dataset, store, spec):
    key = graph_bundle_key(dataset.graph, dataset.model)
    assert key == spec.bundle_key
    assert store.save_graph_bundle(dataset.graph, dataset.model).key == key


def test_load_graph_bundle_missing_key_raises(store):
    with pytest.raises(StoreError):
        store.load_graph_bundle("0" * 32)


# ----------------------------------------------------------- replica builds
def test_mmap_and_in_memory_replicas_match_reference(reference_engine, spec, dataset):
    users = dataset.workload("mid", 3) + dataset.workload("low", 1)
    oracle = answer_plan(reference_engine, users)
    mapped = build_engine_from_spec(spec)
    in_memory = build_engine_from_spec(dataclasses.replace(spec, mmap=False))
    assert answer_plan(mapped, users) == oracle
    assert answer_plan(in_memory, users) == oracle


def test_build_engine_from_spec_missing_index_raises(spec):
    broken = dataclasses.replace(spec, index_samples=51)  # never persisted
    with pytest.raises(StoreError):
        build_engine_from_spec(broken)


@pytest.mark.parametrize("step", ["to_shared_arrays", "save_graph_bundle"])
def test_a_write_mid_publish_leaves_one_whole_version(dataset, tmp_path, monkeypatch, step):
    """A write that lands partway through publishing never splits the published version.

    ``step`` adds an edge to the source graph right after it runs: inside the
    bundle save (after the graph's arrays are read) or between the bundle and
    the index build.  The replica must rebuild the version that was current
    when publishing began.
    """
    source = dataset.graph.copy()
    published = source.snapshot().fingerprint()
    vertices = list(source.vertices())
    write = next((s, t) for s in vertices for t in vertices if s != t and not source.has_edge(s, t))
    owner = TopicSocialGraph if step == "to_shared_arrays" else IndexStore
    original = getattr(owner, step)

    def step_then_write(self, *args, **kwargs):
        result = original(self, *args, **kwargs)
        if not source.has_edge(*write):
            source.add_edge(*write, [0.5] * source.num_topics)
        return result

    monkeypatch.setattr(owner, step, step_then_write)
    spec = publish_engine_spec(
        IndexStore(tmp_path),
        source,
        dataset.model,
        engine_seed=ENGINE_SEED,
        index_samples=20,
        methods=("indexest",),
        ks=(2,),
        max_samples=40,
        default_k=2,
        index_seed=3,
    )
    monkeypatch.undo()
    assert source.has_edge(*write)  # the write did land mid-publish
    replica = build_engine_from_spec(spec)
    assert replica.graph.fingerprint() == published
    assert replica.rr_index.graph is replica.graph


# ------------------------------------------------------------- full service
@pytest.mark.parametrize("start_method", START_METHODS)
def test_process_replay_bitwise_equals_thread_oracle(
    dataset, reference_engine, spec, start_method
):
    stream = dataset.query_workload.query_stream(24, seed=13)
    with PitexService.for_engine(reference_engine, num_workers=1) as service:
        oracle = replay_stream(service, stream, method="indexest+", k=2)
    oracle_telemetry = service.metrics.telemetry()
    assert oracle.failures == 0

    with ProcessShardedService(spec, num_workers=3, start_method=start_method) as service:
        report = replay_stream(service, stream, method="indexest+", k=2)
    snapshot = service.metrics.snapshot()

    assert report.failures == 0
    assert report.backend == "process"
    assert report.num_workers == 3
    facets = lambda rep: [  # noqa: E731
        (r.request.user, r.result.tag_ids, r.result.spread) for r in rep.responses
    ]
    assert facets(report) == facets(oracle)

    # The per-worker execute series split the parent's: every query once.
    shards = snapshot["worker_shards"]
    assert sum(shard["count"] for shard in shards.values()) == len(stream)
    assert snapshot["execute"]["count"] == len(stream)

    # The tentpole invariant: the deterministic counter subset is *exactly*
    # equal across backends -- not approximately, not modulo worker counters.
    # Wall-clock durations are the only telemetry allowed to differ.
    process_telemetry = service.metrics.telemetry()
    deterministic = process_telemetry["deterministic"]
    assert deterministic == oracle_telemetry["deterministic"]
    assert deterministic["query.count"] == len(stream)
    assert deterministic["query.indexest+.count"] == len(stream)
    assert deterministic["query.indexest+.samples"] > 0
    # The process run aggregates one telemetry shard per worker; the thread
    # oracle runs in-process and therefore has none.
    assert set(process_telemetry["workers"]) == {"worker-0", "worker-1", "worker-2"}
    assert oracle_telemetry["workers"] == {}
    assert snapshot["telemetry"]["deterministic"] == deterministic

    # Worker telemetry shards also only arrive at close, so a complete report
    # re-captures the section afterwards (the documented ReplayReport caveat).
    report.telemetry = process_telemetry
    document = report.to_json()
    assert document["backend"] == "process"
    assert document["host_cores"] == int(os.cpu_count() or 1)
    assert document["telemetry"]["deterministic"] == deterministic


def test_worker_shards_are_the_responses_execute_series_split_by_worker(dataset, spec):
    """``worker_shards`` is ``execute`` split by :attr:`QueryResponse.worker`.

    One client submits in stream order and each worker answers its pipe in
    order, so every shard saw exactly its responses' ``execute_seconds`` in
    response order and must summarize to the same numbers, bit for bit.
    """
    stream = dataset.query_workload.query_stream(16, seed=5)
    with ProcessShardedService(spec, num_workers=2) as service:
        report = replay_stream(service, stream, method="indexest+", k=2)
    snapshot = service.metrics.snapshot()
    assert report.failures == 0
    by_worker = Counter(response.worker for response in report.responses)
    assert None not in by_worker
    shards = snapshot["worker_shards"]
    assert set(shards) == {f"worker-{worker}" for worker in by_worker}
    for worker, count in by_worker.items():
        label = f"worker-{worker}"
        assert shards[label]["count"] == count
        fresh = LatencyAccumulator(label=label)
        for response in report.responses:
            if response.worker == worker:
                fresh.add(response.execute_seconds)
        assert shards[label] == fresh.summary()


def test_process_answer_cache_bitwise_equals_thread_cached_oracle(
    dataset, reference_engine, spec
):
    """Per-worker answer caches: bitwise answers + identical answer_cache.*.

    The process backend shards requests by user, so each fingerprint lands on
    exactly one worker and the per-worker cache tallies must sum to the
    shared thread-backend cache's totals -- which puts ``answer_cache.hit``,
    ``.miss`` and ``.bytes`` in the deterministic counter subset compared
    here.
    """
    from repro.serve.answers import AnswerCache

    stream = dataset.query_workload.query_stream(24, seed=13, zipf_s=1.3)
    unique = len({user for _, user in stream})
    assert unique < len(stream)

    with PitexService.for_engine(
        reference_engine, num_workers=1, answer_cache=AnswerCache()
    ) as service:
        oracle = replay_stream(service, stream, method="indexest+", k=2)
    oracle_deterministic = service.metrics.telemetry()["deterministic"]
    assert oracle.failures == 0
    assert oracle.cache_hits == len(stream) - unique

    with ProcessShardedService(spec, num_workers=3, answer_cache=True) as service:
        report = replay_stream(service, stream, method="indexest+", k=2)
    process_deterministic = service.metrics.telemetry()["deterministic"]

    assert report.failures == 0
    assert report.answers_digest == oracle.answers_digest
    assert report.cache_hits == oracle.cache_hits
    assert process_deterministic == oracle_deterministic
    assert process_deterministic["answer_cache.miss"] == unique
    assert process_deterministic["answer_cache.hit"] == len(stream) - unique
    assert process_deterministic["answer_cache.bytes"] > 0
    # Hits skip the engine on both backends: query.count counts misses only.
    assert process_deterministic["query.count"] == unique


def user_sharded_to(service, worker_id, method="indexest+"):
    """A user id whose requests land on ``worker_id``."""
    for user in range(10_000):
        if service.shard_of(QueryRequest(user=user, k=2, method=method)) == worker_id:
            return user
    raise AssertionError("no user shards to this worker")


def test_killed_worker_surfaces_clean_errors_and_peers_survive(spec):
    # Isolate the global registry so the loss accounting below is exact.
    previous = install(Telemetry())
    try:
        with ProcessShardedService(spec, num_workers=2) as service:
            victim_user = user_sharded_to(service, 0)
            survivor_user = user_sharded_to(service, 1)

            # In-flight: the request may complete or fail depending on timing,
            # but it must resolve -- never hang.
            in_flight = service.submit(QueryRequest(user=victim_user, k=2, method="indexest+"))
            service._workers[0].runner.kill()
            in_flight.result(timeout=60.0)

            # After EOF detection the shard is marked dead: immediate clean error.
            deadline = 60.0
            while service._workers[0].state != DEAD and deadline > 0:
                threading.Event().wait(0.05)
                deadline -= 0.05
            late = service.submit(QueryRequest(user=victim_user, k=2, method="indexest+")).result(
                timeout=60.0
            )
            assert not late.ok
            assert "WorkerError" in late.error and "worker 0" in late.error

            # The surviving shard keeps answering.
            alive = service.submit(QueryRequest(user=survivor_user, k=2, method="indexest+")).result(
                timeout=60.0
            )
            assert alive.ok

        # Satellite (c), loss accounting: the kill is not silent.  Worker 0
        # died after readiness without shipping its telemetry shard, so the
        # parent counts both the death and the lost shard; worker 1 closed
        # cleanly, so exactly one of each.
        counters = get_telemetry().counters()
        assert counters["worker.deaths"] == 1
        assert counters["worker.shards_lost"] == 1
        # Merging stays lossless over the death: the survivor's shard arrived
        # and still contributes its queries to the merged telemetry.
        telemetry = service.metrics.telemetry()
        assert set(telemetry["workers"]) == {"worker-1"}
        assert telemetry["workers"]["worker-1"]["query.count"] >= 1
        assert telemetry["deterministic"]["query.count"] >= 1
    finally:
        install(previous)


def users_sharing_a_shard(service, dataset):
    """``(shard, [user, user])``: two distinct query users with one affinity shard."""
    by_shard = {}
    for user in dataset.workload("mid", 8) + dataset.workload("low", 8):
        shard = service.shard_of(QueryRequest(user=user, k=2, method="indexest+"))
        users = by_shard.setdefault(shard, [])
        if user not in users:
            users.append(user)
        if len(users) == 2:
            return shard, users
    raise AssertionError("no two users share an affinity shard")


def in_flight(service):
    with service._dispatch._condition:
        return [slot.in_flight for slot in service._workers]


def submit_while_stopped(service, worker_id, requests):
    """Submit ``requests`` from barrier-released threads while ``worker_id`` is stopped.

    Stopping the worker keeps every request in flight until it resumes, so
    the routing each ``submit`` sees does not depend on thread timing.
    """
    barrier = threading.Barrier(len(requests) + 1)
    futures = [None] * len(requests)

    def client(slot):
        barrier.wait()
        futures[slot] = service.submit(requests[slot])

    threads = [threading.Thread(target=client, args=(slot,)) for slot in range(len(requests))]
    pid = service._workers[worker_id].runner.pid
    os.kill(pid, signal.SIGSTOP)
    try:
        for thread in threads:
            thread.start()
        barrier.wait()
        for thread in threads:
            thread.join(timeout=60.0)
        counts = in_flight(service)
    finally:
        os.kill(pid, signal.SIGCONT)
    return [future.result(timeout=60.0) for future in futures], counts


needs_sigstop = pytest.mark.skipif(
    not hasattr(signal, "SIGSTOP"), reason="needs SIGSTOP to hold a worker busy"
)


@needs_sigstop
@pytest.mark.parametrize("start_method", START_METHODS)
def test_busy_affinity_shard_hands_a_request_to_the_idle_worker(
    dataset, reference_engine, spec, start_method
):
    with ProcessShardedService(spec, num_workers=2, start_method=start_method) as service:
        affinity, users = users_sharing_a_shard(service, dataset)
        requests = [QueryRequest(user=user, k=2, method="indexest+") for user in users]
        responses, counts = submit_while_stopped(service, affinity, requests)
        assert counts == [1, 1]
        assert in_flight(service) == [0, 0]
    with PitexService.for_engine(reference_engine, num_workers=1) as oracle_service:
        oracle = [oracle_service.submit(request).result(timeout=60.0) for request in requests]

    assert all(response.ok for response in responses)
    assert sorted(response.worker for response in responses) == [0, 1]
    assert [facet(response.result) for response in responses] == [
        facet(response.result) for response in oracle
    ]
    assert all(response.worker is None for response in oracle)


@needs_sigstop
def test_answer_cache_keeps_requests_on_their_affinity_shard(dataset, reference_engine, spec):
    with ProcessShardedService(spec, num_workers=2, answer_cache=True) as service:
        affinity, users = users_sharing_a_shard(service, dataset)
        requests = [QueryRequest(user=user, k=2, method="indexest+") for user in users]
        responses, counts = submit_while_stopped(service, affinity, requests)
        assert counts[affinity] == 2
        repeat = service.submit(requests[0]).result(timeout=60.0)

    assert [response.worker for response in responses] == [affinity, affinity]
    assert [facet(response.result) for response in responses] == [
        facet(reference_engine.query(user=user, k=2, method="indexest+")) for user in users
    ]
    assert repeat.cache_hit and repeat.worker is None


def stub_query(kwargs):
    """Worker-side stand-in: user 1 raises, user 2 cannot pickle, others answer."""
    if kwargs["user"] == 1:
        raise ValueError("bad query")
    if kwargs["user"] == 2:
        return lambda: None
    return ("answer", kwargs["user"])


@needs_sigstop
@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the stub engine reaches the workers only through fork",
)
def test_in_flight_counts_return_to_zero_however_a_request_ends(spec, monkeypatch):
    import repro.serve.sharded as sharded

    monkeypatch.setattr(sharded, "build_engine_from_spec", lambda _: _StubEngine(stub_query))
    previous = install(Telemetry())
    try:
        with ProcessShardedService(spec, num_workers=2, start_method="fork") as service:
            answered = service.submit(QueryRequest(user=0, k=2)).result(timeout=60.0)
            assert answered.ok and answered.result == ("answer", 0)
            assert answered.worker == service.shard_of(answered.request)
            assert in_flight(service) == [0, 0]

            failed = service.submit(QueryRequest(user=1, k=2)).result(timeout=60.0)
            assert failed.error == "ValueError: bad query"
            assert in_flight(service) == [0, 0]

            unpicklable = service.submit(QueryRequest(user=2, k=2)).result(timeout=60.0)
            assert "could not serialize" in unpicklable.error
            assert in_flight(service) == [0, 0]

            victim = user_sharded_to(service, 0)
            os.kill(service._workers[0].runner.pid, signal.SIGSTOP)
            orphan = service.submit(QueryRequest(user=victim, k=2, method="indexest+"))
            assert in_flight(service) == [1, 0]
            service._workers[0].runner.kill()
            lost = orphan.result(timeout=60.0)
            assert "WorkerError" in lost.error and "died" in lost.error
            assert in_flight(service) == [0, 0]

            # The dead worker is never picked; its affinity users still fail.
            survivor = service.submit(
                QueryRequest(user=user_sharded_to(service, 1), k=2, method="indexest+")
            ).result(timeout=60.0)
            assert survivor.ok and survivor.worker == 1
            late = service.submit(QueryRequest(user=victim, k=2, method="indexest+"))
            assert "worker 0 unavailable" in late.result(timeout=60.0).error
            assert in_flight(service) == [0, 0]
    finally:
        install(previous)


def test_broken_spec_fails_construction_with_the_workers_error(spec):
    bogus = dataclasses.replace(spec, bundle_key="f" * 32)
    with pytest.raises(WorkerError) as excinfo:
        ProcessShardedService(bogus, num_workers=2)
    assert "StoreError" in str(excinfo.value)


def test_submit_after_close_is_rejected(spec):
    service = ProcessShardedService(spec, num_workers=1)
    service.close()
    with pytest.raises(RuntimeError):
        service.submit(QueryRequest(user=0, k=2, method="indexest+"))


def test_submit_result_matches_the_oracle_or_carries_the_error(spec, reference_engine, dataset):
    user = dataset.workload("mid", 1)[0]
    with ProcessShardedService(spec, num_workers=1) as service:
        response = service.submit(QueryRequest(user=user, k=2, method="indexest+")).result()
        oracle = reference_engine.query(user=user, k=2, method="indexest+")
        assert response.ok and facet(response.result) == facet(oracle)
        failed = service.submit(QueryRequest(user=user, k=2, method="mc")).result()  # not frozen
        assert not failed.ok and failed.error.startswith("EngineFrozenError")


# --------------------------------------------- worker loop driven in-process
class _StubEngine:
    """Programmable stand-in for the frozen engine inside ``_serve_requests``."""

    def __init__(self, behavior):
        self._behavior = behavior

    def query(self, **kwargs):
        return self._behavior(kwargs)


def drive_serve_requests(engine, messages):
    """Run ``_serve_requests`` in a thread against real pipe ends."""
    context = multiprocessing.get_context()
    request_recv, request_send = context.Pipe(duplex=False)
    reply_recv, reply_send = context.Pipe(duplex=False)

    def run():
        _serve_requests(engine, 9, request_recv, reply_send)
        reply_send.close()

    thread = threading.Thread(target=run)
    thread.start()
    for message in messages:
        request_send.send(message)
    request_send.close()
    replies = []
    while True:
        try:
            replies.append(reply_recv.recv())
        except EOFError:
            break
    thread.join(timeout=30.0)
    assert not thread.is_alive()
    return replies


def test_serve_requests_happy_error_and_unpicklable_paths():
    request = QueryRequest(user=3, k=2, method="indexest+")

    replies = drive_serve_requests(
        _StubEngine(lambda kwargs: ("answer", kwargs["user"])),
        [Query(0, request), Stop()],
    )
    assert isinstance(replies[0], Reply) and replies[0].request_id == 0
    assert replies[0].outcome.error is None
    assert replies[0].outcome.result == ("answer", 3)

    def boom(kwargs):
        raise ValueError("bad query")

    replies = drive_serve_requests(_StubEngine(boom), [Query(1, request)])
    assert replies[0].outcome.error == "ValueError: bad query"

    replies = drive_serve_requests(
        _StubEngine(lambda kwargs: lambda: None),  # a lambda cannot pickle
        [Query(2, request), Stop()],
    )
    assert isinstance(replies[0], Reply)
    assert "could not serialize" in replies[0].outcome.error


def test_worker_main_in_process_reports_ready_results_and_shard(spec, dataset):
    context = multiprocessing.get_context()
    request_recv, request_send = context.Pipe(duplex=False)
    reply_recv, reply_send = context.Pipe(duplex=False)
    thread = threading.Thread(target=_worker_main, args=(4, spec, request_recv, reply_send))
    thread.start()
    user = dataset.workload("mid", 1)[0]
    request_send.send(Query(0, QueryRequest(user=user, k=2, method="indexest")))
    request_send.send(Stop())
    request_send.close()
    messages = []
    while True:
        try:
            messages.append(reply_recv.recv())
        except EOFError:
            break
    thread.join(timeout=60.0)
    assert not thread.is_alive()
    kinds = [type(message) for message in messages]
    assert kinds == [Ready, Reply, Shard]
    assert messages[1].outcome.error is None and messages[1].outcome.result is not None
    assert messages[2].telemetry["counters"]["query.count"] == 1  # the shipped telemetry


def test_worker_main_reports_fatal_on_broken_spec(spec):
    context = multiprocessing.get_context()
    request_recv, request_send = context.Pipe(duplex=False)
    reply_recv, reply_send = context.Pipe(duplex=False)
    bogus = dataclasses.replace(spec, bundle_key="e" * 32)
    thread = threading.Thread(target=_worker_main, args=(5, bogus, request_recv, reply_send))
    thread.start()
    message = reply_recv.recv()
    thread.join(timeout=30.0)
    assert isinstance(message, Fatal)
    assert "StoreError" in message.error
    request_send.close()


# ------------------------------------------------------------------- params
def test_invalid_worker_counts_are_rejected(spec):
    from repro.exceptions import InvalidParameterError

    with pytest.raises(InvalidParameterError):
        ProcessShardedService(spec, num_workers=0)


def test_engine_spec_is_picklable_and_frozen(spec):
    import pickle

    clone = pickle.loads(pickle.dumps(spec))
    assert clone == spec
    with pytest.raises(dataclasses.FrozenInstanceError):
        spec.engine_seed = 1
