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
* *accounting*: per-worker latency shards merge into the parent metrics on
  close, and replay reports carry ``backend`` + ``host_cores``.

The worker loop (:func:`_serve_requests`, :func:`_worker_main`) is also
driven in-process over real ``multiprocessing`` pipes, so its branches --
including the unpicklable-result degrade path -- are exercised under
coverage, which cannot see forked children.
"""

import dataclasses
import os
import threading

import multiprocessing
import numpy as np
import pytest

from repro.core.engine import PitexEngine
from repro.datasets.synthetic import load_dataset
from repro.exceptions import GraphError, StoreError, WorkerError
from repro.graph.digraph import TopicSocialGraph
from repro.obs.telemetry import Telemetry, get_telemetry, install
from repro.serve.replay import replay_stream
from repro.serve.service import PitexService, QueryRequest
from repro.serve.sharded import (
    EngineSpec,
    ProcessShardedService,
    _serve_requests,
    _worker_main,
    build_engine_from_spec,
    publish_engine_spec,
)
from repro.serve.store import IndexStore, graph_bundle_key

METHODS = ("indexest", "indexest+", "delaymat")
ENGINE_SEED = 7


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
    assert mapped.freeze_guard.violations == []


def test_build_engine_from_spec_missing_index_raises(spec):
    broken = dataclasses.replace(spec, index_samples=51)  # never persisted
    with pytest.raises(StoreError):
        build_engine_from_spec(broken)


# ------------------------------------------------------------- full service
def test_process_replay_bitwise_equals_thread_oracle(dataset, reference_engine, spec):
    stream = dataset.query_workload.query_stream(24, seed=13)
    with PitexService.for_engine(reference_engine, num_workers=1, max_batch=4) as service:
        oracle = replay_stream(service, stream, method="indexest+", k=2)
    oracle_telemetry = service.metrics.telemetry()
    assert oracle.failures == 0

    with ProcessShardedService(spec, num_workers=3) as service:
        report = replay_stream(service, stream, method="indexest+", k=2)
    snapshot = service.metrics.snapshot()

    assert report.failures == 0
    assert report.backend == "process"
    assert report.num_workers == 3
    facets = lambda rep: [  # noqa: E731
        (r.request.user, r.result.tag_ids, r.result.spread) for r in rep.responses
    ]
    assert facets(report) == facets(oracle)

    # Worker latency shards ship at shutdown and must cover every query once.
    shards = snapshot["worker_shards"]
    assert sum(shard["count"] for shard in shards.values()) == len(stream)
    assert snapshot["worker_execute"]["count"] == len(stream)

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
        reference_engine, num_workers=1, max_batch=4, answer_cache=AnswerCache()
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
            service._processes[0].kill()
            in_flight.result(timeout=60.0)

            # After EOF detection the shard is marked dead: immediate clean error.
            deadline = 60.0
            while service._reply_conns[0] is not None and deadline > 0:
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


def test_query_convenience_wrapper_unwraps_or_raises(spec, reference_engine, dataset):
    user = dataset.workload("mid", 1)[0]
    with ProcessShardedService(spec, num_workers=1) as service:
        result = service.query(user=user, k=2, method="indexest+")
        oracle = reference_engine.query(user=user, k=2, method="indexest+")
        assert facet(result) == facet(oracle)
        with pytest.raises(WorkerError):
            service.query(user=user, k=2, method="mc")  # not a frozen method


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
    outcome = {}

    def run():
        outcome["shard"], outcome["completed"], outcome["failed"] = _serve_requests(
            engine, 9, request_recv, reply_send
        )
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
    return replies, outcome


def test_serve_requests_happy_error_and_unpicklable_paths():
    request = QueryRequest(user=3, k=2, method="indexest+")

    replies, outcome = drive_serve_requests(
        _StubEngine(lambda kwargs: ("answer", kwargs["user"])),
        [("query", 0, request), ("stop",)],
    )
    assert replies[0][:4] == ("result", 9, 0, None)
    assert replies[0][4] == ("answer", 3)
    assert (outcome["completed"], outcome["failed"]) == (1, 0)
    assert outcome["shard"].count == 1

    def boom(kwargs):
        raise ValueError("bad query")

    replies, outcome = drive_serve_requests(_StubEngine(boom), [("query", 1, request)])
    assert replies[0][3] == "ValueError: bad query"
    assert (outcome["completed"], outcome["failed"]) == (0, 1)

    replies, outcome = drive_serve_requests(
        _StubEngine(lambda kwargs: lambda: None),  # a lambda cannot pickle
        [("query", 2, request), ("stop",)],
    )
    assert replies[0][0] == "result"
    assert "could not serialize" in replies[0][3]
    assert (outcome["completed"], outcome["failed"]) == (0, 1)


def test_worker_main_in_process_reports_ready_results_and_shard(spec, dataset):
    context = multiprocessing.get_context()
    request_recv, request_send = context.Pipe(duplex=False)
    reply_recv, reply_send = context.Pipe(duplex=False)
    thread = threading.Thread(target=_worker_main, args=(4, spec, request_recv, reply_send))
    thread.start()
    user = dataset.workload("mid", 1)[0]
    request_send.send(("query", 0, QueryRequest(user=user, k=2, method="indexest")))
    request_send.send(("stop",))
    request_send.close()
    messages = []
    while True:
        try:
            messages.append(reply_recv.recv())
        except EOFError:
            break
    thread.join(timeout=60.0)
    assert not thread.is_alive()
    kinds = [message[0] for message in messages]
    assert kinds == ["ready", "result", "shard"]
    assert messages[1][3] is None and messages[1][4] is not None
    assert messages[2][2].count == 1  # the latency shard saw the one query


def test_worker_main_reports_fatal_on_broken_spec(spec):
    context = multiprocessing.get_context()
    request_recv, request_send = context.Pipe(duplex=False)
    reply_recv, reply_send = context.Pipe(duplex=False)
    bogus = dataclasses.replace(spec, bundle_key="e" * 32)
    thread = threading.Thread(target=_worker_main, args=(5, bogus, request_recv, reply_send))
    thread.start()
    message = reply_recv.recv()
    thread.join(timeout=30.0)
    assert message[0] == "fatal" and message[1] == 5
    assert "StoreError" in message[2]
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
