"""Serving-layer benchmark: persistent index store + concurrent workload replay.

Three shape assertions back the serving subsystem (``repro.serve``):

* loading a persisted RR-Graph index from the :class:`IndexStore` is at least
  5x faster than rebuilding it from scratch (the offline/online split of
  Sec. 6 carried across process boundaries), with bitwise-equal estimates;
* a cold engine warm-started from the store answers a 50-query seeded replay
  through :class:`PitexService` with zero failures, reporting p50/p95/p99;
* the ``--workers`` axis: replaying the same stream against one *frozen*
  engine with ``--workers N`` (default 4) vs 1 worker returns bitwise
  identical answers, and -- on hosts with enough cores to make thread
  parallelism physically possible -- at least
  :data:`MIN_PARALLEL_SPEEDUP` x the single-worker throughput.  On smaller
  hosts the measured speedup is still recorded in the JSON artifact, but the
  throughput gate is skipped (a 1-core container cannot speed anything up);
* the ``--backend process`` axis: the same stream through
  :class:`ProcessShardedService` -- N forked frozen replicas on mmap'd store
  arrays -- is bitwise equal to the single-worker thread oracle, and its
  N-worker throughput clears the same speedup gate where cores allow.  Unlike
  the thread sweep, process workers escape the GIL, so this is the leg
  expected to actually scale on multi-core hosts.  The merged deterministic
  telemetry counters (``docs/observability.md``) must equal the oracle's at
  any worker count;
* the answer-cache axis: a zipfian repeat workload through a cached frozen
  service answers bitwise identically to the uncached oracle, the second
  (warm) pass hits on every query, and the warm p50 service time beats the
  cold p50 by >= :data:`MIN_WARM_SPEEDUP` x (gated where cores allow; the
  measured speedup always lands in the artifact);
* the observability tax: a traced frozen replay answers bitwise identically
  to an untraced one, and the measured throughput overhead of span recording
  lands in the JSON artifact (``trace_overhead.overhead_fraction``).

The latency/throughput report is also written as JSON -- to the path in the
``PITEX_SERVING_REPORT`` environment variable (default
``bench_serving_report.json`` in the working directory) -- which the CI
serving-smoke job uploads as a workflow artifact.
"""

import json
import os

import pytest

from repro.bench.reporting import format_table
from repro.core.engine import PitexEngine
from repro.datasets.synthetic import load_dataset
from repro.index.rr_index import RRGraphIndex
from repro.obs.clock import monotonic
from repro.obs.trace import TraceRecorder, install_recorder
from repro.serve.replay import replay_stream
from repro.serve.service import PitexService
from repro.serve.sharded import ProcessShardedService, publish_engine_spec
from repro.serve.store import IndexStore

REPLAY_QUERIES = 50
INDEX_SAMPLES = 800
NUM_TAGS = 25  # trimmed vocabulary keeps per-query exploration in the tens of ms
MIN_LOAD_SPEEDUP = 5.0
# Thread scaling of the frozen path depends on how much of the per-query work
# runs inside GIL-releasing numpy kernels, which varies with dataset scale.
MIN_PARALLEL_SPEEDUP = 2.0
MIN_CORES_FOR_SPEEDUP_GATE = 4
# Warm-vs-cold p50 gate for the fingerprint-keyed answer cache: a hit is a
# dict lookup, a miss is a full estimator run, so 5x is conservative on any
# healthy host.
MIN_WARM_SPEEDUP = 5.0
ZIPF_S = 1.2  # head-skewed repeat traffic for the answer-cache leg


@pytest.fixture(scope="module")
def serving_dataset(harness):
    scale = harness.config.scale_of("lastfm")
    return load_dataset("lastfm", scale=scale, num_tags=NUM_TAGS, seed=harness.config.seed)


@pytest.fixture(scope="module")
def serving_store(tmp_path_factory):
    return IndexStore(tmp_path_factory.mktemp("pitex-index-store"))


@pytest.fixture(scope="module")
def report_payload():
    """Collects both tests' numbers; written as the JSON artifact at teardown."""
    payload = {}
    yield payload
    path = os.environ.get("PITEX_SERVING_REPORT", "bench_serving_report.json")
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2)
    print(f"\nserving report written to {path}")


def test_store_load_is_5x_faster_than_rebuild(serving_dataset, serving_store, report_payload):
    graph, model = serving_dataset.graph, serving_dataset.model

    started = monotonic()
    built = RRGraphIndex(graph, INDEX_SAMPLES, seed=harness_seed(serving_dataset)).build()
    build_seconds = monotonic() - started

    serving_store.save_rr_index(built, model)
    started = monotonic()
    loaded = serving_store.load_rr_index(graph, model, INDEX_SAMPLES)
    load_seconds = monotonic() - started

    assert loaded is not None and loaded.is_built
    probabilities = model.edge_probabilities(graph, [0, 1])
    for user in range(0, graph.num_vertices, max(1, graph.num_vertices // 20)):
        original = built.estimate(user, probabilities)
        reloaded = loaded.estimate(user, probabilities)
        assert original.value == reloaded.value

    speedup = build_seconds / load_seconds if load_seconds > 0 else float("inf")
    print(
        f"\nindex build {build_seconds * 1000:.1f} ms vs load {load_seconds * 1000:.1f} ms "
        f"({speedup:.1f}x, theta={INDEX_SAMPLES})"
    )
    report_payload["index_store"] = {
        "theta": INDEX_SAMPLES,
        "build_seconds": build_seconds,
        "load_seconds": load_seconds,
        "speedup": speedup,
    }
    assert build_seconds >= MIN_LOAD_SPEEDUP * load_seconds, (
        f"loading the persisted index ({load_seconds:.3f}s) should be >={MIN_LOAD_SPEEDUP}x "
        f"faster than rebuilding it ({build_seconds:.3f}s)"
    )


def test_cold_replay_with_persisted_index(
    benchmark, serving_dataset, serving_store, report_payload, harness
):
    graph, model = serving_dataset.graph, serving_dataset.model
    # Offline phase (or a previous process): ensure the index is persisted.
    _, _, offline_seconds = serving_store.load_or_build_rr(
        graph, model, INDEX_SAMPLES, seed=harness_seed(serving_dataset)
    )
    # Online phase: a cold engine warm-started purely from the store.
    loaded = serving_store.load_rr_index(graph, model, INDEX_SAMPLES)
    assert loaded is not None
    engine = PitexEngine(
        graph,
        model,
        max_samples=harness.config.max_samples,
        index_samples=INDEX_SAMPLES,
        default_k=2,
        seed=harness.config.seed,
        rr_index=loaded,
    )
    stream = serving_dataset.query_workload.query_stream(
        REPLAY_QUERIES, seed=harness.config.seed
    )

    def run_replay():
        with PitexService.for_engine(engine, num_workers=2) as service:
            return replay_stream(service, stream, method="indexest+", k=2)

    report = benchmark.pedantic(run_replay, rounds=1, iterations=1)
    print()
    print(format_table(report.to_result()))
    assert report.num_queries >= 50
    assert report.failures == 0
    assert report.overall.count == report.num_queries
    assert report.overall.percentile(99.0) >= report.overall.percentile(50.0) > 0.0
    document = report.to_json()
    document["offline_seconds"] = offline_seconds
    report_payload["replay"] = document


def test_frozen_worker_sweep_is_bitwise_equal_and_scales(
    request, serving_dataset, serving_store, report_payload, harness
):
    """The ``--workers`` axis: frozen lock-free replay, 1 worker vs N workers.

    Bitwise equality between the two legs always holds (the frozen engine's
    stateless per-query RNG derivation makes answers independent of worker
    interleaving); the >= :data:`MIN_PARALLEL_SPEEDUP` x throughput gate is
    enforced only where thread parallelism is physically possible.
    """
    workers = max(2, int(request.config.getoption("--workers")))
    graph, model = serving_dataset.graph, serving_dataset.model
    loaded, _, _ = serving_store.load_or_build_rr(
        graph, model, INDEX_SAMPLES, seed=harness_seed(serving_dataset)
    )
    engine = PitexEngine(
        graph,
        model,
        max_samples=harness.config.max_samples,
        index_samples=INDEX_SAMPLES,
        default_k=2,
        seed=harness.config.seed,
        rr_index=loaded,
    ).freeze(methods=["indexest+"])
    stream = serving_dataset.query_workload.query_stream(
        REPLAY_QUERIES, seed=harness.config.seed
    )

    reports = {}
    for pool_size in (1, workers):
        with PitexService.for_engine(engine, num_workers=pool_size) as service:
            reports[pool_size] = replay_stream(service, stream, method="indexest+", k=2)

    for report in reports.values():
        assert report.failures == 0
        assert report.backend == "thread"
    answers = {
        pool_size: [
            (resp.request.user, resp.result.tag_ids, resp.result.spread)
            for resp in report.responses
        ]
        for pool_size, report in reports.items()
    }
    assert answers[1] == answers[workers], (
        "concurrent frozen replay diverged from the single-worker oracle"
    )

    speedup = reports[workers].throughput_qps / reports[1].throughput_qps
    print(
        f"\nfrozen replay: {reports[1].throughput_qps:.1f} qps @1 worker vs "
        f"{reports[workers].throughput_qps:.1f} qps @{workers} workers "
        f"({speedup:.2f}x, {os.cpu_count()} cores)"
    )
    report_payload["worker_sweep"] = {
        "method": "indexest+",
        "num_queries": REPLAY_QUERIES,
        "cores": os.cpu_count(),
        "workers": workers,
        "throughput_1": reports[1].throughput_qps,
        f"throughput_{workers}": reports[workers].throughput_qps,
        "speedup": speedup,
        "bitwise_equal": True,
    }
    cores = os.cpu_count() or 1
    if cores < MIN_CORES_FOR_SPEEDUP_GATE:
        pytest.skip(
            f"speedup gate needs >= {MIN_CORES_FOR_SPEEDUP_GATE} cores (host has {cores}, "
            f"gate {MIN_PARALLEL_SPEEDUP}x); measured {speedup:.2f}x recorded in the artifact"
        )
    assert speedup >= MIN_PARALLEL_SPEEDUP, (
        f"{workers}-worker frozen replay reached only {speedup:.2f}x over one worker "
        f"(gate: >= {MIN_PARALLEL_SPEEDUP}x on the index-backed methods)"
    )


def test_process_backend_matches_thread_oracle_and_scales(
    request, serving_dataset, serving_store, report_payload, harness
):
    """The ``--backend process`` axis: forked replicas vs the thread oracle.

    One serial thread-backend replay over a frozen engine is the bitwise
    reference; the process backend must return identical answers at any
    worker count (same engine seed + stateless per-query RNG derivation).
    Throughput is swept 1 vs N process workers; the
    >= :data:`MIN_PARALLEL_SPEEDUP` x gate applies only where the host has
    cores to back it, but the measured speedup always lands in the artifact.
    """
    workers = max(2, int(request.config.getoption("--workers")))
    graph, model = serving_dataset.graph, serving_dataset.model
    loaded, _, _ = serving_store.load_or_build_rr(
        graph, model, INDEX_SAMPLES, seed=harness_seed(serving_dataset)
    )
    stream = serving_dataset.query_workload.query_stream(
        REPLAY_QUERIES, seed=harness.config.seed
    )

    # Thread oracle: one worker, frozen engine, in-process arrays.
    oracle_engine = PitexEngine(
        graph,
        model,
        max_samples=harness.config.max_samples,
        index_samples=INDEX_SAMPLES,
        default_k=2,
        seed=harness.config.seed,
        rr_index=loaded,
    ).freeze(methods=["indexest+"], ks=[2])
    with PitexService.for_engine(oracle_engine, num_workers=1) as service:
        oracle = replay_stream(service, stream, method="indexest+", k=2)
    oracle_deterministic = service.metrics.telemetry()["deterministic"]
    assert oracle.failures == 0

    # Process backend: replicas rebuilt in workers from the mmap'd store.
    spec = publish_engine_spec(
        serving_store,
        graph,
        model,
        engine_seed=harness.config.seed,
        index_samples=INDEX_SAMPLES,
        methods=("indexest+",),
        ks=(2,),
        max_samples=harness.config.max_samples,
        default_k=2,
        index_seed=harness_seed(serving_dataset),
    )
    reports = {}
    deterministic = {}
    for pool_size in (1, workers):
        with ProcessShardedService(spec, num_workers=pool_size) as service:
            reports[pool_size] = replay_stream(service, stream, method="indexest+", k=2)
        # Worker telemetry shards ship at close, so capture afterwards.
        deterministic[pool_size] = service.metrics.telemetry()["deterministic"]

    def answers(report):
        return [
            (resp.request.user, resp.result.tag_ids, resp.result.spread)
            for resp in report.responses
        ]

    for pool_size, report in reports.items():
        assert report.failures == 0
        assert report.backend == "process"
        assert answers(report) == answers(oracle), (
            f"{pool_size}-worker process replay diverged from the thread oracle"
        )
        # The telemetry contract mirrors the answer contract: the merged
        # algorithmic-work counters are identical to the thread oracle's at
        # any worker count.
        assert deterministic[pool_size] == oracle_deterministic, (
            f"{pool_size}-worker process telemetry diverged from the thread oracle"
        )
    assert oracle_deterministic["query.count"] == REPLAY_QUERIES

    speedup = reports[workers].throughput_qps / reports[1].throughput_qps
    print(
        f"\nprocess replay: {reports[1].throughput_qps:.1f} qps @1 worker vs "
        f"{reports[workers].throughput_qps:.1f} qps @{workers} workers "
        f"({speedup:.2f}x, {os.cpu_count()} cores)"
    )
    report_payload["process_sweep"] = {
        "method": "indexest+",
        "backend": "process",
        "num_queries": REPLAY_QUERIES,
        "cores": os.cpu_count(),
        "workers": workers,
        "throughput_1": reports[1].throughput_qps,
        f"throughput_{workers}": reports[workers].throughput_qps,
        "speedup": speedup,
        "bitwise_equal_to_thread_oracle": True,
        "telemetry_deterministic_equal": True,
    }
    cores = os.cpu_count() or 1
    if cores < MIN_CORES_FOR_SPEEDUP_GATE:
        pytest.skip(
            f"speedup gate needs >= {MIN_CORES_FOR_SPEEDUP_GATE} cores (host has {cores}, "
            f"gate {MIN_PARALLEL_SPEEDUP}x); measured {speedup:.2f}x recorded in the artifact"
        )
    assert speedup >= MIN_PARALLEL_SPEEDUP, (
        f"{workers}-worker process replay reached only {speedup:.2f}x over one worker "
        f"(gate: >= {MIN_PARALLEL_SPEEDUP}x; processes are not GIL-bound)"
    )


def test_answer_cache_warm_leg_is_bitwise_equal_and_faster(
    serving_dataset, serving_store, report_payload, harness
):
    """The answer-cache axis: zipfian repeat traffic, cached vs uncached.

    One uncached frozen replay is the bitwise oracle; a cached service then
    replays the same zipfian stream twice through one open service.  Answers
    must be byte-identical across all three legs (``answers_digest``), the
    second (warm) pass must hit on every query, and the warm p50 service
    time must beat the cold p50 by >= :data:`MIN_WARM_SPEEDUP` x.  The
    timing gate reuses the cores-based skip of the throughput gates --
    a heavily oversubscribed 1-core host can stall even a dict lookup --
    but the measured speedup always lands in the JSON artifact.
    """
    from repro.serve.answers import AnswerCache

    graph, model = serving_dataset.graph, serving_dataset.model
    loaded, _, _ = serving_store.load_or_build_rr(
        graph, model, INDEX_SAMPLES, seed=harness_seed(serving_dataset)
    )
    engine = PitexEngine(
        graph,
        model,
        max_samples=harness.config.max_samples,
        index_samples=INDEX_SAMPLES,
        default_k=2,
        seed=harness.config.seed,
        rr_index=loaded,
    ).freeze(methods=["indexest+"], ks=[2])
    stream = serving_dataset.query_workload.query_stream(
        REPLAY_QUERIES, seed=harness.config.seed, zipf_s=ZIPF_S
    )

    # Uncached oracle: the frozen engine re-executes every repeat.
    with PitexService.for_engine(engine, num_workers=2) as service:
        oracle = replay_stream(service, stream, method="indexest+", k=2)
    assert oracle.failures == 0
    assert oracle.cache_hits == 0

    # Cached service: pass 1 fills the cache, pass 2 replays warm.
    with PitexService.for_engine(
        engine, num_workers=2, answer_cache=AnswerCache()
    ) as service:
        cold_pass = replay_stream(service, stream, method="indexest+", k=2)
        warm_pass = replay_stream(service, stream, method="indexest+", k=2)
    for report in (cold_pass, warm_pass):
        assert report.failures == 0
    assert oracle.answers_digest == cold_pass.answers_digest == warm_pass.answers_digest, (
        "cached replay answers diverged from the uncached oracle"
    )
    unique_users = len({user for _, user in stream})
    assert cold_pass.cache_hits == REPLAY_QUERIES - unique_users
    assert warm_pass.cache_hits == REPLAY_QUERIES
    assert warm_pass.hit_rate == 1.0

    cold_p50 = cold_pass.cold.percentile(50.0)
    warm_p50 = warm_pass.warm.percentile(50.0)
    speedup = cold_p50 / warm_p50 if warm_p50 > 0 else float("inf")
    print(
        f"\nanswer cache: cold p50 {cold_p50 * 1000:.3f} ms vs warm p50 "
        f"{warm_p50 * 1000:.3f} ms ({speedup:.1f}x, zipf_s={ZIPF_S}, "
        f"{unique_users} unique users / {REPLAY_QUERIES} queries)"
    )
    report_payload["answer_cache"] = {
        "method": "indexest+",
        "num_queries": REPLAY_QUERIES,
        "zipf_s": ZIPF_S,
        "unique_users": unique_users,
        "cold_p50_seconds": cold_p50,
        "warm_p50_seconds": warm_p50,
        "warm_speedup": speedup,
        "cold_pass_hit_rate": cold_pass.hit_rate,
        "warm_pass_hit_rate": warm_pass.hit_rate,
        "bitwise_equal_to_uncached_oracle": True,
    }
    cores = os.cpu_count() or 1
    if cores < MIN_CORES_FOR_SPEEDUP_GATE:
        pytest.skip(
            f"warm-speedup gate needs >= {MIN_CORES_FOR_SPEEDUP_GATE} cores (host has "
            f"{cores}, gate {MIN_WARM_SPEEDUP}x); measured {speedup:.1f}x recorded in the artifact"
        )
    assert speedup >= MIN_WARM_SPEEDUP, (
        f"warm p50 beat cold p50 by only {speedup:.1f}x "
        f"(gate: >= {MIN_WARM_SPEEDUP}x; a hit is a dict lookup)"
    )


def test_trace_overhead_is_small_and_recorded(
    serving_dataset, serving_store, report_payload, harness
):
    """Tracing costs ~nothing when disabled and little when enabled.

    The disabled path is a single global read returning a shared null span
    (no recorder installed -- the default for every other test in this
    file), so the replays above already measure the no-tracing cost.  This
    test replays the same frozen stream twice -- recorder installed vs not
    -- checks that tracing never perturbs answers (spans observe, never
    steer), and records the measured throughput overhead fraction in the
    JSON artifact.  The overhead is *recorded*, not gated with a tight
    timing assert: single-round wall times on a shared CI host are too
    noisy, and the artifact is the reviewable evidence.
    """
    graph, model = serving_dataset.graph, serving_dataset.model
    loaded, _, _ = serving_store.load_or_build_rr(
        graph, model, INDEX_SAMPLES, seed=harness_seed(serving_dataset)
    )
    engine = PitexEngine(
        graph,
        model,
        max_samples=harness.config.max_samples,
        index_samples=INDEX_SAMPLES,
        default_k=2,
        seed=harness.config.seed,
        rr_index=loaded,
    ).freeze(methods=["indexest+"])
    stream = serving_dataset.query_workload.query_stream(
        REPLAY_QUERIES, seed=harness.config.seed
    )

    def run_replay():
        with PitexService.for_engine(engine, num_workers=2) as service:
            return replay_stream(service, stream, method="indexest+", k=2)

    untraced = run_replay()
    recorder = TraceRecorder()
    previous = install_recorder(recorder)
    try:
        traced = run_replay()
    finally:
        install_recorder(previous)

    for report in (untraced, traced):
        assert report.failures == 0
    spans = recorder.spans()
    assert len(spans) == REPLAY_QUERIES
    assert all(span["span"] == "execute" and span["seconds"] >= 0.0 for span in spans)
    answers = lambda rep: [  # noqa: E731
        (r.request.user, r.result.tag_ids, r.result.spread) for r in rep.responses
    ]
    assert answers(traced) == answers(untraced), "tracing perturbed the answers"

    overhead = (
        (traced.wall_seconds - untraced.wall_seconds) / untraced.wall_seconds
        if untraced.wall_seconds > 0
        else 0.0
    )
    print(
        f"\ntrace overhead: untraced {untraced.throughput_qps:.1f} qps vs "
        f"traced {traced.throughput_qps:.1f} qps ({overhead:+.1%} wall time, "
        f"{len(spans)} spans)"
    )
    report_payload["trace_overhead"] = {
        "method": "indexest+",
        "num_queries": REPLAY_QUERIES,
        "untraced_throughput_qps": untraced.throughput_qps,
        "traced_throughput_qps": traced.throughput_qps,
        "overhead_fraction": overhead,
        "spans_recorded": len(spans),
        "bitwise_equal": True,
    }


def harness_seed(dataset) -> int:
    """The dataset's generation seed (fallback 0 for unseeded runs)."""
    return dataset.seed if dataset.seed is not None else 0
