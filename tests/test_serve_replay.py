"""Tests for query-stream generation and the workload replay driver."""

import pytest

from repro.bench.reporting import LATENCY_COLUMNS
from repro.core.engine import PitexEngine
from repro.datasets.synthetic import load_dataset
from repro.exceptions import InvalidParameterError
from repro.serve.replay import replay_stream
from repro.serve.service import PitexService


@pytest.fixture(scope="module")
def dataset():
    return load_dataset("lastfm", scale=0.08, seed=11)


# ---------------------------------------------------------------- query_stream
def test_query_stream_is_deterministic_per_seed(dataset):
    workload = dataset.query_workload
    first = workload.query_stream(25, seed=42)
    second = workload.query_stream(25, seed=42)
    assert first == second
    assert workload.query_stream(25, seed=43) != first


def test_query_stream_is_insensitive_to_prior_draws(dataset):
    workload = dataset.query_workload
    expected = workload.query_stream(10, seed=7)
    workload.users("mid", 5)  # consume the workload's own RNG
    assert workload.query_stream(10, seed=7) == expected


def test_query_stream_members_and_weights(dataset):
    workload = dataset.query_workload
    stream = workload.query_stream(40, seed=1)
    assert len(stream) == 40
    for group, user in stream:
        assert user in workload.groups[group]
    only_mid = workload.query_stream(30, group_weights={"mid": 1.0}, seed=1)
    assert {group for group, _ in only_mid} == {"mid"}


def test_query_stream_rejects_bad_arguments(dataset):
    workload = dataset.query_workload
    with pytest.raises(InvalidParameterError):
        workload.query_stream(0, seed=1)
    with pytest.raises(InvalidParameterError):
        workload.query_stream(5, group_weights={"bogus": 1.0}, seed=1)
    with pytest.raises(InvalidParameterError):
        workload.query_stream(5, group_weights={"mid": 0.0}, seed=1)
    with pytest.raises(InvalidParameterError):
        workload.query_stream(5, seed=1, zipf_s=-0.1)


def test_query_stream_zipf_zero_is_bitwise_legacy(dataset):
    """zipf_s=0 (and the default) reproduce the historical uniform stream."""
    workload = dataset.query_workload
    legacy = workload.query_stream(25, seed=42)
    assert workload.query_stream(25, seed=42, zipf_s=0.0) == legacy


def test_query_stream_zipf_is_deterministic_and_valid(dataset):
    workload = dataset.query_workload
    first = workload.query_stream(30, seed=19, zipf_s=1.1)
    assert first == workload.query_stream(30, seed=19, zipf_s=1.1)
    assert first != workload.query_stream(30, seed=20, zipf_s=1.1)
    for group, user in first:
        assert user in workload.groups[group]


def test_query_stream_zipf_concentrates_repeat_traffic(dataset):
    """Higher zipf_s means fewer unique users, i.e. more cacheable repeats."""
    workload = dataset.query_workload

    def unique_users(zipf_s):
        stream = workload.query_stream(60, seed=23, zipf_s=zipf_s)
        return len({user for _, user in stream})

    uniques = [unique_users(zipf_s) for zipf_s in (0.0, 1.0, 2.5)]
    assert uniques[0] >= uniques[1] >= uniques[2]
    assert uniques[2] < uniques[0], "the skew never concentrated the draw"


# ---------------------------------------------------------------- replay_stream
def test_replay_reports_latencies_and_groups(dataset):
    engine = PitexEngine(
        dataset.graph, dataset.model, max_samples=40, index_samples=40, default_k=2, seed=3
    )
    stream = dataset.query_workload.query_stream(8, seed=5)
    with PitexService.for_engine(engine, num_workers=2) as service:
        report = replay_stream(service, stream, method="lazy", k=2)
    assert report.num_queries == 8
    assert report.failures == 0
    assert report.overall.count == 8
    assert sum(acc.count for acc in report.by_group.values()) == 8
    assert set(report.by_group) == {group for group, _ in stream}
    assert report.wall_seconds > 0.0
    assert report.throughput_qps > 0.0
    table = report.to_result()
    assert table.columns == LATENCY_COLUMNS
    assert table.rows[0][0] == "all"
    assert len(table.rows) == 1 + len(report.by_group)
    document = report.to_json()
    assert document["num_queries"] == 8
    assert document["overall"]["count"] == 8
    assert document["overall"]["p95"] >= document["overall"]["p50"]


def test_replay_deterministic_results_for_seeded_stream_and_index(dataset):
    """Same stream + same prebuilt index => identical per-query answers."""
    from repro.index.rr_index import RRGraphIndex

    index = RRGraphIndex(dataset.graph, 60, seed=9).build()
    stream = dataset.query_workload.query_stream(6, seed=13)

    def run():
        engine = PitexEngine(
            dataset.graph,
            dataset.model,
            max_samples=40,
            index_samples=60,
            default_k=2,
            seed=3,
            rr_index=index,
        )
        with PitexService.for_engine(engine, num_workers=2) as service:
            report = replay_stream(service, stream, method="indexest", k=2)
        return [(r.request.user, r.result.tag_ids, r.result.spread) for r in report.responses]

    assert run() == run()


def test_replay_with_max_in_flight_and_empty_stream(dataset):
    engine = PitexEngine(
        dataset.graph, dataset.model, max_samples=40, index_samples=40, default_k=2, seed=3
    )
    stream = dataset.query_workload.query_stream(4, seed=5)
    with PitexService.for_engine(engine) as service:
        report = replay_stream(service, stream, method="lazy", k=2, max_in_flight=2)
        assert report.failures == 0 and report.overall.count == 4
        with pytest.raises(InvalidParameterError):
            replay_stream(service, [], method="lazy")
        with pytest.raises(InvalidParameterError):
            replay_stream(service, stream, max_in_flight=0)


def test_failed_replays_stay_out_of_the_cold_and_warm_split(dataset):
    """A request that failed is neither a cold nor a warm answer: it adds no 0 s sample."""

    def provider(key):
        raise RuntimeError("no engine")

    stream = dataset.query_workload.query_stream(5, seed=3)
    with PitexService(provider, num_workers=2) as service:
        report = replay_stream(service, stream, method="indexest", k=2)
    assert report.failures == 5
    answer_cache = report.to_json()["answer_cache"]
    assert answer_cache["cold"]["count"] == 0
    assert answer_cache["warm"]["count"] == 0
    assert report.overall.count == 5
