"""Golden regression values for lazy propagation on the batched event queue.

A seeded ``lazy-batched`` replay is a pure function of the seeds, so its
answer digest and deterministic counters are pinned here, next to a checksum
over every ``(value, num_samples, edges_visited, reachable_size)`` that
``estimate_many_with_probabilities`` returns for best-effort upper-bound rows.
A change to the ``|R_W(u)|`` sizing pass or to the frontier dedupe must leave
every value bit for bit as it is; a failure means the change altered the
sampling path or its work accounting, not that the pins need refreshing.
"""

import hashlib
from itertools import combinations

import pytest

from repro.core.engine import PitexEngine
from repro.datasets.synthetic import load_dataset
from repro.obs.telemetry import Telemetry, deterministic_counters, get_telemetry, install
from repro.sampling.base import SampleBudget
from repro.sampling.lazy import LazyPropagationEstimator
from repro.serve.answers import answer_digest

# mode -> (answer digest, deterministic counters) of an 8-query in-process
# lazy-batched replay.  Frozen and unfrozen engines answer on the same
# query-local path, so the unfrozen mode must match the frozen pin.
REPLAY_GOLDEN = {
    "frozen": (
        "8dc01be8b17c957e9ed23fc48e3f95ae8be7b8bb333d8cc2785671dbd16c3b9a",
        {
            "estimator.lazy-batched.edges_visited": 156962,
            "estimator.lazy-batched.estimates": 788,
            "estimator.lazy-batched.samples": 31520,
            "query.count": 8,
            "query.lazy-batched.count": 8,
            "query.lazy-batched.edges_visited": 405755,
            "query.lazy-batched.samples": 64090,
        },
    ),
}

# sha256 over "user|batch|value.hex|num_samples|edges_visited|reachable_size;"
# of every estimate of every upper-bound batch (the batch of all partial sets
# of size <= 2 has more than 64 rows).
ESTIMATE_GOLDEN = "65cc50d1f5aae7e11e77b72ff0b0478ddaeb46e07dfed80a92b569818d9b9783"


@pytest.fixture(scope="module")
def dataset():
    return load_dataset("lastfm", scale=0.07, seed=2017)


def _users(graph, count):
    return [u for u in range(graph.num_vertices) if graph.out_degree(u) > 0][::3][:count]


@pytest.mark.parametrize("mode", ["frozen", "unfrozen"])
def test_replay_digest_and_counters_are_pinned(dataset, mode):
    engine = PitexEngine(dataset.graph, dataset.model, max_samples=40, default_k=2, seed=7)
    if mode == "frozen":
        engine.freeze(methods=("lazy-batched",), ks=(2,))
    previous = install(Telemetry())
    try:
        results = [
            engine.query(user, method="lazy-batched") for user in _users(dataset.graph, 8)
        ]
        counters = deterministic_counters(get_telemetry().counters())
    finally:
        install(previous)
    digest, expected_counters = REPLAY_GOLDEN["frozen"]
    assert counters == expected_counters
    assert answer_digest(results) == digest


def test_per_estimate_values_are_pinned(dataset):
    graph, model = dataset.graph, dataset.model
    tags = range(12)
    batches = [
        [()] + [(tag,) for tag in tags],
        [()] + [(tag,) for tag in tags] + list(combinations(tags, 2)),
    ]
    estimator = LazyPropagationEstimator(
        graph,
        model,
        SampleBudget(num_tags=model.num_tags, k=3, max_samples=60),
        seed=11,
        kernel="batched",
    )
    hasher = hashlib.sha256()
    for user in _users(graph, 6):
        for batch_id, partials in enumerate(batches):
            rows = [model.upper_bound_edge_probabilities(graph, p, 3) for p in partials]
            for estimate in estimator.estimate_many_with_probabilities(user, rows):
                hasher.update(
                    f"{user}|{batch_id}|{float(estimate.value).hex()}|{estimate.num_samples}|"
                    f"{estimate.edges_visited}|{estimate.reachable_size};".encode()
                )
    assert hasher.hexdigest() == ESTIMATE_GOLDEN
