"""Golden regression values for the RR-Graph index methods.

The answers of ``indexest``, ``indexest+`` and ``delaymat`` are pure
functions of the seeds, so their answer digests, deterministic counters and
per-estimate values are pinned here.  A change to the matching kernel, the
cut tables or the filter step must leave every value bit for bit as it is;
a failure means the change altered answers or work accounting, not that the
pins need refreshing.
"""

import hashlib

import numpy as np
import pytest

from repro.core.engine import PitexEngine
from repro.datasets.synthetic import load_dataset
from repro.index.delayed import DelayedIndexEstimator, DelayedMaterializationIndex
from repro.index.pruning import PrunedIndexEstimator
from repro.index.rr_index import IndexEstimator, RRGraphIndex
from repro.obs.telemetry import Telemetry, deterministic_counters, get_telemetry, install
from repro.serve.answers import answer_digest

# (method, mode) -> (answer digest, deterministic counters) of an 8-query
# in-process replay.  Modes: frozen with per-user tables and frozen without
# them.
REPLAY_GOLDEN = {
    ("indexest", "tables"): (
        "11fe31c452e7e7e74114c09c7b9061ce78e480ec0eca27f89d59de4263eb17dc",
        {
            "estimator.indexest.edges_visited": 156855,
            "estimator.indexest.estimates": 1786,
            "estimator.indexest.samples": 59286,
            "query.count": 8,
            "query.indexest.count": 8,
            "query.indexest.edges_visited": 489539,
            "query.indexest.samples": 168600,
        },
    ),
    ("indexest+", "tables"): (
        "d4e7b7baee79dcc0e0a6b95d9d88427d10dc4c0cd2198b7e871f1f587cac6d17",
        {
            "estimator.indexest+.edges_visited": 81350,
            "estimator.indexest+.estimates": 1786,
            "estimator.indexest+.samples": 11154,
            "query.count": 8,
            "query.indexest+.count": 8,
            "query.indexest+.edges_visited": 271908,
            "query.indexest+.samples": 34575,
        },
    ),
    ("indexest+", "no-tables"): (
        "d4e7b7baee79dcc0e0a6b95d9d88427d10dc4c0cd2198b7e871f1f587cac6d17",
        {
            "estimator.indexest+.edges_visited": 81350,
            "estimator.indexest+.estimates": 1786,
            "estimator.indexest+.samples": 11154,
            "query.count": 8,
            "query.indexest+.count": 8,
            "query.indexest+.edges_visited": 271908,
            "query.indexest+.samples": 34575,
        },
    ),
    ("delaymat", "tables"): (
        "6e7265d6dc1e400db2d8a7fd3f2a81eb5ada7bdf0057d3553cf4ab7b314582ab",
        {
            "estimator.delaymat.edges_visited": 21104,
            "estimator.delaymat.estimates": 626,
            "estimator.delaymat.samples": 6264,
            "query.count": 8,
            "query.delaymat.count": 8,
            "query.delaymat.edges_visited": 104323,
            "query.delaymat.samples": 28644,
        },
    ),
    ("delaymat", "no-tables"): (
        "71873d0419c0d9c160e70d771de8a8aac62745cdf485422a0edd1e78915b8c9c",
        {
            "estimator.delaymat.edges_visited": 26928,
            "estimator.delaymat.estimates": 935,
            "estimator.delaymat.samples": 6526,
            "query.count": 8,
            "query.delaymat.count": 8,
            "query.delaymat.edges_visited": 128859,
            "query.delaymat.samples": 27504,
        },
    ),
}

# An unfrozen engine answers on the same query-local path, without per-user
# tables, so it must match the frozen "no-tables" pins.  indexest uses no
# tables, so its one row serves both.
UNFROZEN_PINS = {
    "indexest": ("indexest", "tables"),
    "indexest+": ("indexest+", "no-tables"),
    "delaymat": ("delaymat", "no-tables"),
}
REPLAY_CASES = sorted(REPLAY_GOLDEN) + [(method, "unfrozen") for method in sorted(UNFROZEN_PINS)]

# sha256 over "user|value.hex|edges_visited|num_samples|reachable_size;" of
# every (user, probability vector) estimate, per estimator.
ESTIMATE_GOLDEN = {
    "indexest": "0d13e3ff49e5dea9b265c7e6003f75902a3420e0a57eb5da719756bedb1489e1",
    "indexest+": "245f71605413b586ceafda427efc8ff4d7948370c11bfac908585120a22b897f",
    "delaymat": "7b5edabb6c156757ae6c9fa61e1793052510e71b3f2b642ae411bbb3cb9a7eaf",
    "delaymat-nopruning": "fe623b067d802e9c418b27497ce3deec118332e76ff2f8b8b9c7911180dbaa6a",
}


@pytest.fixture(scope="module")
def dataset():
    return load_dataset("lastfm", scale=0.07, seed=2017)


@pytest.mark.parametrize(("method", "mode"), REPLAY_CASES)
def test_replay_digest_and_counters_are_pinned(dataset, method, mode):
    graph = dataset.graph
    users = [u for u in range(graph.num_vertices) if graph.out_degree(u) > 0][::3][:8]
    engine = PitexEngine(
        graph, dataset.model, max_samples=40, index_samples=80, default_k=2, seed=7
    )
    if mode != "unfrozen":
        engine.freeze(methods=(method,), ks=(2,), precompute_tables=(mode == "tables"))
    previous = install(Telemetry())
    try:
        results = [engine.query(user, method=method) for user in users]
        counters = deterministic_counters(get_telemetry().counters())
    finally:
        install(previous)
    pin = UNFROZEN_PINS[method] if mode == "unfrozen" else (method, mode)
    digest, expected_counters = REPLAY_GOLDEN[pin]
    assert counters == expected_counters
    assert answer_digest(results) == digest


def test_per_estimate_values_are_pinned(dataset):
    graph, model = dataset.graph, dataset.model
    index = RRGraphIndex(graph, 150, seed=3).build()
    delayed = DelayedMaterializationIndex(graph, 150, seed=3).build()
    rng = np.random.default_rng(4)
    maxima = graph.max_edge_probabilities()
    vectors = [
        maxima * rng.uniform(0.0, 1.0, size=maxima.size) * (rng.uniform(size=maxima.size) < q)
        for q in (0.3, 0.7, 1.0)
    ]
    users = sorted(index.containment)[:60]
    estimators = {
        "indexest": IndexEstimator(graph, model, index),
        "indexest+": PrunedIndexEstimator(graph, model, index),
        "delaymat": DelayedIndexEstimator(graph, model, delayed, seed=5),
        "delaymat-nopruning": DelayedIndexEstimator(
            graph, model, delayed, use_pruning=False, seed=5
        ),
    }
    digests = {}
    for name, estimator in estimators.items():
        hasher = hashlib.sha256()
        for user in users:
            for probabilities in vectors:
                estimate = estimator.estimate_with_probabilities(user, probabilities)
                hasher.update(
                    f"{user}|{float(estimate.value).hex()}|{estimate.edges_visited}|"
                    f"{estimate.num_samples}|{estimate.reachable_size};".encode()
                )
        digests[name] = hasher.hexdigest()
    assert digests == ESTIMATE_GOLDEN


# sha256 over the engine index's ``to_arrays()`` (see ``arrays_digest``).
INDEX_ARRAYS_GOLDEN = "871c3502648b2744b9bba0ff43ca453a7641ded6d05a4dd237ad0d9b7c488dd1"


def arrays_digest(arrays):
    """sha256 over every named array: name, dtype, shape and bytes, in name order."""
    hasher = hashlib.sha256()
    for name in sorted(arrays):
        array = np.asarray(arrays[name])
        hasher.update(f"{name}|{array.dtype.str}|{array.shape};".encode())
        hasher.update(np.ascontiguousarray(array).tobytes())
    return hasher.hexdigest()


def test_index_arrays_are_pinned_and_round_trip(dataset):
    graph = dataset.graph
    engine = PitexEngine(
        graph, dataset.model, max_samples=40, index_samples=80, default_k=2, seed=7
    )
    index = engine.rr_index
    arrays = index.to_arrays()
    assert arrays_digest(arrays) == INDEX_ARRAYS_GOLDEN
    loaded = RRGraphIndex.from_arrays(graph, arrays)
    assert arrays_digest(loaded.to_arrays()) == INDEX_ARRAYS_GOLDEN
    assert loaded.containment == index.containment
    assert loaded.memory_bytes() == index.memory_bytes()
    assert loaded.average_rr_graph_size() == index.average_rr_graph_size()
    maxima = graph.max_edge_probabilities()
    for user in sorted(index.containment)[::7]:
        assert loaded.estimate(user, maxima) == index.estimate(user, maxima)
