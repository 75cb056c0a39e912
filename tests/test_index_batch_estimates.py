"""Batched index estimates equal one-row estimates, bit for bit.

``estimate_many_with_probabilities`` of the three RR-Graph index estimators
filters every row at once and verifies all surviving (row, RR-Graph) pairs in
one BFS.  Each of its estimates must equal what ``estimate_with_probabilities``
returns for that row alone: the same value bits, ``num_samples``,
``edges_visited`` and ``reachable_size``.
"""

import numpy as np
import pytest

from repro.graph.generators import random_topic_graph
from repro.index.delayed import DelayedIndexEstimator, DelayedMaterializationIndex
from repro.index.pruning import PrunedIndexEstimator
from repro.index.rr_index import IndexEstimator, RRGraphIndex
from repro.index.tables import build_pruning_tables
from repro.topics.model import TagTopicModel


@pytest.fixture(scope="module")
def instance():
    graph = random_topic_graph(60, 2, edge_probability=0.1, base_probability=0.7, seed=23)
    model = TagTopicModel(np.array([[0.8, 0.2], [0.3, 0.7], [0.5, 0.5]]))
    index = RRGraphIndex(graph, 300, seed=4).build()
    delayed = DelayedMaterializationIndex(graph, 300, seed=4).build()
    return graph, model, index, delayed


def probability_rows(graph):
    """Random rows, a full row, an all-zero row and a row no cut edge survives."""
    rng = np.random.default_rng(8)
    maxima = graph.max_edge_probabilities()
    rows = [maxima * rng.uniform(size=maxima.size) * (rng.uniform(size=maxima.size) < q) for q in (0.4, 1.0)]
    rows.append(maxima.copy())
    rows.append(np.zeros_like(maxima))
    # Every edge live but below every stored c(e) > 0: the filter keeps nothing.
    rows.append(np.full_like(maxima, 1e-300))
    return np.stack(rows)


def estimators(graph, model, index, delayed):
    tables = build_pruning_tables(index, graph.max_edge_probabilities())
    return {
        "indexest": IndexEstimator(graph, model, index),
        "indexest+": PrunedIndexEstimator(graph, model, index),
        "indexest+ tables": PrunedIndexEstimator(graph, model, index, shared_structures=tables),
        "delaymat": DelayedIndexEstimator(graph, model, delayed, seed=5),
        "delaymat no pruning": DelayedIndexEstimator(graph, model, delayed, use_pruning=False, seed=5),
    }


def fields(estimate):
    return (
        float(estimate.value).hex(),
        estimate.num_samples,
        estimate.edges_visited,
        estimate.reachable_size,
        estimate.method,
    )


@pytest.mark.parametrize(
    "name", ["indexest", "indexest+", "indexest+ tables", "delaymat", "delaymat no pruning"]
)
def test_batch_equals_loop_of_one_row_estimates(instance, name):
    graph, model, index, delayed = instance
    estimator = estimators(graph, model, index, delayed)[name]
    rows = probability_rows(graph)
    # Users with containment, plus one no RR-Graph contains.
    outside = [v for v in range(graph.num_vertices) if v not in index.containment]
    users = sorted(index.containment)[:25] + (outside or [graph.num_vertices])[:1]
    empty_filters = 0
    for user in users:
        batch = estimator.estimate_many_with_probabilities(user, rows)
        from_list = estimator.estimate_many_with_probabilities(user, list(rows))
        loop = [estimator.estimate_with_probabilities(user, row) for row in rows]
        assert [fields(e) for e in batch] == [fields(e) for e in loop]
        assert [fields(e) for e in from_list] == [fields(e) for e in loop]
        empty_filters += batch[-1].num_samples == 0
    assert estimator.estimate_many_with_probabilities(users[0], rows[:0]) == []
    if name in ("indexest+", "indexest+ tables", "delaymat"):
        assert empty_filters  # some user's filter left no candidate


def test_one_row_entry_points_stay_on_each_class():
    # pitexbench's layer tracer wraps these attributes by class __dict__.
    for cls in (IndexEstimator, PrunedIndexEstimator, DelayedIndexEstimator):
        assert "estimate_with_probabilities" in cls.__dict__
        assert "estimate_many_with_probabilities" in cls.__dict__
