"""The bit-parallel ``|R_W(u)|`` helper against one BFS per world, and row validation.

:func:`reachable_counts` packs up to 64 worlds into one ``uint64`` word per
edge and vertex; every entry must equal ``reachable_mask(...).sum()`` for its
row, whatever the number of worlds, the zero pattern of the rows or the shape
of the graph.  ``estimate_many_with_probabilities`` shares the same row
contract: an empty batch answers ``[]``, a matrix that is not
``(n, graph.num_edges)`` is rejected.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.exceptions import InvalidParameterError
from repro.graph.algorithms import reachable_counts, reachable_mask
from repro.graph.digraph import TopicSocialGraph
from repro.graph.generators import random_topic_graph
from repro.sampling.base import SampleBudget
from repro.sampling.lazy import LazyPropagationEstimator
from repro.sampling.monte_carlo import MonteCarloEstimator
from repro.sampling.reverse_reachable import ReverseReachableEstimator
from repro.topics.model import TagTopicModel


def reference_counts(graph, source, rows):
    return np.array([reachable_mask(graph, source, row).sum() for row in rows], dtype=np.int64)


def random_rows(graph, num_worlds, seed):
    """Rows mixing all-zero, partly-zero and dense worlds."""
    rng = np.random.default_rng(seed)
    maxima = graph.max_edge_probabilities()
    density = rng.choice([0.0, 0.1, 0.5, 1.0], size=(num_worlds, 1))
    keep = rng.uniform(size=(num_worlds, graph.num_edges)) < density
    return maxima * rng.uniform(size=(num_worlds, graph.num_edges)) * keep


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    num_vertices=st.integers(1, 30),
    edge_probability=st.sampled_from([0.0, 0.05, 0.15, 0.4]),
    num_worlds=st.integers(0, 150),
    seed=st.integers(0, 2**16),
)
def test_counts_equal_one_bfs_per_world(num_vertices, edge_probability, num_worlds, seed):
    graph = random_topic_graph(num_vertices, 2, edge_probability=edge_probability, seed=seed)
    rows = random_rows(graph, num_worlds, seed)
    source = seed % num_vertices
    counts = reachable_counts(graph, source, rows)
    assert counts.dtype == np.int64
    np.testing.assert_array_equal(counts, reference_counts(graph, source, rows))


def test_world_bits_are_not_mixed_up():
    """A chain opened one edge further per world: world ``w`` reaches ``w + 1`` vertices."""
    num_worlds = 70
    graph = TopicSocialGraph(num_worlds, 1)
    for vertex in range(num_worlds - 1):
        graph.add_edge(vertex, vertex + 1, [0.5])
    rows = np.tril(np.ones((num_worlds, num_worlds - 1)), k=-1)
    np.testing.assert_array_equal(
        reachable_counts(graph, 0, rows), np.arange(1, num_worlds + 1)
    )


def test_source_without_out_edges():
    graph = TopicSocialGraph(5, 1)
    for source, target in [(0, 1), (1, 2), (2, 4), (3, 4), (0, 4), (3, 0)]:
        graph.add_edge(source, target, [0.5])
    rows = random_rows(graph, 70, 0)
    np.testing.assert_array_equal(reachable_counts(graph, 4, rows), np.ones(70))
    np.testing.assert_array_equal(reachable_counts(graph, 3, rows), reference_counts(graph, 3, rows))


def test_edgeless_graph_and_empty_batch():
    graph = TopicSocialGraph(4, 1)
    np.testing.assert_array_equal(reachable_counts(graph, 2, np.zeros((3, 0))), [1, 1, 1])
    assert reachable_counts(graph, 2, np.zeros((0, 0))).shape == (0,)


@pytest.mark.parametrize("shape", [(5,), (2, 4), (2, 6)])
def test_counts_reject_bad_shapes(shape):
    graph = TopicSocialGraph(3, 1)
    for source, target in [(0, 1), (1, 2), (2, 0), (0, 2), (1, 0)]:
        graph.add_edge(source, target, [0.5])
    with pytest.raises(InvalidParameterError):
        reachable_counts(graph, 0, np.ones(shape))


# ------------------------------------------- estimate_many_with_probabilities rows
@pytest.fixture
def instance():
    graph = random_topic_graph(12, 3, edge_probability=0.2, base_probability=0.4, seed=11)
    model = TagTopicModel(np.full((4, 3), 0.5))
    budget = SampleBudget(num_tags=4, k=2, max_samples=50, min_samples=10)
    return graph, model, budget


def estimators(graph, model, budget):
    yield LazyPropagationEstimator(graph, model, budget, seed=1, kernel="batched")
    yield LazyPropagationEstimator(graph, model, budget, seed=1, kernel="csr")
    yield LazyPropagationEstimator(graph, model, budget, seed=1, kernel="dict")
    yield MonteCarloEstimator(graph, model, budget, seed=1)
    yield ReverseReachableEstimator(graph, model, budget, seed=1)


@pytest.mark.parametrize("empty", [[], np.zeros((0, 0))])
def test_empty_batch_returns_no_estimates(instance, empty):
    for estimator in estimators(*instance):
        assert estimator.estimate_many_with_probabilities(0, empty) == []


def test_rows_of_the_wrong_width_are_rejected(instance):
    graph = instance[0]
    bad = [
        np.full((2, graph.num_edges - 1), 0.3),
        np.full((2, graph.num_edges + 1), 0.3),
        np.full(graph.num_edges, 0.3),
        [[0.3] * graph.num_edges, [0.3] * (graph.num_edges - 1)],
    ]
    for estimator in estimators(*instance):
        for rows in bad:
            with pytest.raises(InvalidParameterError):
                estimator.estimate_many_with_probabilities(0, rows)
