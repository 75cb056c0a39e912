"""Tests for the enumeration framework and best-effort exploration."""

import numpy as np
import pytest

from repro.core.best_effort import BestEffortExplorer
from repro.core.enumeration import EnumerationExplorer
from repro.core.query import PitexQuery
from repro.exceptions import InvalidParameterError
from repro.graph.digraph import TopicSocialGraph
from repro.propagation.exact import exact_best_tag_set
from repro.sampling.base import SampleBudget
from repro.sampling.lazy import LazyPropagationEstimator
from repro.sampling.monte_carlo import MonteCarloEstimator
from repro.topics.model import TagTopicModel


@pytest.fixture
def topical_instance():
    """A small instance where the optimal tag set is unambiguous.

    Topic 0 edges reach many vertices, topic 1 edges reach few; tags 0/1 map to
    topic 0, tags 2/3 to topic 1, so the optimal 2-tag set is {0, 1}.
    """
    graph = TopicSocialGraph(7, 2)
    graph.add_edge(0, 1, [0.9, 0.0])
    graph.add_edge(0, 2, [0.9, 0.0])
    graph.add_edge(1, 3, [0.8, 0.0])
    graph.add_edge(2, 4, [0.8, 0.0])
    graph.add_edge(0, 5, [0.0, 0.3])
    graph.add_edge(5, 6, [0.0, 0.2])
    matrix = np.array(
        [
            [0.9, 0.0],
            [0.8, 0.0],
            [0.0, 0.9],
            [0.0, 0.8],
        ]
    )
    model = TagTopicModel(matrix)
    return graph, model


def make_lazy(graph, model, seed=3):
    budget = SampleBudget(num_tags=model.num_tags, k=2, max_samples=1500, min_samples=200)
    return LazyPropagationEstimator(graph, model, budget, seed=seed, early_stopping=False)


def test_enumeration_finds_exact_optimum(topical_instance):
    graph, model = topical_instance
    estimator = make_lazy(graph, model)
    explorer = EnumerationExplorer(model, estimator, keep_evaluations=True)
    result = explorer.explore(PitexQuery(user=0, k=2, epsilon=0.5))
    expected_tags, expected_spread = exact_best_tag_set(graph, model, 0, 2)
    assert result.tag_ids == expected_tags
    assert result.spread == pytest.approx(expected_spread, rel=0.2)
    assert result.evaluated_tag_sets == model.num_candidate_tag_sets(2)
    assert len(result.evaluations) == result.evaluated_tag_sets
    assert result.elapsed_seconds > 0.0


def test_enumeration_with_candidate_restriction(topical_instance):
    graph, model = topical_instance
    estimator = make_lazy(graph, model)
    explorer = EnumerationExplorer(model, estimator)
    result = explorer.explore(PitexQuery(user=0, k=2), candidate_tag_sets=[(2, 3)])
    assert result.tag_ids == (2, 3)
    assert result.evaluated_tag_sets == 1


def test_enumeration_rejects_oversized_k(topical_instance):
    graph, model = topical_instance
    explorer = EnumerationExplorer(model, make_lazy(graph, model))
    with pytest.raises(InvalidParameterError):
        explorer.explore(PitexQuery(user=0, k=10))


@pytest.mark.parametrize("bound_method", ["reach", "sample"])
def test_best_effort_matches_enumeration_optimum(topical_instance, bound_method):
    graph, model = topical_instance
    estimator = make_lazy(graph, model)
    explorer = BestEffortExplorer(model, estimator, bound_method=bound_method)
    result = explorer.explore(PitexQuery(user=0, k=2, epsilon=0.5))
    expected_tags, expected_spread = exact_best_tag_set(graph, model, 0, 2)
    assert result.tag_ids == expected_tags
    assert result.spread == pytest.approx(expected_spread, rel=0.2)


def test_best_effort_prunes_with_reach_bound(topical_instance):
    """The reach bound is deterministic, so pruning accounting must be consistent."""
    graph, model = topical_instance
    estimator = make_lazy(graph, model)
    explorer = BestEffortExplorer(model, estimator, bound_method="reach")
    result = explorer.explore(PitexQuery(user=0, k=2, epsilon=0.5))
    total_candidates = model.num_candidate_tag_sets(2)
    assert result.evaluated_tag_sets + result.pruned_tag_sets <= total_candidates
    assert result.evaluated_tag_sets >= 1


def test_best_effort_prunes_unsupported_tag_sets():
    """With a sparse tag-topic matrix many completions have zero support and are pruned."""
    graph = TopicSocialGraph(4, 3)
    graph.add_edge(0, 1, [0.8, 0.0, 0.0])
    graph.add_edge(0, 2, [0.0, 0.8, 0.0])
    graph.add_edge(0, 3, [0.0, 0.0, 0.8])
    matrix = np.zeros((9, 3))
    for tag in range(9):
        matrix[tag, tag % 3] = 0.9  # each tag supported by exactly one topic
    model = TagTopicModel(matrix)
    estimator = make_lazy(graph, model)
    explorer = BestEffortExplorer(model, estimator, bound_method="reach")
    result = explorer.explore(PitexQuery(user=0, k=2, epsilon=0.5))
    # Only same-topic pairs have non-zero influence beyond the seed; mixed pairs
    # can be pruned wholesale.  9 tags -> 36 pairs, 9 of them same-topic.
    assert result.spread > 1.0
    assert result.evaluated_tag_sets < 36


def test_best_effort_respects_candidate_tags(topical_instance):
    graph, model = topical_instance
    estimator = make_lazy(graph, model)
    explorer = BestEffortExplorer(model, estimator, bound_method="reach")
    result = explorer.explore(PitexQuery(user=0, k=2), candidate_tags=[2, 3])
    assert result.tag_ids == (2, 3)


def test_best_effort_validates_inputs(topical_instance):
    graph, model = topical_instance
    estimator = make_lazy(graph, model)
    with pytest.raises(InvalidParameterError):
        BestEffortExplorer(model, estimator, bound_method="bogus")
    explorer = BestEffortExplorer(model, estimator)
    with pytest.raises(InvalidParameterError):
        explorer.explore(PitexQuery(user=0, k=9))
    with pytest.raises(InvalidParameterError):
        explorer.explore(PitexQuery(user=0, k=3), candidate_tags=[0, 1])


def test_best_effort_works_with_mc_estimator(topical_instance):
    graph, model = topical_instance
    budget = SampleBudget(num_tags=model.num_tags, k=2, max_samples=800, min_samples=150)
    estimator = MonteCarloEstimator(graph, model, budget, seed=5)
    explorer = BestEffortExplorer(model, estimator, bound_method="sample")
    result = explorer.explore(PitexQuery(user=0, k=2, epsilon=0.5))
    expected_tags, _ = exact_best_tag_set(graph, model, 0, 2)
    assert result.tag_ids == expected_tags


def test_reach_bounds_equal_per_partial_bfs():
    """The batched reach bound of one expansion equals one BFS per partial set."""
    from itertools import combinations

    from repro.datasets.synthetic import load_dataset
    from repro.graph.algorithms import reachable_with_probabilities

    dataset = load_dataset("lastfm", scale=0.07, seed=2017)
    graph, model = dataset.graph, dataset.model
    explorer = BestEffortExplorer(model, make_lazy(graph, model), bound_method="reach")
    # 1 + 12 + 66 partial sets: more than one 64-world word.
    partials = [()] + [(t,) for t in range(12)] + list(combinations(range(12), 2))
    for user in (0, 5, 40):
        query = PitexQuery(user=user, k=3)
        expected = []
        for partial in partials:
            row = model.upper_bound_edge_probabilities(graph, partial, 3)
            size = len(reachable_with_probabilities(graph, user, row)) if np.any(row > 0) else 1
            expected.append((float(size), 0, 0))
        assert explorer._upper_bounds_many(query, partials) == expected
        assert len({bound for bound, _, _ in expected}) > 1
