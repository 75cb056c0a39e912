"""Tests for the PitexEngine facade."""

import numpy as np
import pytest

from repro.core.engine import METHODS, PitexEngine
from repro.exceptions import InvalidParameterError
from repro.graph.digraph import TopicSocialGraph
from repro.propagation.exact import exact_best_tag_set
from repro.topics.model import TagTopicModel


@pytest.fixture(scope="module")
def engine_instance():
    """A small instance with an unambiguous optimum shared across engine tests."""
    graph = TopicSocialGraph(8, 2)
    graph.add_edge(0, 1, [0.9, 0.0])
    graph.add_edge(0, 2, [0.9, 0.0])
    graph.add_edge(1, 3, [0.8, 0.0])
    graph.add_edge(2, 4, [0.8, 0.0])
    graph.add_edge(3, 5, [0.7, 0.0])
    graph.add_edge(0, 6, [0.0, 0.3])
    graph.add_edge(6, 7, [0.0, 0.2])
    matrix = np.array([[0.9, 0.0], [0.8, 0.0], [0.0, 0.9], [0.0, 0.8]])
    model = TagTopicModel(matrix)
    engine = PitexEngine(
        graph, model, epsilon=0.5, max_samples=800, index_samples=3000, default_k=2, seed=13
    )
    return graph, model, engine


def test_engine_rejects_mismatched_model():
    graph = TopicSocialGraph(3, 2)
    graph.add_edge(0, 1, [0.5, 0.5])
    model = TagTopicModel(np.ones((4, 3)))
    with pytest.raises(InvalidParameterError):
        PitexEngine(graph, model)


def test_engine_estimator_registry(engine_instance):
    _, _, engine = engine_instance
    for method in METHODS:
        estimator = engine.estimator(method)
        assert estimator.name in (method, "indexest")
    with pytest.raises(InvalidParameterError):
        engine.estimator("bogus")
    # Nothing is cached: every call builds a fresh instance, and the default
    # seed is a stable per-configuration stream, so equal calls estimate equally.
    first, second = engine.estimator("lazy"), engine.estimator("lazy")
    assert first is not second
    assert first.estimate(0, [0, 1]) == second.estimate(0, [0, 1])


@pytest.mark.parametrize("method", ["mc", "rr", "lazy", "indexest", "indexest+", "delaymat"])
def test_engine_query_finds_optimum_with_every_method(engine_instance, method):
    graph, model, engine = engine_instance
    expected_tags, _ = exact_best_tag_set(graph, model, 0, 2)
    result = engine.query(user=0, k=2, method=method)
    assert result.tag_ids == expected_tags
    assert result.spread > 1.0
    assert result.query.user == 0


def test_engine_tim_returns_a_plausible_result(engine_instance):
    graph, model, engine = engine_instance
    result = engine.query(user=0, k=2, method="tim")
    # TIM has no guarantee, but on this instance topic-0 tags still dominate.
    assert set(result.tag_ids).issubset({0, 1, 2, 3})
    assert result.spread > 0.0


def test_engine_enumeration_vs_best_effort(engine_instance):
    graph, model, engine = engine_instance
    enumerated = engine.query(user=0, k=2, method="lazy", exploration="enumeration")
    explored = engine.query(user=0, k=2, method="lazy", exploration="best-effort")
    assert enumerated.tag_ids == explored.tag_ids
    assert enumerated.evaluated_tag_sets == model.num_candidate_tag_sets(2)
    assert explored.evaluated_tag_sets + explored.pruned_tag_sets <= model.num_candidate_tag_sets(2)


def test_engine_candidate_tag_restriction(engine_instance):
    _, _, engine = engine_instance
    result = engine.query(user=0, k=2, method="lazy", candidate_tags=[2, 3])
    assert result.tag_ids == (2, 3)
    enumerated = engine.query(
        user=0, k=2, method="lazy", exploration="enumeration", candidate_tags=[0, 1, 2]
    )
    assert enumerated.evaluated_tag_sets == 3


def test_engine_rejects_unknown_exploration(engine_instance):
    _, _, engine = engine_instance
    with pytest.raises(InvalidParameterError):
        engine.query(user=0, k=2, exploration="depth-first")


def test_engine_estimate_influence_accepts_tag_names(engine_instance):
    _, _, engine = engine_instance
    by_id = engine.estimate_influence(0, (0, 1), method="lazy")
    by_name = engine.estimate_influence(0, ("w0", "w1"), method="lazy")
    assert by_id.value == pytest.approx(by_name.value, rel=0.3)


def test_engine_indexes_are_cached(engine_instance):
    _, _, engine = engine_instance
    first = engine.rr_index
    second = engine.rr_index
    assert first is second
    delayed_first = engine.delayed_index
    delayed_second = engine.delayed_index
    assert delayed_first is delayed_second


def test_engine_describe_mentions_sizes(engine_instance):
    graph, model, engine = engine_instance
    description = engine.describe()
    assert str(graph.num_vertices) in description
    assert str(model.num_tags) in description


def test_engine_keep_evaluations(engine_instance):
    _, _, engine = engine_instance
    result = engine.query(user=0, k=2, method="lazy", exploration="enumeration", keep_evaluations=True)
    assert len(result.evaluations) == result.evaluated_tag_sets
    assert result.top(1)[0].spread == pytest.approx(result.spread)
