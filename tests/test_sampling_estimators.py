"""Tests for the MC, RR and lazy propagation estimators.

The key correctness property: all three estimators converge to the exact
possible-world influence spread, and the lazy estimator visits far fewer edges
on the Fig. 3 counterexample graphs.
"""

import numpy as np
import pytest

from repro.graph.digraph import TopicSocialGraph
from repro.graph.generators import (
    celebrity_hub_graph,
    line_graph,
    random_topic_graph,
    star_fan_out_graph,
)
from repro.propagation.exact import exact_influence_spread
from repro.sampling.base import SampleBudget
from repro.sampling.lazy import LazyPropagationEstimator
from repro.sampling.monte_carlo import MonteCarloEstimator
from repro.sampling.reverse_reachable import ReverseReachableEstimator
from repro.topics.model import TagTopicModel

ESTIMATOR_CLASSES = [MonteCarloEstimator, ReverseReachableEstimator, LazyPropagationEstimator]


def single_topic_model(num_tags: int = 3) -> TagTopicModel:
    return TagTopicModel(np.ones((num_tags, 1)))


def make_estimator(cls, graph, model=None, seed=0, **kwargs):
    model = model if model is not None else single_topic_model()
    budget = SampleBudget(num_tags=model.num_tags, k=1, max_samples=4000, min_samples=50)
    if cls is LazyPropagationEstimator:
        kwargs.setdefault("early_stopping", False)
    return cls(graph, model, budget, seed=seed, **kwargs)


@pytest.mark.parametrize("cls", ESTIMATOR_CLASSES)
def test_estimators_match_exact_on_line(cls):
    graph = line_graph(4, probability=0.5)
    probabilities = np.full(3, 0.5)
    exact = exact_influence_spread(graph, 0, probabilities)
    estimator = make_estimator(cls, graph, seed=5)
    estimate = estimator.estimate_with_probabilities(0, probabilities, num_samples=6000)
    assert estimate.value == pytest.approx(exact, rel=0.08)


@pytest.mark.parametrize("cls", ESTIMATOR_CLASSES)
def test_estimators_match_exact_on_diamond(cls):
    graph = TopicSocialGraph(4, 1)
    graph.add_edge(0, 1, [0.6])
    graph.add_edge(0, 2, [0.4])
    graph.add_edge(1, 3, [0.5])
    graph.add_edge(2, 3, [0.7])
    probabilities = graph.max_edge_probabilities()
    exact = exact_influence_spread(graph, 0, probabilities)
    estimator = make_estimator(cls, graph, seed=7)
    estimate = estimator.estimate_with_probabilities(0, probabilities, num_samples=8000)
    assert estimate.value == pytest.approx(exact, rel=0.08)


@pytest.mark.parametrize("cls", ESTIMATOR_CLASSES)
def test_estimators_deterministic_graph(cls):
    graph = line_graph(5, probability=1.0)
    probabilities = np.ones(4)
    estimator = make_estimator(cls, graph, seed=1)
    estimate = estimator.estimate_with_probabilities(0, probabilities, num_samples=50)
    assert estimate.value == pytest.approx(5.0)


@pytest.mark.parametrize("cls", ESTIMATOR_CLASSES)
def test_estimators_isolated_user(cls):
    graph = line_graph(3, probability=0.5)
    probabilities = np.full(2, 0.5)
    estimator = make_estimator(cls, graph, seed=1)
    # Vertex 2 has no outgoing edges: spread is exactly 1.
    estimate = estimator.estimate_with_probabilities(2, probabilities, num_samples=100)
    assert estimate.value == pytest.approx(1.0)


@pytest.mark.parametrize("cls", ESTIMATOR_CLASSES)
def test_estimators_reproducible_with_seed(cls):
    graph = random_topic_graph(25, 1, edge_probability=0.2, seed=3)
    probabilities = graph.max_edge_probabilities()
    a = make_estimator(cls, graph, seed=11).estimate_with_probabilities(0, probabilities, num_samples=300)
    b = make_estimator(cls, graph, seed=11).estimate_with_probabilities(0, probabilities, num_samples=300)
    assert a.value == pytest.approx(b.value)


def test_estimate_uses_model_probabilities(paper_example):
    graph, model = paper_example
    budget = SampleBudget(num_tags=4, k=2, max_samples=3000, min_samples=100)
    estimator = LazyPropagationEstimator(graph, model, budget, seed=3, early_stopping=False)
    estimate = estimator.estimate(0, ("w1", "w2"))
    exact = exact_influence_spread(graph, 0, model.edge_probabilities(graph, ("w1", "w2")))
    assert estimate.value == pytest.approx(exact, rel=0.12)
    assert estimator.total_samples > 0


def test_lazy_visits_fewer_edges_than_mc_on_star():
    """Fig. 3(a): MC probes every out-edge per instance, lazy only the firing ones."""
    graph = star_fan_out_graph(100)
    probabilities = graph.max_edge_probabilities()
    num_samples = 400
    mc = make_estimator(MonteCarloEstimator, graph, seed=2)
    lazy = make_estimator(LazyPropagationEstimator, graph, seed=2)
    mc_estimate = mc.estimate_with_probabilities(0, probabilities, num_samples=num_samples)
    lazy_estimate = lazy.estimate_with_probabilities(0, probabilities, num_samples=num_samples)
    assert mc_estimate.edges_visited == pytest.approx(100 * num_samples)
    assert lazy_estimate.edges_visited < mc_estimate.edges_visited / 10
    assert lazy_estimate.value == pytest.approx(mc_estimate.value, rel=0.25)


def test_lazy_visits_fewer_edges_than_rr_on_celebrity_hub():
    """Fig. 3(b): RR probes the celebrity's incoming edges in every reverse sample."""
    graph = celebrity_hub_graph(60)
    probabilities = graph.max_edge_probabilities()
    num_samples = 300
    user = 61  # an ordinary user following the celebrity
    rr = make_estimator(ReverseReachableEstimator, graph, seed=4)
    lazy = make_estimator(LazyPropagationEstimator, graph, seed=4)
    rr_estimate = rr.estimate_with_probabilities(user, probabilities, num_samples=num_samples)
    lazy_estimate = lazy.estimate_with_probabilities(user, probabilities, num_samples=num_samples)
    assert lazy_estimate.edges_visited < rr_estimate.edges_visited / 5


def test_lazy_early_stopping_reduces_samples():
    graph = line_graph(5, probability=1.0)
    probabilities = np.ones(4)
    budget = SampleBudget(num_tags=3, k=1, max_samples=5000, min_samples=50)
    model = single_topic_model()
    eager = LazyPropagationEstimator(graph, model, budget, seed=1, early_stopping=True)
    estimate = eager.estimate_with_probabilities(0, probabilities, num_samples=5000)
    assert estimate.num_samples < 5000
    assert estimate.value == pytest.approx(5.0)


def test_running_estimates_are_monotone_in_information():
    """Running estimates share samples: later checkpoints reuse earlier draws."""
    graph = random_topic_graph(30, 1, edge_probability=0.15, seed=5)
    probabilities = graph.max_edge_probabilities()
    checkpoints = [50, 100, 200, 400]
    for cls in ESTIMATOR_CLASSES:
        estimator = make_estimator(cls, graph, seed=9)
        estimates = estimator.running_estimates(0, probabilities, checkpoints)
        assert len(estimates) == len(checkpoints)
        assert all(v >= 0.0 for v in estimates)


def test_rr_scaling_uses_reachable_set_size():
    graph = line_graph(3, probability=1.0)
    probabilities = np.ones(2)
    estimator = make_estimator(ReverseReachableEstimator, graph, seed=1)
    estimate = estimator.estimate_with_probabilities(0, probabilities, num_samples=200)
    assert estimate.reachable_size == 3
    assert estimate.value == pytest.approx(3.0)
