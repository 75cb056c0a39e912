"""Tests for the IC propagation model and the exact oracle."""

import numpy as np
import pytest

from repro.exceptions import EstimationError
from repro.graph.digraph import TopicSocialGraph
from repro.graph.generators import line_graph, random_topic_graph, star_fan_out_graph
from repro.propagation.cascade import CascadeTrace
from repro.propagation.exact import (
    exact_activation_probabilities,
    exact_best_tag_set,
    exact_influence_spread,
)
from repro.propagation.ic import IndependentCascadeModel, simulate_ic_cascade
from repro.topics.model import TagTopicModel
from repro.utils.rng import RandomSource


def test_cascade_trace_bookkeeping():
    trace = CascadeTrace(seeds={0})
    trace.activation_step = {0: 0, 1: 1, 2: 1, 3: 2}
    assert trace.size == 4
    assert trace.num_steps == 2
    assert trace.activated_at(1) == [1, 2]
    assert trace.frontier_sizes() == [1, 2, 1]


def test_ic_deterministic_line_activates_everything(deterministic_line):
    probabilities = np.ones(deterministic_line.num_edges)
    trace = simulate_ic_cascade(deterministic_line, [0], probabilities, RandomSource(1))
    assert trace.size == 5
    assert trace.activation_step[4] == 4


def test_ic_zero_probabilities_only_seed(deterministic_line):
    probabilities = np.zeros(deterministic_line.num_edges)
    trace = simulate_ic_cascade(deterministic_line, [0], probabilities, RandomSource(1))
    assert trace.activated == {0}


def test_ic_max_steps_caps_depth(deterministic_line):
    probabilities = np.ones(deterministic_line.num_edges)
    trace = simulate_ic_cascade(deterministic_line, [0], probabilities, RandomSource(1), max_steps=2)
    assert trace.size == 3


def test_ic_multiple_seeds(deterministic_line):
    probabilities = np.zeros(deterministic_line.num_edges)
    trace = simulate_ic_cascade(deterministic_line, [0, 3], probabilities, RandomSource(1))
    assert trace.activated == {0, 3}


def test_ic_estimate_matches_exact_on_line():
    graph = line_graph(4, probability=0.5)
    probabilities = np.full(3, 0.5)
    model = IndependentCascadeModel(graph, seed=7)
    estimate = model.estimate_spread([0], probabilities, num_samples=8000)
    exact = exact_influence_spread(graph, 0, probabilities)
    assert estimate == pytest.approx(exact, rel=0.05)


def test_ic_activation_frequencies_match_exact():
    graph = line_graph(3, probability=0.6)
    probabilities = np.full(2, 0.6)
    model = IndependentCascadeModel(graph, seed=3)
    frequencies = model.activation_frequencies([0], probabilities, num_samples=8000)
    exact = exact_activation_probabilities(graph, 0, probabilities)
    assert np.allclose(frequencies, exact, atol=0.03)


def test_exact_influence_on_star():
    graph = star_fan_out_graph(5)  # each edge probability 1/5
    probabilities = graph.max_edge_probabilities()
    exact = exact_influence_spread(graph, 0, probabilities)
    assert exact == pytest.approx(1.0 + 5 * 0.2)


def test_exact_influence_rejects_large_instances():
    graph = random_topic_graph(30, 2, edge_probability=0.5, seed=1)
    probabilities = np.full(graph.num_edges, 0.5)
    with pytest.raises(EstimationError):
        exact_influence_spread(graph, 0, probabilities)


def test_exact_best_tag_set_tiny_instance():
    graph = TopicSocialGraph(3, 2)
    graph.add_edge(0, 1, [0.9, 0.0])
    graph.add_edge(0, 2, [0.0, 0.9])
    model = TagTopicModel(np.array([[1.0, 0.0], [0.0, 1.0]]))
    best_tags, best_spread = exact_best_tag_set(graph, model, 0, 1)
    assert best_spread == pytest.approx(1.9)
    assert best_tags in ((0,), (1,))


def test_models_record_edge_probes(deterministic_line):
    probabilities = np.ones(deterministic_line.num_edges)
    ic_trace = simulate_ic_cascade(deterministic_line, [0], probabilities, RandomSource(1))
    assert ic_trace.edges_probed == deterministic_line.num_edges
