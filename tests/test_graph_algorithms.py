"""Tests for repro.graph.algorithms."""

import numpy as np
import pytest

from repro.graph.algorithms import (
    forward_reachable,
    live_edge_reachable,
    out_degree_groups,
    reachable_subgraph_edges,
    reachable_with_probabilities,
    reverse_live_edge_reachable,
    reverse_reachable,
    single_source_max_probability_paths,
)
from repro.graph.digraph import TopicSocialGraph
from repro.graph.generators import line_graph, power_law_topic_graph


def diamond_graph():
    """0 -> {1,2} -> 3 with an isolated vertex 4."""
    graph = TopicSocialGraph(5, 1)
    graph.add_edge(0, 1, [0.5])
    graph.add_edge(0, 2, [0.5])
    graph.add_edge(1, 3, [0.5])
    graph.add_edge(2, 3, [0.5])
    return graph


def test_forward_reachable_full_and_restricted():
    graph = diamond_graph()
    assert forward_reachable(graph, 0) == {0, 1, 2, 3}
    assert forward_reachable(graph, 3) == {3}
    # forbid the edge 0->1: vertex 1 unreachable only if 0->1 is the only path
    forbidden = graph.edge_id(0, 1)
    reachable = forward_reachable(graph, 0, lambda e: e != forbidden)
    assert reachable == {0, 2, 3}


def test_reverse_reachable():
    graph = diamond_graph()
    assert reverse_reachable(graph, 3) == {0, 1, 2, 3}
    assert reverse_reachable(graph, 0) == {0}


def test_reachable_with_probabilities_threshold():
    graph = diamond_graph()
    probabilities = np.array([0.0, 0.5, 0.5, 0.5])  # edge 0->1 has zero probability
    reachable = reachable_with_probabilities(graph, 0, probabilities)
    assert reachable == {0, 2, 3}


def test_reachable_subgraph_edges():
    graph = diamond_graph()
    edges = reachable_subgraph_edges(graph, {0, 1, 3})
    endpoints = {graph.edge_endpoints(e) for e in edges}
    assert endpoints == {(0, 1), (1, 3)}


def test_live_edge_reachable_extremes():
    graph = diamond_graph()
    all_live, probes = live_edge_reachable(graph, 0, np.ones(4), lambda: 0.5)
    assert all_live == {0, 1, 2, 3}
    assert probes == 4
    none_live, probes = live_edge_reachable(graph, 0, np.zeros(4), lambda: 0.5)
    assert none_live == {0}
    assert probes == 0


def test_reverse_live_edge_reachable_extremes():
    graph = diamond_graph()
    all_live, _ = reverse_live_edge_reachable(graph, 3, np.ones(4), lambda: 0.5)
    assert all_live == {0, 1, 2, 3}
    none_live, _ = reverse_live_edge_reachable(graph, 3, np.zeros(4), lambda: 0.5)
    assert none_live == {3}


def test_out_degree_groups_partition_and_order():
    graph = power_law_topic_graph(200, 4.0, 2, seed=5)
    groups = out_degree_groups(graph)
    high, mid, low = groups["high"], groups["mid"], groups["low"]
    degrees = graph.out_degrees()
    assert high and mid and low
    assert set(high).isdisjoint(mid) and set(mid).isdisjoint(low)
    assert min(degrees[v] for v in high) >= max(degrees[v] for v in low)
    # all grouped users have at least one outgoing edge
    assert all(degrees[v] > 0 for v in high + mid + low)


def test_out_degree_groups_tiny_graph_fallbacks():
    graph = line_graph(3, probability=1.0)
    groups = out_degree_groups(graph)
    assert groups["high"]
    assert groups["mid"]
    assert groups["low"]


def test_single_source_max_probability_paths_line():
    graph = line_graph(4, probability=0.5)
    best = single_source_max_probability_paths(graph, 0, np.full(3, 0.5), probability_threshold=1e-9)
    assert best[0] == pytest.approx(1.0)
    assert best[1] == pytest.approx(0.5)
    assert best[2] == pytest.approx(0.25)
    assert best[3] == pytest.approx(0.125)


def test_single_source_max_probability_paths_prefers_best_path():
    graph = TopicSocialGraph(3, 1)
    graph.add_edge(0, 1, [0.9])
    graph.add_edge(1, 2, [0.9])
    graph.add_edge(0, 2, [0.5])
    probabilities = np.array([0.9, 0.9, 0.5])
    best = single_source_max_probability_paths(graph, 0, probabilities)
    assert best[2] == pytest.approx(0.81)


def test_single_source_max_probability_paths_threshold_prunes():
    graph = line_graph(6, probability=0.1)
    best = single_source_max_probability_paths(graph, 0, np.full(5, 0.1), probability_threshold=0.05)
    assert 5 not in best  # 0.1^5 = 1e-5 < threshold
    assert 1 in best
