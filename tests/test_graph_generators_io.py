"""Tests for repro.graph.generators and repro.graph.io."""

import numpy as np
import pytest

from repro.exceptions import GraphError
from repro.graph.generators import (
    celebrity_hub_graph,
    complete_topic_graph,
    line_graph,
    power_law_topic_graph,
    random_topic_graph,
    star_fan_out_graph,
)
from repro.graph.io import load_edge_list, save_edge_list


def test_star_fan_out_graph_matches_fig3a():
    graph = star_fan_out_graph(10)
    assert graph.num_vertices == 11
    assert graph.num_edges == 10
    assert graph.out_degree(0) == 10
    for edge in graph.edges():
        assert graph.max_edge_probabilities()[edge.edge_id] == pytest.approx(0.1)


def test_celebrity_hub_graph_matches_fig3b():
    n = 8
    graph = celebrity_hub_graph(n)
    assert graph.num_vertices == 2 * n + 1
    assert graph.out_degree(0) == n           # celebrity -> followers with prob 1
    assert len(graph.in_edges(0)) == n        # ordinary users -> celebrity with prob 1/n
    maxima = graph.max_edge_probabilities()
    assert maxima[graph.edge_id(0, 1)] == pytest.approx(1.0)
    assert maxima[graph.edge_id(n + 1, 0)] == pytest.approx(1.0 / n)


def test_line_and_complete_graphs():
    line = line_graph(5, probability=0.7, num_topics=2)
    assert line.num_edges == 4
    complete = complete_topic_graph(4, 2, probability=0.2)
    assert complete.num_edges == 12


def test_random_topic_graph_probabilities_in_range():
    graph = random_topic_graph(20, 3, edge_probability=0.2, seed=1)
    matrix = graph.probability_matrix
    assert matrix.shape[1] == 3
    assert np.all(matrix >= 0.0) and np.all(matrix <= 1.0)


def test_random_topic_graph_reproducible():
    a = random_topic_graph(15, 2, edge_probability=0.3, seed=42)
    b = random_topic_graph(15, 2, edge_probability=0.3, seed=42)
    assert a.num_edges == b.num_edges
    assert np.allclose(a.probability_matrix, b.probability_matrix)


def test_power_law_graph_density_and_skew():
    graph = power_law_topic_graph(300, 5.0, 4, seed=9)
    density = graph.density()
    assert 3.5 <= density <= 6.5
    in_degrees = np.diff(graph.csr.in_indptr)
    # heavy tail: the most popular vertex receives far more than the average
    assert in_degrees.max() >= 4 * max(1.0, in_degrees.mean())


def test_power_law_graph_rejects_tiny_instances():
    with pytest.raises(ValueError):
        power_law_topic_graph(2, 2.0, 2)


def test_power_law_graph_reproducible():
    a = power_law_topic_graph(100, 4.0, 3, seed=7)
    b = power_law_topic_graph(100, 4.0, 3, seed=7)
    assert a.num_edges == b.num_edges
    assert np.allclose(a.probability_matrix, b.probability_matrix)


def test_edge_list_roundtrip(tmp_path):
    graph = random_topic_graph(10, 2, edge_probability=0.3, seed=3)
    path = tmp_path / "graph.txt"
    save_edge_list(graph, path)
    loaded = load_edge_list(path)
    assert loaded.num_vertices == graph.num_vertices
    assert loaded.num_edges == graph.num_edges
    assert loaded.num_topics == graph.num_topics
    for edge in graph.edges():
        assert loaded.has_edge(edge.source, edge.target)
        original = graph.topic_probabilities(edge.edge_id)
        reloaded = loaded.topic_probabilities(loaded.edge_id(edge.source, edge.target))
        assert np.allclose(original, reloaded)


def test_edge_list_preserves_labels(tmp_path):
    graph = line_graph(3, probability=0.5)
    graph.vertex_labels[0] = "alice"
    path = tmp_path / "labelled.txt"
    save_edge_list(graph, path)
    loaded = load_edge_list(path)
    assert loaded.label_of(0) == "alice"
    assert loaded.label_of(1) == "u1"


def test_load_edge_list_rejects_foreign_files(tmp_path):
    path = tmp_path / "not_a_graph.txt"
    path.write_text("hello world\n")
    with pytest.raises(GraphError):
        load_edge_list(path)


def test_load_edge_list_rejects_malformed_edges(tmp_path):
    path = tmp_path / "broken.txt"
    path.write_text("# pitex-graph v1\n# vertices 3 topics 2\n0 1 0.5\n")
    with pytest.raises(GraphError):
        load_edge_list(path)
