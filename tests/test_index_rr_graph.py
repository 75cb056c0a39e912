"""Tests for the RR-Graph structure (Definitions 2 and 3)."""

import numpy as np
import pytest

from repro.graph.generators import line_graph, random_topic_graph
from repro.index.rr_graph import RRBlock, sample_rr_arrays
from repro.utils.rng import RandomSource

from rr_views import RRGraphView, block_of, graph_views


def rr_graph_at(graph, root, rng):
    """One sample rooted at ``root``, as a per-graph view."""
    return graph_views(sample_rr_arrays(graph, 1, rng, root=root))[0]


def test_generate_rr_graph_deterministic_chain():
    """With probability-1 edges every upstream vertex joins the RR-Graph."""
    graph = line_graph(5, probability=1.0)
    rr = rr_graph_at(graph, 4, RandomSource(1))
    assert rr.vertices == {0, 1, 2, 3, 4}
    assert len(rr.edge_ids) == 4
    assert all(threshold <= 1.0 for threshold in rr.edge_thresholds)


def test_generate_rr_graph_zero_probability_edges_excluded():
    graph = line_graph(4, probability=0.0)
    rr = rr_graph_at(graph, 3, RandomSource(1))
    assert rr.vertices == {3}
    assert len(rr.edge_ids) == 0


def test_generate_rr_graph_thresholds_below_max_probability():
    graph = random_topic_graph(30, 2, edge_probability=0.3, base_probability=0.6, seed=2)
    maxima = graph.max_edge_probabilities()
    rr = rr_graph_at(graph, 5, RandomSource(3))
    for edge_id, threshold in zip(rr.edge_ids, rr.edge_thresholds):
        assert threshold <= maxima[edge_id] + 1e-12


def test_generate_rr_graph_membership_frequency_matches_reachability():
    """The probability that u joins GRR_v equals Pr[u reaches v] under p(e)."""
    graph = line_graph(3, probability=0.5)
    rng = RandomSource(7)
    contains = 0
    trials = 4000
    for _ in range(trials):
        rr = rr_graph_at(graph, 2, rng)
        if 0 in rr.vertices:
            contains += 1
    assert contains / trials == pytest.approx(0.25, abs=0.03)


def test_tag_aware_reachable_root_and_absent_vertices():
    graph = line_graph(3, probability=1.0)
    block = RRBlock(sample_rr_arrays(graph, 1, RandomSource(1), root=2))
    hits, checked = block.reach_many(2, [0], np.ones(2))
    assert hits.tolist() == [True] and checked == 0
    hits, _ = block.reach_many(99, [0], np.ones(2))
    assert hits.tolist() == [False]


def test_tag_aware_reachable_depends_on_probabilities():
    graph = line_graph(3, probability=1.0)
    edge_ids = [graph.edge_id(0, 1), graph.edge_id(1, 2)]
    block = block_of([RRGraphView(2, {0, 1, 2}, edge_ids, [0, 1], [1, 2], [0.4, 0.6])])
    high = np.array([0.7, 0.7])
    low = np.array([0.5, 0.5])
    assert block.reach_many(0, [0], high)[0].tolist() == [True]
    assert block.reach_many(0, [0], low)[0].tolist() == [False]  # the 0.6 threshold edge is dead
    zero = np.zeros(2)
    assert block.reach_many(0, [0], zero)[0].tolist() == [False]


def test_structurally_reachable_ignores_thresholds():
    """With every edge live, each member of the chain reaches the root's one in-slot."""
    graph = line_graph(4, probability=1.0)
    block = RRBlock(sample_rr_arrays(graph, 1, RandomSource(2), root=3))
    assert block.root_in_sources.size == 1
    members = block.start_nodes(np.arange(4), np.zeros(4, dtype=np.int64))
    assert (block.root_reach()[members[:3], 0] == 1).all()
    assert block.start_nodes(np.array([99]), np.zeros(1, dtype=np.int64)).tolist() == [-1]
