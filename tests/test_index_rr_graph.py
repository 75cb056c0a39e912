"""Tests for the RR-Graph structure (Definitions 2 and 3)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.digraph import TopicSocialGraph
from repro.graph.generators import line_graph, random_topic_graph
from repro.index.delayed import SAMPLES_PER_CHUNK, DelayedMaterializationIndex
from repro.index.rr_graph import RRBlock, sample_rr_arrays
from repro.utils.rng import RandomSource, spawn_rng

from rr_views import RRGraphView, block_of, graph_views, sorted_frontier_rr_arrays


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


def assert_same_arrays(arrays, expected):
    """Same names, dtypes, shapes, write flags and value bits."""
    assert arrays.keys() == expected.keys()
    for name, array in arrays.items():
        assert array.dtype == expected[name].dtype, name
        assert array.shape == expected[name].shape, name
        assert array.flags.writeable == expected[name].flags.writeable, name
        assert array.tobytes() == expected[name].tobytes(), name


# Zero and one on every edge kind: p(e) = 0 is never kept, p(e) = 1 always.
EDGE_PROBABILITIES = st.sampled_from([0.0, 0.0, 1.0, 0.05, 0.3, 0.5, 0.8, 0.97])


@st.composite
def small_graphs(draw):
    """A random digraph on 1-9 vertices with two topics per edge.

    Some edges carry zero probability on both topics, and vertices without
    in-edges are common, so roots with in-degree 0 and dead edges occur.
    """
    num_vertices = draw(st.integers(1, 9))
    graph = TopicSocialGraph(num_vertices, 2)
    pairs = [(u, v) for u in range(num_vertices) for v in range(num_vertices) if u != v]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=30)) if pairs else []
    for source, target in chosen:
        graph.add_edge(source, target, [draw(EDGE_PROBABILITIES), draw(EDGE_PROBABILITIES)])
    return graph.snapshot()


@settings(max_examples=300, deadline=None)
@given(
    graph=small_graphs(),
    num_samples=st.integers(0, 8),
    root=st.one_of(st.none(), st.integers(0, 8)),
    tie_stride=st.sampled_from([None, 1, 2]),
    seed=st.integers(0, 2**32 - 1),
)
def test_sampler_matches_the_sorted_frontier_reference_bit_for_bit(
    graph, num_samples, root, tie_stride, seed
):
    """Same arrays, dtypes and write flags, and the same generator state after the call.

    With a fixed root and a ``tie_stride``, the first sample sits on the keep
    boundary ``c(e) <= p(e)``: every ``tie_stride``-th edge it examines (in
    draw order) gets ``p(e)`` equal to the ``c(e)`` it is about to draw, and
    the other edges it examines get ``p(e) = 1``.
    """
    max_probabilities = None
    if root is not None:
        root %= graph.num_vertices
        if tie_stride is not None:
            ones = np.ones(graph.num_edges)
            walk = sorted_frontier_rr_arrays(graph, 1, RandomSource(seed), ones, root)
            max_probabilities = graph.max_edge_probabilities().copy()
            max_probabilities[walk["edge_ids"]] = 1.0
            tied = walk["edge_ids"][::tie_stride]
            max_probabilities[tied] = walk["edge_thresholds"][::tie_stride]
    rng, reference_rng = RandomSource(seed), RandomSource(seed)
    arrays = sample_rr_arrays(graph, num_samples, rng, max_probabilities, root)
    expected = sorted_frontier_rr_arrays(graph, num_samples, reference_rng, max_probabilities, root)
    assert_same_arrays(arrays, expected)
    assert rng.generator.bit_generator.state == reference_rng.generator.bit_generator.state


@pytest.mark.parametrize("seed", [1, 7])
def test_delayed_build_across_chunks_matches_the_reference(seed):
    """A DelayMat build longer than one chunk counts what the reference draws."""
    graph = random_topic_graph(40, 2, edge_probability=0.15, base_probability=0.5, seed=seed)
    num_samples = SAMPLES_PER_CHUNK + 37
    index = DelayedMaterializationIndex(graph, num_samples, seed=seed).build()
    reference_rng = spawn_rng(seed)
    counts = np.zeros(graph.num_vertices, dtype=np.int64)
    for start in range(0, num_samples, SAMPLES_PER_CHUNK):
        size = min(SAMPLES_PER_CHUNK, num_samples - start)
        arrays = sorted_frontier_rr_arrays(index.graph, size, reference_rng)
        counts += np.bincount(arrays["vertex_ids"], minlength=len(counts))
    users = np.flatnonzero(counts)
    assert index.containment_counts == dict(zip(users.tolist(), counts[users].tolist()))
    assert index._rng.generator.bit_generator.state == reference_rng.generator.bit_generator.state
