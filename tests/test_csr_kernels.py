"""CSR-vs-dict equivalence tests for the vectorized sampling kernels.

Two kinds of guarantees are asserted:

* **Exact equivalence** for deterministic traversals: the CSR arrays describe
  the same adjacency as the dict-of-lists storage, and threshold reachability
  (``R_W(u)``) is identical under both kernels on arbitrary random graphs.
* **Statistical equivalence** for sampled traversals: with fixed seeds, spread
  estimates produced by the vectorized possible-world kernels agree with the
  per-edge reference walkers (and with the exact oracle on tiny graphs) within
  tight tolerances.  Batched coin flipping consumes uniforms in a different
  order, so per-seed sample paths legitimately differ -- the distributions must
  not.
"""

import numpy as np
import pytest

from repro.graph.algorithms import (
    live_edge_world,
    reachable_mask,
    reachable_vertices,
    reachable_with_probabilities,
    reverse_live_edge_world,
    reverse_reachable,
)
from repro.graph.digraph import TopicSocialGraph
from repro.graph.generators import random_topic_graph
from repro.index.delayed import DelayedMaterializationIndex
from repro.index.rr_graph import sample_rr_arrays
from repro.propagation.exact import exact_influence_spread
from repro.sampling.base import SampleBudget
from repro.sampling.lazy import LazyPropagationEstimator
from repro.sampling.monte_carlo import MonteCarloEstimator
from repro.sampling.reverse_reachable import ReverseReachableEstimator
from repro.utils.rng import RandomSource

from rr_views import RRGraphView, block_of, graph_views, reference_rr_graph


def random_graphs(count=6, max_vertices=30, seed0=100):
    """A spread of random graphs of varying size/density, plus an empty one."""
    graphs = [TopicSocialGraph(4, 2)]  # no edges at all
    for i in range(count):
        graphs.append(
            random_topic_graph(
                8 + 4 * i,
                3,
                edge_probability=0.1 + 0.05 * i,
                base_probability=0.5,
                seed=seed0 + i,
            )
        )
    return graphs


# ------------------------------------------------------------- CSR structure


def test_csr_arrays_match_adjacency_lists():
    for graph in random_graphs():
        csr = graph.csr
        assert csr.num_vertices == graph.num_vertices
        assert csr.num_edges == graph.num_edges
        for vertex in graph.vertices():
            edge_ids, targets = csr.out_slice(vertex)
            assert edge_ids.tolist() == graph.out_edges(vertex)
            assert targets.tolist() == [graph.edge_endpoints(e)[1] for e in graph.out_edges(vertex)]
            in_ids, sources = csr.in_slice(vertex)
            assert in_ids.tolist() == graph.in_edges(vertex)
            assert sources.tolist() == [graph.edge_endpoints(e)[0] for e in graph.in_edges(vertex)]
        for edge in graph.edges():
            assert int(csr.edge_sources[edge.edge_id]) == edge.source
            assert int(csr.edge_targets[edge.edge_id]) == edge.target


def test_csr_cache_is_reused_and_invalidated_on_mutation():
    graph = TopicSocialGraph(4, 2)
    graph.add_edge(0, 1, [0.5, 0.1])
    graph.add_edge(1, 2, [0.2, 0.6])
    first = graph.csr
    assert graph.csr is first  # cached
    version = graph.version
    graph.add_edge(2, 3, [0.3, 0.3])
    assert graph.version == version + 1
    rebuilt = graph.csr
    assert rebuilt is not first
    assert rebuilt.num_edges == first.num_edges + 1
    # The stale reference still describes the pre-mutation snapshot.
    assert first.num_edges == rebuilt.num_edges - 1


def test_adjacency_accessors_return_defensive_copies():
    graph = random_topic_graph(8, 2, edge_probability=0.4, seed=5)
    out_before = graph.out_edges(0)
    graph.out_edges(0).append(10_000)
    graph.in_edges(0).clear()
    assert graph.out_edges(0) == out_before
    # The CSR cache stays consistent with the (unchanged) graph.
    edge_ids, _ = graph.csr.out_slice(0)
    assert edge_ids.tolist() == out_before


# ------------------------------------------------------ exact reachability


def test_reachable_with_probabilities_kernels_agree():
    for graph in random_graphs():
        if graph.num_edges == 0:
            probabilities = np.zeros(0)
        else:
            probabilities = graph.max_edge_probabilities().copy()
            probabilities[:: max(1, graph.num_edges // 3)] = 0.0  # knock out some edges
        for source in range(0, graph.num_vertices, 3):
            via_dict = reachable_with_probabilities(graph, source, probabilities, kernel="dict")
            via_csr = reachable_with_probabilities(graph, source, probabilities, kernel="csr")
            assert via_csr == via_dict
            mask = reachable_mask(graph, source, probabilities)
            assert set(np.flatnonzero(mask).tolist()) == via_dict
            assert reachable_vertices(graph, source, probabilities).tolist() == sorted(via_dict)


def test_reachable_threshold_matches_dict_kernel():
    graph = random_topic_graph(20, 3, edge_probability=0.25, base_probability=0.6, seed=42)
    probabilities = graph.max_edge_probabilities()
    for threshold in (0.0, 0.2, 0.5, 0.9):
        assert reachable_with_probabilities(
            graph, 0, probabilities, threshold=threshold, kernel="csr"
        ) == reachable_with_probabilities(graph, 0, probabilities, threshold=threshold, kernel="dict")


# -------------------------------------------------- sampled world kernels


def test_live_edge_world_extremes_match_structure():
    graph = random_topic_graph(15, 2, edge_probability=0.3, seed=9)
    rng = RandomSource(1)
    ones = np.ones(graph.num_edges)
    activated, live_edges, probes = live_edge_world(graph, 0, ones, rng, collect_edges=True)
    assert set(np.flatnonzero(activated).tolist()) == reachable_with_probabilities(graph, 0, ones)
    assert probes == len(live_edges)  # every probed edge is alive under p=1
    zeros = np.zeros(graph.num_edges)
    activated, live_edges, probes = live_edge_world(graph, 0, zeros, rng, collect_edges=True)
    assert np.flatnonzero(activated).tolist() == [0]
    assert probes == 0 and len(live_edges) == 0
    # Under p=1 the reverse world is exactly structural reverse reachability.
    reached, _ = reverse_live_edge_world(graph, 3, ones, rng)
    assert set(np.flatnonzero(reached).tolist()) == reverse_reachable(graph, 3)


def test_live_edges_are_valid_and_alive_only_for_positive_probabilities():
    graph = random_topic_graph(20, 3, edge_probability=0.3, base_probability=0.5, seed=21)
    probabilities = graph.max_edge_probabilities().copy()
    probabilities[::2] = 0.0
    rng = RandomSource(7)
    activated, live_edges, _ = live_edge_world(graph, 1, probabilities, rng, collect_edges=True)
    for edge_id in live_edges.tolist():
        assert probabilities[edge_id] > 0.0
        source, target = graph.edge_endpoints(edge_id)
        assert activated[source] and activated[target]


# ----------------------------------------------- estimator-level agreement


@pytest.mark.parametrize("kernel", ["csr", "dict"])
def test_mc_estimator_matches_exact_oracle_on_line(kernel, deterministic_line, small_model):
    budget = SampleBudget(num_tags=6, max_samples=50, min_samples=10)
    estimator = MonteCarloEstimator(
        deterministic_line, small_model, budget, seed=3, kernel=kernel
    )
    estimate = estimator.estimate_with_probabilities(0, np.ones(deterministic_line.num_edges), 20)
    assert estimate.value == pytest.approx(5.0)


def test_mc_estimators_statistically_agree():
    graph = random_topic_graph(18, 3, edge_probability=0.25, base_probability=0.5, seed=77)
    probabilities = graph.max_edge_probabilities()
    budget = SampleBudget(num_tags=6)
    samples = 4000
    # estimate_with_probabilities never touches the tag-topic model
    csr = MonteCarloEstimator(graph, None, budget, seed=11, kernel="csr")
    dict_est = MonteCarloEstimator(graph, None, budget, seed=12, kernel="dict")
    value_csr = csr.estimate_with_probabilities(2, probabilities, samples).value
    value_dict = dict_est.estimate_with_probabilities(2, probabilities, samples).value
    assert value_csr == pytest.approx(value_dict, rel=0.08)
    if graph.num_edges <= 22:
        exact = exact_influence_spread(graph, 2, probabilities)
        assert value_csr == pytest.approx(exact, rel=0.12)


def test_rr_estimators_statistically_agree(small_graph, small_model, tiny_budget):
    probabilities = small_graph.max_edge_probabilities()
    samples = 3000
    csr = ReverseReachableEstimator(small_graph, small_model, tiny_budget, seed=5, kernel="csr")
    dict_est = ReverseReachableEstimator(small_graph, small_model, tiny_budget, seed=6, kernel="dict")
    value_csr = csr.estimate_with_probabilities(0, probabilities, samples).value
    value_dict = dict_est.estimate_with_probabilities(0, probabilities, samples).value
    assert value_csr == pytest.approx(value_dict, rel=0.10, abs=0.25)


def test_lazy_estimators_statistically_agree_across_kernels(small_graph, small_model, tiny_budget):
    probabilities = small_graph.max_edge_probabilities()
    samples = 3000
    values = {}
    for kernel, seed in (("csr", 14), ("dict", 15)):
        lazy = LazyPropagationEstimator(
            small_graph, small_model, tiny_budget, seed=seed, early_stopping=False, kernel=kernel
        )
        values[kernel] = lazy.estimate_with_probabilities(0, probabilities, samples).value
    assert values["csr"] == pytest.approx(values["dict"], rel=0.10, abs=0.25)


def test_lazy_estimator_matches_mc_with_csr_kernels(small_graph, small_model, tiny_budget):
    probabilities = small_graph.max_edge_probabilities()
    lazy = LazyPropagationEstimator(
        small_graph, small_model, tiny_budget, seed=8, early_stopping=False
    )
    mc = MonteCarloEstimator(small_graph, small_model, tiny_budget, seed=9, kernel="csr")
    samples = 3000
    lazy_value = lazy.estimate_with_probabilities(0, probabilities, samples).value
    mc_value = mc.estimate_with_probabilities(0, probabilities, samples).value
    assert lazy_value == pytest.approx(mc_value, rel=0.10, abs=0.25)


# --------------------------------------------------------------- RR-Graphs


def test_generate_rr_graph_kernels_structurally_agree():
    graph = random_topic_graph(25, 3, edge_probability=0.2, base_probability=0.6, seed=31)
    maxima = graph.max_edge_probabilities()
    batched = graph_views(sample_rr_arrays(graph, 1, RandomSource(17), root=5))[0]
    for rr in (batched, reference_rr_graph(graph, 5, RandomSource(17))):
        assert rr.root == 5
        assert 5 in rr.vertices
        for local, edge_id in enumerate(rr.edge_ids):
            assert rr.edge_thresholds[local] <= maxima[edge_id]
            source, target = graph.edge_endpoints(edge_id)
            assert source == rr.edge_sources[local]
            assert target == rr.edge_targets[local]
            assert target in rr.vertices
        # every non-root stored vertex reaches the root through stored edges
        # (all c(e) <= p(e) <= 1, so every stored edge is live under all ones)
        block = block_of([rr])
        for vertex in rr.vertices:
            assert block.reach_many(vertex, [0], np.ones(graph.num_edges))[0].tolist() == [True]


def test_generate_rr_graph_mean_size_matches_between_kernels():
    graph = random_topic_graph(30, 3, edge_probability=0.2, base_probability=0.5, seed=57)
    draws = 300
    rng = RandomSource(2)
    batched = [
        len(graph_views(sample_rr_arrays(graph, 1, rng, root=root % 30))[0].vertices)
        for root in range(draws)
    ]
    rng = RandomSource(3)
    reference = [len(reference_rr_graph(graph, root % 30, rng).vertices) for root in range(draws)]
    assert np.mean(batched) == pytest.approx(np.mean(reference), rel=0.12, abs=0.6)


def test_tag_aware_reachable_handles_out_of_sync_vertices():
    # Regression: a hand-assembled graph whose vertex list was not kept in
    # sync with its edges used to crash the csr kernel (endpoint ids were
    # mapped past the member array); the block takes the union instead.
    rr = RRGraphView(0, {0, 5}, edge_ids=[0, 1], edge_sources=[5, 9], edge_targets=[0, 5], edge_thresholds=[0.1, 0.1])
    probabilities = np.full(2, 0.9)
    assert block_of([rr]).reach_many(5, [0], probabilities)[0].tolist() == [True]


def test_indexes_go_stale_when_graph_mutates(small_graph):
    """A built index keeps answering the graph version it pinned; a new one sees the write."""
    from repro.index.rr_index import RRGraphIndex

    graph = small_graph.copy()
    index = RRGraphIndex(graph, num_samples=40, seed=2).build()
    pinned = index.graph
    before = index.estimate(0, pinned.max_edge_probabilities())
    free_pair = next(
        (s, t)
        for s in graph.vertices()
        for t in graph.vertices()
        if s != t and not graph.has_edge(s, t)
    )
    graph.add_edge(*free_pair, [0.5] * graph.num_topics)
    assert index.is_built and index.graph is pinned
    assert not pinned.has_edge(*free_pair) and pinned.version == graph.version - 1
    assert index.estimate(0, pinned.max_edge_probabilities()) == before
    fresh = RRGraphIndex(graph, num_samples=40, seed=2).build()
    assert fresh.graph is graph.snapshot() and fresh.graph.has_edge(*free_pair)


def test_delayed_recovery_invariants(small_graph):
    index = DelayedMaterializationIndex(small_graph, num_samples=40, seed=12).build()
    maxima = small_graph.max_edge_probabilities()
    users = [v for v in small_graph.vertices() if small_graph.out_degree(v) > 0]
    recovered = graph_views(*index.recover_for_user(users[0], RandomSource(3)))
    assert len(recovered) == index.containment_count(users[0]) > 0
    for rr in recovered:
        assert rr.root in rr.vertices
        assert rr.weight >= 1.0
        for local, edge_id in enumerate(rr.edge_ids):
            assert 0.0 <= rr.edge_thresholds[local] <= maxima[edge_id]
            assert rr.edge_sources[local] in rr.vertices
            assert rr.edge_targets[local] in rr.vertices


# --------------------------------------------------------------- RNG sugar


def test_geometric_array_matches_scalar_distribution():
    rng = RandomSource(2024)
    probabilities = np.array([1.0, 0.0, 0.5])
    draws = rng.geometric_array(probabilities)
    assert draws[0] == 1
    assert draws[1] == np.iinfo(np.int64).max
    assert draws[2] >= 1
    # distributional check: mean of Geometric(p) is 1/p
    many = rng.geometric_array(np.full(20000, 0.25))
    assert np.mean(many) == pytest.approx(4.0, rel=0.05)


def test_geometric_array_tiny_probabilities_do_not_overflow():
    # Regression: inverse-CDF draws for minuscule p used to overflow the int64
    # cast and could produce negative fire times (edges firing immediately).
    rng = RandomSource(6)
    draws = rng.geometric_array(np.array([1e-300, 1e-18, 1e-12, 1e-6]))
    assert np.all(draws >= 1)
    assert np.all(draws <= 2**62)


def test_uniforms_upto_respects_bounds():
    rng = RandomSource(8)
    highs = np.array([0.1, 0.5, 1.0, 0.0])
    draws = rng.uniforms_upto(highs)
    assert np.all(draws >= 0.0)
    assert np.all(draws <= highs)
