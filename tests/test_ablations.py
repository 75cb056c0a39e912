"""Ablation tests for the design choices of the paper's methods.

These are small, deterministic studies rather than benchmarks: they check that
each optimization actually contributes what the paper claims it contributes,
on instances where the effect is measurable.

* edge-cut choice: picking the better of the source-side / target-side cut
  never prunes less than either fixed choice alone;
* best-effort bound method: the sampled bound evaluates no more tag sets than
  the loose reachability bound;
* lazy sampling vs MC: identical estimates, far fewer edge probes;
* delayed materialization: same answers as the materialized index at a tiny
  fraction of the memory.
"""

import numpy as np
import pytest

from repro.core.best_effort import BestEffortExplorer
from repro.core.query import PitexQuery
from repro.graph.generators import power_law_topic_graph, star_fan_out_graph
from repro.index.pruning import PrunedIndexEstimator, choose_cuts, cut_sides
from repro.index.rr_index import RRGraphIndex
from repro.sampling.base import SampleBudget
from repro.sampling.lazy import LazyPropagationEstimator
from repro.sampling.monte_carlo import MonteCarloEstimator
from repro.topics.model import TagTopicModel


@pytest.fixture(scope="module")
def ablation_instance():
    graph = power_law_topic_graph(150, 4.0, 3, base_probability=0.3, seed=41)
    matrix = np.array(
        [
            [0.9, 0.0, 0.0],
            [0.7, 0.2, 0.0],
            [0.0, 0.9, 0.0],
            [0.0, 0.6, 0.3],
            [0.0, 0.0, 0.9],
            [0.2, 0.0, 0.7],
        ]
    )
    model = TagTopicModel(matrix)
    index = RRGraphIndex(graph, num_samples=800, seed=9).build()
    return graph, model, index


def test_choose_edge_cut_is_at_least_as_good_as_either_side(ablation_instance):
    graph, _, index = ablation_instance
    maxima = graph.max_edge_probabilities()
    block = index.block()

    def pruning_probabilities(indptr, edge_ids, thresholds):
        """Per run, the probability that every cut entry stays dead (Example 7)."""
        factors = np.minimum(1.0, thresholds / maxima[edge_ids])
        return [float(np.prod(factors[lo:hi])) for lo, hi in zip(indptr[:-1], indptr[1:])]

    users = [v for v in graph.vertices() if graph.out_degree(v) > 0][:5]
    for user in users:
        graphs = np.array(index.graphs_containing(user)[:20], dtype=np.int64)
        starts = block.start_nodes(np.full(len(graphs), user), graphs)
        always, source, target = cut_sides(block, graphs, starts)
        chosen_always, *chosen = choose_cuts(block, graphs, starts, maxima)
        assert chosen_always.tolist() == always.tolist()
        best = np.maximum(pruning_probabilities(*source), pruning_probabilities(*target))
        chosen = pruning_probabilities(*chosen)
        for position in np.flatnonzero(~always):
            assert chosen[position] == pytest.approx(best[position])


def test_pruned_index_estimates_equal_unpruned_for_many_tag_sets(ablation_instance):
    """The filter may only remove RR-Graphs that could never match."""
    graph, model, index = ablation_instance
    from repro.index.rr_index import IndexEstimator

    plain = IndexEstimator(graph, model, index)
    pruned = PrunedIndexEstimator(graph, model, index)
    user = max(graph.vertices(), key=graph.out_degree)
    for tag_set in [(0,), (1, 2), (3, 4), (0, 5), (2, 3, 4)]:
        probabilities = model.edge_probabilities(graph, tag_set)
        assert pruned.estimate_with_probabilities(user, probabilities).value == pytest.approx(
            plain.estimate_with_probabilities(user, probabilities).value
        )


def test_sampled_bound_evaluates_no_more_than_reach_bound(ablation_instance):
    graph, model, _ = ablation_instance
    user = max(graph.vertices(), key=graph.out_degree)
    budget = SampleBudget(num_tags=model.num_tags, k=2, max_samples=200, min_samples=60)
    results = {}
    for bound_method in ("reach", "sample"):
        estimator = LazyPropagationEstimator(graph, model, budget, seed=7, early_stopping=False)
        explorer = BestEffortExplorer(model, estimator, bound_method=bound_method)
        results[bound_method] = explorer.explore(PitexQuery(user=user, k=2, epsilon=0.7))
    # The sampled bound is tighter, so it should not evaluate more tag sets
    # (allow a small slack for sampling noise in the incumbent).
    assert results["sample"].evaluated_tag_sets <= results["reach"].evaluated_tag_sets + 2
    # Both return tag sets of comparable quality.
    assert results["sample"].spread == pytest.approx(results["reach"].spread, rel=0.5)


def test_lazy_matches_mc_value_with_fraction_of_probes():
    graph = star_fan_out_graph(200, num_topics=2)
    model = TagTopicModel(np.ones((3, 2)))
    budget = SampleBudget(num_tags=3, k=1, max_samples=500, min_samples=500)
    probabilities = graph.max_edge_probabilities()
    mc = MonteCarloEstimator(graph, model, budget, seed=3).estimate_with_probabilities(
        0, probabilities, num_samples=500
    )
    lazy = LazyPropagationEstimator(
        graph, model, budget, seed=3, early_stopping=False
    ).estimate_with_probabilities(0, probabilities, num_samples=500)
    assert lazy.value == pytest.approx(mc.value, rel=0.3)
    assert lazy.edges_visited < mc.edges_visited / 20


def test_delaymat_memory_vs_materialized_index(ablation_instance):
    graph, _, index = ablation_instance
    from repro.index.delayed import DelayedMaterializationIndex

    delayed = DelayedMaterializationIndex(graph, num_samples=index.num_samples, seed=9).build()
    assert delayed.memory_bytes() < index.memory_bytes() / 20
