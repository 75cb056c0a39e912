"""Tests for the RR-Graph index estimators: IndexEst, IndexEst+ and DelayMat."""

import numpy as np
import pytest

from repro.core.engine import PitexEngine
from repro.exceptions import IndexError_, IndexNotBuiltError
from repro.graph.generators import line_graph, random_topic_graph
from repro.index.delayed import DelayedIndexEstimator, DelayedMaterializationIndex
from repro.index.pruning import PrunedIndexEstimator, choose_cuts, cut_sides
from repro.index.rr_graph import RRBlock, sample_rr_arrays
from repro.index.rr_index import IndexEstimator, RRGraphIndex
from repro.index.sizing import measure_data_size, measure_delayed_index, measure_rr_index
from repro.sampling.base import SampleBudget
from repro.sampling.monte_carlo import MonteCarloEstimator
from repro.topics.model import TagTopicModel
from repro.utils.rng import RandomSource

from rr_views import graph_views


@pytest.fixture(scope="module")
def indexed_instance():
    """A moderately sized graph with a built RR-Graph index shared by the tests."""
    graph = random_topic_graph(40, 2, edge_probability=0.12, base_probability=0.6, seed=17)
    matrix = np.array(
        [
            [0.9, 0.0],
            [0.7, 0.2],
            [0.0, 0.9],
            [0.2, 0.7],
        ]
    )
    model = TagTopicModel(matrix)
    index = RRGraphIndex(graph, num_samples=4000, seed=5).build()
    return graph, model, index


def monte_carlo_reference(graph, model, user, tag_set, num_samples=6000):
    """High-sample Monte-Carlo reference value for one (user, tag set) pair."""
    budget = SampleBudget(num_tags=model.num_tags, k=len(tag_set), max_samples=num_samples)
    estimator = MonteCarloEstimator(graph, model, budget, seed=1234)
    probabilities = model.edge_probabilities(graph, tag_set)
    return estimator.estimate_with_probabilities(user, probabilities, num_samples=num_samples).value


def test_index_requires_build():
    graph = line_graph(3, probability=0.5)
    index = RRGraphIndex(graph, num_samples=10, seed=1)
    with pytest.raises(IndexNotBuiltError):
        index.graphs_containing(0)
    with pytest.raises(IndexNotBuiltError):
        index.memory_bytes()


def test_index_containment_lists_consistent(indexed_instance):
    graph, _, index = indexed_instance
    views = graph_views(index.to_arrays())
    assert len(views) == index.num_samples
    for vertex, positions in index.containment.items():
        for position in positions:
            assert vertex in views[position].vertices
    assert index.average_rr_graph_size() >= 1.0
    assert index.build_seconds > 0.0


def test_index_estimate_matches_monte_carlo_reference(indexed_instance):
    graph, model, index = indexed_instance
    user = 0
    tag_set = (0, 1)
    probabilities = model.edge_probabilities(graph, tag_set)
    reference = monte_carlo_reference(graph, model, user, tag_set)
    estimate = index.estimate(user, probabilities)
    assert estimate.value == pytest.approx(reference, rel=0.25, abs=0.5)
    assert estimate.method == "indexest"


def test_index_estimator_wrapper(indexed_instance):
    graph, model, index = indexed_instance
    estimator = IndexEstimator(graph, model, index, SampleBudget(num_tags=4, k=2))
    estimate = estimator.estimate(0, (0, 1))
    direct = index.estimate(0, model.edge_probabilities(graph, (0, 1)))
    assert estimate.value == pytest.approx(direct.value)


def test_index_estimator_rejects_wrong_graph(indexed_instance):
    graph, model, index = indexed_instance
    other = line_graph(3, probability=0.5, num_topics=2)
    with pytest.raises(IndexNotBuiltError):
        IndexEstimator(other, model, index)


def test_pruned_estimator_agrees_with_plain_index(indexed_instance):
    """Filter-and-verify must return exactly the same estimate as Algorithm 3."""
    graph, model, index = indexed_instance
    plain = IndexEstimator(graph, model, index)
    pruned = PrunedIndexEstimator(graph, model, index)
    for user in (0, 3, 7, 11):
        for tag_set in [(0,), (2,), (0, 1), (2, 3), (1, 2)]:
            probabilities = model.edge_probabilities(graph, tag_set)
            a = plain.estimate_with_probabilities(user, probabilities)
            b = pruned.estimate_with_probabilities(user, probabilities)
            assert a.value == pytest.approx(b.value), (user, tag_set)


def test_pruned_estimator_filters_candidates(indexed_instance):
    graph, model, index = indexed_instance
    pruned = PrunedIndexEstimator(graph, model, index)
    user = 0
    weak_tag_set = (2,)  # mostly topic-1 edges
    probabilities = model.edge_probabilities(graph, weak_tag_set)
    structures = pruned._structures_for(user)
    candidates = structures.candidate_set(structures.scan(np.asarray(probabilities, dtype=float)[None])[1])
    universe = index.graphs_containing(user)
    assert len(candidates) <= len(universe)


def one_pair(block, user):
    """``(graphs, starts)`` arrays of the one pair (``user``, graph 0) of ``block``."""
    graphs = np.zeros(1, dtype=np.int64)
    return graphs, block.start_nodes(np.array([user]), graphs)


def test_edge_cut_construction_properties():
    graph = line_graph(4, probability=1.0)
    block = RRBlock(sample_rr_arrays(graph, 1, RandomSource(1), root=3))
    always, source, target = cut_sides(block, *one_pair(block, 0))
    assert not always[0]
    assert np.diff(source[0]).tolist() == [1]  # 0 has one out-edge in the chain
    assert np.diff(target[0]).tolist() == [1]  # 3 has one in-edge reachable from 0
    assert cut_sides(block, *one_pair(block, 3))[0].tolist() == [True]
    always, indptr, _, _ = choose_cuts(block, *one_pair(block, 0), graph.max_edge_probabilities())
    assert indptr[-1] > 0 or always[0]


def test_edge_cut_pruning_probability_monotone():
    graph = line_graph(3, probability=1.0)
    block = RRBlock(sample_rr_arrays(graph, 1, RandomSource(1), root=2))
    maxima = graph.max_edge_probabilities()
    always, _, edge_ids, thresholds = choose_cuts(block, *one_pair(block, 0), maxima)
    assert not always[0] and edge_ids.size
    probability = float(np.prod(np.minimum(1.0, thresholds / maxima[edge_ids])))
    assert 0.0 <= probability <= 1.0
    # The root itself can never be cut off: no entries, always a candidate.
    always, indptr, _, _ = choose_cuts(block, *one_pair(block, 2), maxima)
    assert always.tolist() == [True] and indptr.tolist() == [0, 0]


def test_delayed_index_counts_match_full_index(indexed_instance):
    graph, model, index = indexed_instance
    delayed = DelayedMaterializationIndex(graph, num_samples=4000, seed=5).build()
    # Same seed and sample count: the containment counts must match exactly.
    for user in range(graph.num_vertices):
        assert delayed.containment_count(user) == index.containment_count(user)


def test_delayed_index_memory_much_smaller(indexed_instance):
    graph, _, index = indexed_instance
    delayed = DelayedMaterializationIndex(graph, num_samples=4000, seed=5).build()
    assert delayed.memory_bytes() < index.memory_bytes() / 10
    rr_footprint = measure_rr_index(index, "test")
    delay_footprint = measure_delayed_index(delayed, "test")
    data_footprint = measure_data_size(graph, "test")
    assert delay_footprint.size_megabytes < rr_footprint.size_megabytes
    assert data_footprint.size_bytes == graph.memory_bytes()
    assert rr_footprint.row()[0] == "test"


def test_delayed_index_requires_build():
    graph = line_graph(3, probability=0.5)
    delayed = DelayedMaterializationIndex(graph, num_samples=10, seed=1)
    with pytest.raises(IndexNotBuiltError):
        delayed.containment_count(0)


@pytest.mark.parametrize("index_class", [RRGraphIndex, DelayedMaterializationIndex])
def test_an_index_builds_once(index_class):
    """A second build(), or a build() on a loaded index, raises and changes nothing."""
    graph = random_topic_graph(30, 2, edge_probability=0.15, base_probability=0.6, seed=3)
    built = index_class(graph, num_samples=60, seed=4).build()
    loaded = index_class.from_arrays(graph, built.to_arrays())
    for index in (built, loaded):
        before = {name: array.tobytes() for name, array in index.to_arrays().items()}
        with pytest.raises(IndexError_):
            index.build()
        assert index.is_built
        assert {name: array.tobytes() for name, array in index.to_arrays().items()} == before


def test_delayed_recovered_graphs_contain_user(indexed_instance):
    graph, _, _ = indexed_instance
    delayed = DelayedMaterializationIndex(graph, num_samples=500, seed=5).build()
    user = 0
    recovered = graph_views(*delayed.recover_for_user(user, RandomSource(9)))
    assert len(recovered) == delayed.containment_count(user)
    for rr in recovered:
        assert user in rr.vertices
        assert rr.weight >= 1.0
        maxima = graph.max_edge_probabilities()
        for edge_id, threshold in zip(rr.edge_ids, rr.edge_thresholds):
            assert threshold <= maxima[edge_id]


def test_delayed_estimator_matches_monte_carlo_reference(indexed_instance):
    graph, model, index = indexed_instance
    delayed = DelayedMaterializationIndex(graph, num_samples=4000, seed=5).build()
    estimator = DelayedIndexEstimator(graph, model, delayed, seed=3)
    user = 0
    tag_set = (0, 1)
    probabilities = model.edge_probabilities(graph, tag_set)
    reference = monte_carlo_reference(graph, model, user, tag_set)
    estimate = estimator.estimate_with_probabilities(user, probabilities)
    assert estimate.value == pytest.approx(reference, rel=0.3, abs=0.5)


def test_delayed_estimator_pruning_consistency(indexed_instance):
    """With and without cut pruning the DelayMat estimate must be identical."""
    graph, model, _ = indexed_instance
    delayed = DelayedMaterializationIndex(graph, num_samples=1000, seed=5).build()
    with_pruning = DelayedIndexEstimator(graph, model, delayed, use_pruning=True, seed=3)
    without_pruning = DelayedIndexEstimator(graph, model, delayed, use_pruning=False, seed=3)
    user = 0
    probabilities = model.edge_probabilities(graph, (0, 1))
    a = with_pruning.estimate_with_probabilities(user, probabilities)
    b = without_pruning.estimate_with_probabilities(user, probabilities)
    # The recovered graphs differ between the two estimators (independent RNG
    # draws) so only approximate agreement is expected.
    assert a.value == pytest.approx(b.value, rel=0.4, abs=0.5)


def test_frozen_index_hands_out_immutable_containment():
    graph = random_topic_graph(40, 2, edge_probability=0.12, base_probability=0.6, seed=17)
    model = TagTopicModel(np.array([[0.9, 0.0], [0.7, 0.2], [0.0, 0.9], [0.2, 0.7]]))
    engine = PitexEngine(graph, model, max_samples=40, index_samples=200, default_k=2, seed=7)
    engine.freeze(methods=("indexest",), ks=(2,))
    user = max(engine.rr_index.containment, key=lambda v: len(engine.rr_index.containment[v]))
    before = engine.query(user, k=2, method="indexest")
    graphs = engine.rr_index.graphs_containing(user)
    assert isinstance(graphs, tuple) and graphs
    with pytest.raises(AttributeError):
        graphs.clear()
    with pytest.raises(TypeError):
        graphs[0] = graphs[-1]
    after = engine.query(user, k=2, method="indexest")
    assert (after.tag_ids, after.spread) == (before.tag_ids, before.spread)
    assert engine.rr_index.graphs_containing(graph.num_vertices) == ()
