"""Tests for the enumeration framework and best-effort exploration."""

import functools

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.best_effort import BestEffortExplorer
from repro.core.enumeration import EnumerationExplorer
from repro.core.query import PitexQuery
from repro.exceptions import InvalidParameterError
from repro.graph.digraph import TopicSocialGraph
from repro.propagation.exact import exact_best_tag_set
from repro.sampling.base import SampleBudget
from repro.sampling.lazy import LazyPropagationEstimator
from repro.sampling.monte_carlo import MonteCarloEstimator
from repro.topics.model import TagTopicModel


@pytest.fixture
def topical_instance():
    """A small instance where the optimal tag set is unambiguous.

    Topic 0 edges reach many vertices, topic 1 edges reach few; tags 0/1 map to
    topic 0, tags 2/3 to topic 1, so the optimal 2-tag set is {0, 1}.
    """
    graph = TopicSocialGraph(7, 2)
    graph.add_edge(0, 1, [0.9, 0.0])
    graph.add_edge(0, 2, [0.9, 0.0])
    graph.add_edge(1, 3, [0.8, 0.0])
    graph.add_edge(2, 4, [0.8, 0.0])
    graph.add_edge(0, 5, [0.0, 0.3])
    graph.add_edge(5, 6, [0.0, 0.2])
    matrix = np.array(
        [
            [0.9, 0.0],
            [0.8, 0.0],
            [0.0, 0.9],
            [0.0, 0.8],
        ]
    )
    model = TagTopicModel(matrix)
    return graph, model


def make_lazy(graph, model, seed=3):
    budget = SampleBudget(num_tags=model.num_tags, k=2, max_samples=1500, min_samples=200)
    return LazyPropagationEstimator(graph, model, budget, seed=seed, early_stopping=False)


def test_enumeration_finds_exact_optimum(topical_instance):
    graph, model = topical_instance
    estimator = make_lazy(graph, model)
    explorer = EnumerationExplorer(model, estimator, keep_evaluations=True)
    result = explorer.explore(PitexQuery(user=0, k=2, epsilon=0.5))
    expected_tags, expected_spread = exact_best_tag_set(graph, model, 0, 2)
    assert result.tag_ids == expected_tags
    assert result.spread == pytest.approx(expected_spread, rel=0.2)
    assert result.evaluated_tag_sets == model.num_candidate_tag_sets(2)
    assert len(result.evaluations) == result.evaluated_tag_sets
    assert result.elapsed_seconds > 0.0


def test_enumeration_with_candidate_restriction(topical_instance):
    graph, model = topical_instance
    estimator = make_lazy(graph, model)
    explorer = EnumerationExplorer(model, estimator)
    result = explorer.explore(PitexQuery(user=0, k=2), candidate_tag_sets=[(2, 3)])
    assert result.tag_ids == (2, 3)
    assert result.evaluated_tag_sets == 1


def test_enumeration_rejects_oversized_k(topical_instance):
    graph, model = topical_instance
    explorer = EnumerationExplorer(model, make_lazy(graph, model))
    with pytest.raises(InvalidParameterError):
        explorer.explore(PitexQuery(user=0, k=10))


@pytest.mark.parametrize("bound_method", ["reach", "sample"])
def test_best_effort_matches_enumeration_optimum(topical_instance, bound_method):
    graph, model = topical_instance
    estimator = make_lazy(graph, model)
    explorer = BestEffortExplorer(model, estimator, bound_method=bound_method)
    result = explorer.explore(PitexQuery(user=0, k=2, epsilon=0.5))
    expected_tags, expected_spread = exact_best_tag_set(graph, model, 0, 2)
    assert result.tag_ids == expected_tags
    assert result.spread == pytest.approx(expected_spread, rel=0.2)


def test_best_effort_prunes_with_reach_bound(topical_instance):
    """The reach bound is deterministic, so pruning accounting must be consistent."""
    graph, model = topical_instance
    estimator = make_lazy(graph, model)
    explorer = BestEffortExplorer(model, estimator, bound_method="reach")
    result = explorer.explore(PitexQuery(user=0, k=2, epsilon=0.5))
    total_candidates = model.num_candidate_tag_sets(2)
    assert result.evaluated_tag_sets + result.pruned_tag_sets <= total_candidates
    assert result.evaluated_tag_sets >= 1


def test_best_effort_prunes_unsupported_tag_sets():
    """With a sparse tag-topic matrix many completions have zero support and are pruned."""
    graph = TopicSocialGraph(4, 3)
    graph.add_edge(0, 1, [0.8, 0.0, 0.0])
    graph.add_edge(0, 2, [0.0, 0.8, 0.0])
    graph.add_edge(0, 3, [0.0, 0.0, 0.8])
    matrix = np.zeros((9, 3))
    for tag in range(9):
        matrix[tag, tag % 3] = 0.9  # each tag supported by exactly one topic
    model = TagTopicModel(matrix)
    estimator = make_lazy(graph, model)
    explorer = BestEffortExplorer(model, estimator, bound_method="reach")
    result = explorer.explore(PitexQuery(user=0, k=2, epsilon=0.5))
    # Only same-topic pairs have non-zero influence beyond the seed; mixed pairs
    # can be pruned wholesale.  9 tags -> 36 pairs, 9 of them same-topic.
    assert result.spread > 1.0
    assert result.evaluated_tag_sets < 36


def test_best_effort_respects_candidate_tags(topical_instance):
    graph, model = topical_instance
    estimator = make_lazy(graph, model)
    explorer = BestEffortExplorer(model, estimator, bound_method="reach")
    result = explorer.explore(PitexQuery(user=0, k=2), candidate_tags=[2, 3])
    assert result.tag_ids == (2, 3)


def test_best_effort_validates_inputs(topical_instance):
    graph, model = topical_instance
    estimator = make_lazy(graph, model)
    with pytest.raises(InvalidParameterError):
        BestEffortExplorer(model, estimator, bound_method="bogus")
    explorer = BestEffortExplorer(model, estimator)
    with pytest.raises(InvalidParameterError):
        explorer.explore(PitexQuery(user=0, k=9))
    with pytest.raises(InvalidParameterError):
        explorer.explore(PitexQuery(user=0, k=3), candidate_tags=[0, 1])


def test_best_effort_works_with_mc_estimator(topical_instance):
    graph, model = topical_instance
    budget = SampleBudget(num_tags=model.num_tags, k=2, max_samples=800, min_samples=150)
    estimator = MonteCarloEstimator(graph, model, budget, seed=5)
    explorer = BestEffortExplorer(model, estimator, bound_method="sample")
    result = explorer.explore(PitexQuery(user=0, k=2, epsilon=0.5))
    expected_tags, _ = exact_best_tag_set(graph, model, 0, 2)
    assert result.tag_ids == expected_tags


def test_reach_bounds_equal_per_partial_bfs():
    """The batched reach bound of one expansion equals one BFS per partial set."""
    from itertools import combinations

    from repro.datasets.synthetic import load_dataset
    from repro.graph.algorithms import reachable_with_probabilities

    dataset = load_dataset("lastfm", scale=0.07, seed=2017)
    graph, model = dataset.graph, dataset.model
    explorer = BestEffortExplorer(model, make_lazy(graph, model), bound_method="reach")
    # 1 + 12 + 66 partial sets: more than one 64-world word.
    partials = [()] + [(t,) for t in range(12)] + list(combinations(range(12), 2))
    for user in (0, 5, 40):
        query = PitexQuery(user=user, k=3)
        expected = []
        for partial in partials:
            row = model.upper_bound_edge_probabilities(graph, partial, 3)
            size = len(reachable_with_probabilities(graph, user, row)) if np.any(row > 0) else 1
            expected.append((float(size), 0, 0))
        assert explorer._upper_bounds_many(query, partials) == expected
        assert len({bound for bound, _, _ in expected}) > 1


# ------------------------------------------- batched runs == sequential order
#
# On a pure estimator (estimates a function of (user, row)) the explorer pops
# every run of complete tag sets at the top of the heap, evaluates it in
# doubling chunks and replays each chunk in pop order.  The same estimator with
# `pure_estimates` switched off evaluates one set per pop.  Both must agree on
# every result field, every kept evaluation in order, and every counter.


@functools.lru_cache(maxsize=None)
def _index_instance():
    from repro.datasets.synthetic import load_dataset
    from repro.index.delayed import DelayedMaterializationIndex
    from repro.index.rr_index import RRGraphIndex
    from repro.index.tables import build_pruning_tables

    dataset = load_dataset("lastfm", scale=0.07, num_tags=12, seed=2017)
    graph, model = dataset.graph, dataset.model
    index = RRGraphIndex(graph, 300, seed=4).build()
    delayed = DelayedMaterializationIndex(graph, 300, seed=4).build()
    tables = build_pruning_tables(index, graph.max_edge_probabilities())
    return graph, model, index, delayed, tables


INDEX_ESTIMATORS = ("indexest", "indexest+", "indexest+ tables", "delaymat")


def _index_estimator(name, sequential=False):
    from repro.index.delayed import DelayedIndexEstimator
    from repro.index.pruning import PrunedIndexEstimator
    from repro.index.rr_index import IndexEstimator

    graph, model, index, delayed, tables = _index_instance()
    budget = SampleBudget(num_tags=model.num_tags, k=3, max_samples=200, min_samples=64)
    estimator = {
        "indexest": lambda: IndexEstimator(graph, model, index, budget),
        "indexest+": lambda: PrunedIndexEstimator(graph, model, index, budget),
        "indexest+ tables": lambda: PrunedIndexEstimator(graph, model, index, budget, shared_structures=tables),
        "delaymat": lambda: DelayedIndexEstimator(graph, model, delayed, budget, seed=5),
    }[name]()
    assert estimator.pure_estimates
    if sequential:
        estimator.pure_estimates = False  # pop one complete set, evaluate it
    return estimator


def _explore_recorded(estimator, query, candidate_tags, bound_method="sample"):
    """``(result fields, evaluations, counter deltas)`` of one exploration."""
    from repro.obs import telemetry

    previous = telemetry.install(telemetry.Telemetry())
    try:
        explorer = BestEffortExplorer(estimator.model, estimator, bound_method=bound_method, keep_evaluations=True)
        result = explorer.explore(query, candidate_tags)
        counters = telemetry.get_telemetry().counters()
    finally:
        telemetry.install(previous)
    fields = (
        result.tag_ids,
        result.tags,
        float(result.spread).hex(),
        result.method,
        result.evaluated_tag_sets,
        result.pruned_tag_sets,
        result.edges_visited,
        result.samples_drawn,
    )
    evaluations = [
        (e.tag_ids, float(e.spread).hex(), e.num_samples, e.edges_visited) for e in result.evaluations
    ]
    totals = (estimator.total_edges_visited, estimator.total_samples, telemetry.deterministic_counters(counters))
    return fields, evaluations, totals


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    name=st.sampled_from(INDEX_ESTIMATORS),
    user=st.integers(0, 90),
    k=st.integers(1, 3),
    candidates=st.one_of(st.none(), st.sets(st.integers(0, 11), min_size=3, max_size=9)),
    bound_method=st.sampled_from(["sample", "sample", "reach"]),
)
def test_batched_runs_equal_sequential_exploration(name, user, k, candidates, bound_method):
    query = PitexQuery(user=user, k=k, epsilon=0.7)
    candidate_tags = sorted(candidates) if candidates is not None else None
    batched = _explore_recorded(_index_estimator(name), query, candidate_tags, bound_method)
    sequential = _explore_recorded(_index_estimator(name, sequential=True), query, candidate_tags, bound_method)
    assert batched == sequential


class _ChunkSpy:
    """Logs the explorer's compute/count calls on one estimator, in call order."""

    def __init__(self, estimator):
        self.calls = []
        compute, count = estimator.compute_estimates, estimator.count_estimates

        def compute_estimates(user, tag_sets):
            estimates = compute(user, tag_sets)
            self.calls.append(("compute", [tuple(tag_set) for tag_set in tag_sets], estimates))
            return estimates

        def count_estimates(estimates):
            self.calls.append(("count", None, list(estimates)))
            return count(estimates)

        estimator.compute_estimates = compute_estimates
        estimator.count_estimates = count_estimates


@pytest.mark.parametrize("name", INDEX_ESTIMATORS)
def test_batched_runs_estimate_only_sets_that_beat_the_incumbent(name):
    """Each chunk is re-tested before it is estimated; replay drops what it prunes.

    Over a sweep of users: the batched path equals the sequential one, every
    set a chunk estimates has a bound above the incumbent at the start of the
    chunk, some chunks hold several sets, and some estimates are thrown away
    (so the rule that only kept estimates are counted is exercised).
    """
    graph, model, _, _, _ = _index_instance()
    thrown_away = 0
    multi_set_chunks = 0
    for user in range(0, graph.num_vertices, 3):
        query = PitexQuery(user=user, k=2, epsilon=0.7)
        sequential = _explore_recorded(_index_estimator(name, sequential=True), query, None)
        estimator = _index_estimator(name)
        spy = _ChunkSpy(estimator)
        assert _explore_recorded(estimator, query, None) == sequential
        explorer = BestEffortExplorer(model, _index_estimator(name))
        incumbent = -1.0
        for kind, tag_sets, estimates in spy.calls:
            if kind == "count":
                incumbent = max([incumbent] + [estimate.value for estimate in estimates])
                continue
            multi_set_chunks += len(tag_sets) > 1
            bounds = explorer._upper_bounds_many(query, tag_sets)
            for tag_set, (bound, _, _) in zip(tag_sets, bounds):
                assert bound > incumbent or incumbent <= 0.0, (user, tag_set)
        computed = sum(len(tag_sets) for kind, tag_sets, _ in spy.calls if kind == "compute")
        kept = sum(len(estimates) for kind, _, estimates in spy.calls if kind == "count")
        thrown_away += computed - kept
    assert multi_set_chunks > 0
    assert thrown_away > 0
