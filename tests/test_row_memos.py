"""Each probability row's work is done once per query.

Three memos live on query-local objects and are keyed by what fixes a row:

* a :attr:`~repro.sampling.base.InfluenceEstimator.pure_estimates` estimator
  builds and matches each ``(user, posterior)`` once
  (:meth:`~repro.sampling.base.InfluenceEstimator.compute_estimates`);
* the best-effort explorer builds and scores each ``p+`` row key once per
  query when the bound is pure (the reach bound, or a pure estimator);
* a lazy estimator sizes each ``(user, open-edge pattern)`` once.

Every memo must return exactly what the unmemoized path returns, and a
sampling estimator must still draw every row it is given.
"""

import functools
from itertools import combinations

import numpy as np
import pytest

from repro.core.best_effort import BestEffortExplorer
from repro.core.query import PitexQuery
from repro.graph.algorithms import reachable_counts
from repro.graph.digraph import TopicSocialGraph
from repro.sampling.base import SampleBudget
from repro.sampling.lazy import LazyPropagationEstimator
from repro.topics.model import TagTopicModel


@functools.lru_cache(maxsize=None)
def _instance():
    from repro.datasets.synthetic import load_dataset
    from repro.index.delayed import DelayedMaterializationIndex
    from repro.index.rr_index import RRGraphIndex

    dataset = load_dataset("lastfm", scale=0.07, num_tags=12, seed=2017)
    graph, model = dataset.graph, dataset.model
    index = RRGraphIndex(graph, 300, seed=4).build()
    delayed = DelayedMaterializationIndex(graph, 300, seed=4).build()
    return graph, model, index, delayed


def _budget(model):
    return SampleBudget(num_tags=model.num_tags, k=3, max_samples=200, min_samples=64)


def _index_estimator(name):
    from repro.index.delayed import DelayedIndexEstimator
    from repro.index.pruning import PrunedIndexEstimator
    from repro.index.rr_index import IndexEstimator

    graph, model, index, delayed = _instance()
    return {
        "indexest": lambda: IndexEstimator(graph, model, index, _budget(model)),
        "indexest+": lambda: PrunedIndexEstimator(graph, model, index, _budget(model)),
        "delaymat": lambda: DelayedIndexEstimator(graph, model, delayed, _budget(model), seed=5),
    }[name]()


def _lazy_batched(graph, model, seed=3):
    return LazyPropagationEstimator(graph, model, _budget(model), seed=seed, kernel="batched")


def _users(graph, count):
    return [u for u in range(graph.num_vertices) if graph.out_degree(u) > 0][::3][:count]


class _RowSpy:
    """Records ``(user, num_samples, row bytes)`` of every row the estimator matches."""

    def __init__(self, estimator):
        self.rows = []
        inner = estimator.estimate_many_with_probabilities

        def estimate_many_with_probabilities(user, edge_probability_rows, num_samples=None):
            for row in np.asarray(edge_probability_rows, dtype=float):
                self.rows.append((user, num_samples, row.tobytes()))
            return inner(user, edge_probability_rows, num_samples)

        estimator.estimate_many_with_probabilities = estimate_many_with_probabilities


# ------------------------------------------------------------ exact estimates


@pytest.mark.parametrize("bound_method", ["sample", "reach"])
@pytest.mark.parametrize("name", ["indexest", "indexest+", "delaymat"])
def test_each_index_row_is_matched_once_per_query(name, bound_method):
    """Per query, no (user, row) reaches the index twice; without the memos many do."""
    graph, model, _, _ = _instance()
    repeats_without_memo = 0
    for user in _users(graph, 12):
        query = PitexQuery(user=user, k=2, epsilon=0.7)
        answers = []
        for pure in (True, False):
            estimator = _index_estimator(name)
            estimator.pure_estimates = pure
            spy = _RowSpy(estimator)
            result = BestEffortExplorer(model, estimator, bound_method=bound_method).explore(query)
            answers.append((result.tag_ids, result.spread, result.evaluated_tag_sets, result.edges_visited))
            if pure:
                assert len(spy.rows) == len(set(spy.rows)), user
            else:
                repeats_without_memo += len(spy.rows) - len(set(spy.rows))
        assert answers[0] == answers[1], user
    assert repeats_without_memo > 0


@pytest.mark.parametrize("name", ["indexest", "indexest+", "delaymat"])
def test_a_reused_estimator_answers_every_user_from_its_own_rows(name):
    """One instance across users: each memoized estimate equals a direct match of its row."""
    graph, model, _, _ = _instance()
    estimator = _index_estimator(name)
    tag_sets = [(tag,) for tag in range(model.num_tags)] + list(combinations(range(model.num_tags), 2))
    supported = [tag_set for tag_set in tag_sets if model.posterior_of_ids(tag_set).any()]
    rows = graph.edge_probabilities_under_many([model.posterior_of_ids(t) for t in supported])
    for user in _users(graph, 6) * 2:
        memoized = dict(zip(tag_sets, estimator.compute_estimates(user, tag_sets)))
        direct = estimator.estimate_many_with_probabilities(user, rows)
        assert [memoized[tag_set] for tag_set in supported] == direct, user


def test_sampling_estimators_draw_every_row_they_are_given():
    """A lazy-batched estimate is not a function of its row: nothing is memoized."""
    graph, model, _, _ = _instance()
    posterior_of = {}
    for tag_set in [(tag,) for tag in range(model.num_tags)] + list(combinations(range(model.num_tags), 2)):
        posterior_of.setdefault(model.posterior_of_ids(tag_set).tobytes(), []).append(tag_set)
    twins = next(sets for key, sets in posterior_of.items() if len(sets) > 1 and any(np.frombuffer(key)))
    estimator = _lazy_batched(graph, model)
    spy = _RowSpy(estimator)
    user = _users(graph, 1)[0]
    estimator.compute_estimates(user, [twins[0], twins[1], twins[0]])
    estimator.compute_estimates(user, [twins[0]])
    assert len(spy.rows) == 4
    assert len({row for _, _, row in spy.rows}) == 1


def test_estimate_memo_follows_graph_mutation():
    """An estimator keeps answering its pinned graph version; a new one sees the write."""
    from repro.index.rr_index import IndexEstimator, RRGraphIndex

    graph = TopicSocialGraph(4, 2)
    graph.add_edge(0, 1, [0.9, 0.0])
    graph.add_edge(1, 2, [0.0, 0.8])
    model = TagTopicModel(np.array([[0.9, 0.1], [0.2, 0.8]]))

    def estimator():
        return IndexEstimator(graph, model, RRGraphIndex(graph, 200, seed=1).build(), _budget(model))

    old = estimator()
    first = old.compute_estimates(2, [(0,)])
    graph.add_edge(2, 3, [0.5, 0.5])
    assert old.compute_estimates(2, [(0,)]) == first
    assert not old.graph.has_edge(2, 3)
    new = estimator()
    assert new.graph.has_edge(2, 3)
    assert new.compute_estimates(2, [(0,)])[0].value > first[0].value


# ------------------------------------------------------------------ p+ bounds


@pytest.mark.parametrize(
    "name, bound_method", [("indexest+", "sample"), ("indexest+", "reach"), ("lazy-batched", "reach")]
)
def test_each_bound_row_key_is_built_once_per_query(monkeypatch, name, bound_method):
    graph, model, _, _ = _instance()
    built = []
    inner = model.upper_bound_edge_probabilities_many

    def upper_bound_edge_probabilities_many(graph, partials, k):
        built.extend(model._row_key(partial, k) for partial in partials)
        return inner(graph, partials, k)

    monkeypatch.setattr(model, "upper_bound_edge_probabilities_many", upper_bound_edge_probabilities_many)
    for user in _users(graph, 8):
        built.clear()
        estimator = _index_estimator(name) if name != "lazy-batched" else _lazy_batched(graph, model)
        BestEffortExplorer(model, estimator, bound_method=bound_method).explore(
            PitexQuery(user=user, k=3, epsilon=0.7)
        )
        assert built and len(built) == len(set(built)), user


def test_lazy_batched_builds_each_row_once_per_call(monkeypatch):
    """A sampling estimator memoizes nothing across calls, but one call builds
    each ``p+`` row key and each posterior's ``p(e|W)`` row once; the estimator
    still gets one row per partial or tag set, in order, bitwise as unshared."""
    graph, model, _, _ = _instance()
    snapshot = graph.snapshot()
    build_bounds = model.upper_bound_edge_probabilities_many
    build_rows = snapshot.edge_probabilities_under_many
    row_bounds = BestEffortExplorer._row_bounds
    estimates_under = LazyPropagationEstimator._estimates_under
    built, unshared, received = [], [], []
    requested = 0

    def bounds_spy(graph, partials, k):
        built.append([model._row_key(partial, k) for partial in partials])
        return build_bounds(graph, partials, k)

    def rows_spy(posteriors):
        built.append([posterior.tobytes() for posterior in posteriors])
        return build_rows(posteriors)

    def row_bounds_spy(self, query, partials, num_samples):
        nonlocal requested
        requested += len(partials)
        rows = build_bounds(snapshot, partials, query.k)
        if (rows > 0.0).any():
            unshared.append(rows[(rows > 0.0).any(axis=1)])
        return row_bounds(self, query, partials, num_samples)

    def estimates_under_spy(self, user, posteriors, kernel):
        nonlocal requested
        requested += len(posteriors)
        unshared.append(build_rows(posteriors))
        return estimates_under(self, user, posteriors, kernel)

    monkeypatch.setattr(model, "upper_bound_edge_probabilities_many", bounds_spy)
    monkeypatch.setattr(snapshot, "edge_probabilities_under_many", rows_spy)
    monkeypatch.setattr(BestEffortExplorer, "_row_bounds", row_bounds_spy)
    monkeypatch.setattr(LazyPropagationEstimator, "_estimates_under", estimates_under_spy)
    for user in _users(graph, 6):
        estimator = _lazy_batched(graph, model)
        assert estimator.graph is snapshot
        inner = estimator.estimate_many_with_probabilities

        def estimate_many_with_probabilities(user, rows, num_samples=None, inner=inner):
            received.append(np.array(rows).tobytes())
            return inner(user, rows, num_samples)

        estimator.estimate_many_with_probabilities = estimate_many_with_probabilities
        BestEffortExplorer(model, estimator, bound_method="sample").explore(
            PitexQuery(user=user, k=3, epsilon=0.7)
        )
    assert received == [rows.tobytes() for rows in unshared]
    assert all(len(keys) == len(set(keys)) for keys in built)
    assert sum(map(len, built)) < requested


def _dense_instance():
    """A model without zeros: every partial set has the full topic support."""
    from repro.graph.generators import random_topic_graph
    from repro.index.rr_index import RRGraphIndex

    graph = random_topic_graph(40, 2, edge_probability=0.12, base_probability=0.6, seed=17)
    model = TagTopicModel(0.2 + 0.7 * ((np.arange(16).reshape(8, 2) * 7) % 10) / 10)
    return graph, model, RRGraphIndex(graph, 300, seed=4).build()


@pytest.mark.parametrize("bound_method", ["sample", "reach"])
@pytest.mark.parametrize("dense", [False, True])
def test_shared_bound_keys_give_each_partial_its_own_bound(dense, bound_method):
    """Bounds served by row key equal one unshared evaluation per partial set.

    On the dense model all partial sets share one support, so only the
    Lemma 8 bound bytes of the key tell their rows apart.
    """
    from repro.index.pruning import PrunedIndexEstimator

    graph, model, index = _dense_instance() if dense else _instance()[:3]
    estimator = PrunedIndexEstimator(graph, model, index, _budget(model))
    explorer = BestEffortExplorer(model, estimator, bound_method=bound_method)
    tags = range(model.num_tags)
    partials = [()] + [(t,) for t in tags] + list(combinations(tags, 2))
    if dense:
        assert {model._row_key(partial, 3)[0] for partial in partials} == {(0, 1)}
    samples = explorer._bound_samples()
    for user in _users(graph, 4):
        query = PitexQuery(user=user, k=3, epsilon=0.7)
        memo = {}
        shared = explorer._upper_bounds_many(query, partials, memo, samples)
        assert 1 < len(memo) <= len(partials)
        assert shared == [explorer._row_bounds(query, [partial], samples)[0] for partial in partials]


# ---------------------------------------------------------------- lazy sizing


def test_each_open_edge_pattern_is_sized_once_per_estimator(monkeypatch):
    """One lazy-batched estimator across several queries sizes each (user, pattern) once."""
    import repro.sampling.lazy as lazy_module

    graph, model, _, _ = _instance()
    sized = []

    def spy(graph, user, rows):
        sized.extend((user, bits.tobytes()) for bits in np.packbits(rows > 0.0, axis=1))
        return reachable_counts(graph, user, rows)

    monkeypatch.setattr(lazy_module, "reachable_counts", spy)
    estimator = _lazy_batched(graph, model)
    calls = 0
    inner = estimator.estimate_many_with_probabilities

    def counted(user, rows, num_samples=None):
        nonlocal calls
        calls += len(rows)
        return inner(user, rows, num_samples)

    estimator.estimate_many_with_probabilities = counted
    for user in _users(graph, 6):
        BestEffortExplorer(model, estimator).explore(PitexQuery(user=user, k=2, epsilon=0.7))
    assert sized and len(sized) == len(set(sized))
    assert len(sized) < calls


def test_memoized_sizes_equal_reachable_counts():
    """Sizes served by one estimator across users, and across an edge insert, are exact.

    An estimator sizes rows of the graph version it pinned, so after an
    insert the old estimator keeps its sizes and a new one sizes the new
    version.
    """
    chain = TopicSocialGraph(5, 2)
    for source, probabilities in enumerate([[0.5, 0.0], [0.5, 0.5], [0.0, 0.5], [0.5, 0.5]]):
        chain.add_edge(source, source + 1, probabilities)
    estimator = _lazy_batched(chain, TagTopicModel(np.ones((2, 2))))
    rows = np.array([chain.edge_probabilities_under(posterior) for posterior in ([1, 0], [0, 1], [0.5, 0.5])])
    sizes = {user: reachable_counts(chain, user, rows).tolist() for user in range(5)}
    assert len({tuple(size) for size in sizes.values()}) == 5
    for user in [0, 1, 2, 3, 4] * 2:
        assert estimator._reachable_sizes(user, rows).tolist() == sizes[user], user

    small = TopicSocialGraph(4, 1)
    small.add_edge(0, 1, [0.5])
    estimator = _lazy_batched(small, TagTopicModel(np.ones((2, 1))))
    assert estimator._reachable_sizes(0, np.array([[0.5]])).tolist() == [2]
    small.add_edge(1, 2, [0.5])
    assert estimator._reachable_sizes(0, np.array([[0.5]])).tolist() == [2]
    estimator = _lazy_batched(small, TagTopicModel(np.ones((2, 1))))
    assert estimator._reachable_sizes(0, np.array([[0.5, 0.0]])).tolist() == [2]
    assert estimator._reachable_sizes(0, np.array([[0.5, 0.5]])).tolist() == [3]
