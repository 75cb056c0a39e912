"""Property-based tests (hypothesis) on the core invariants.

These cover the probabilistic machinery the whole system rests on:

* the Eqn. 1 posterior is always a distribution (or identically zero),
* adding tags never enlarges the topic support,
* edge probabilities always stay inside [0, 1] and below ``p(e)``,
* the Lemma 8 upper bound dominates every completion,
* geometric-schedule sampling (Lemma 6) is statistically consistent with
  Bernoulli trials,
* the exact influence oracle is monotone in edge probabilities and bounded by
  the reachable-set size.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.graph.digraph import TopicSocialGraph
from repro.propagation.exact import exact_influence_spread
from repro.topics.model import TagTopicModel
from repro.utils.rng import RandomSource
from repro.utils.stats import RunningMean

# --------------------------------------------------------------------- helpers

MAX_TAGS = 5
MAX_TOPICS = 4


@st.composite
def tag_topic_matrices(draw):
    """Random sparse-ish tag-topic matrices with at least one positive entry per tag."""
    num_tags = draw(st.integers(min_value=2, max_value=MAX_TAGS))
    num_topics = draw(st.integers(min_value=1, max_value=MAX_TOPICS))
    values = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
            min_size=num_tags * num_topics,
            max_size=num_tags * num_topics,
        )
    )
    matrix = np.array(values).reshape(num_tags, num_topics)
    # guarantee every tag has some support so the model is well formed
    for tag in range(num_tags):
        if matrix[tag].sum() == 0.0:
            matrix[tag, draw(st.integers(min_value=0, max_value=num_topics - 1))] = 0.5
    return matrix


@st.composite
def small_topic_graphs(draw):
    """Small random DAG-ish graphs with per-edge topic probabilities.

    Capped at 5 vertices so even a complete digraph has 20 edges, safely below
    the exact-influence oracle's 2^22 possible-world enumeration limit.
    """
    num_vertices = draw(st.integers(min_value=2, max_value=5))
    num_topics = draw(st.integers(min_value=1, max_value=MAX_TOPICS))
    graph = TopicSocialGraph(num_vertices, num_topics)
    for source in range(num_vertices):
        for target in range(num_vertices):
            if source == target:
                continue
            if draw(st.booleans()):
                probabilities = draw(
                    st.lists(
                        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
                        min_size=num_topics,
                        max_size=num_topics,
                    )
                )
                graph.add_edge(source, target, probabilities)
    return graph


# ------------------------------------------------------------------ posteriors


@given(matrix=tag_topic_matrices(), data=st.data())
@settings(max_examples=60, deadline=None)
def test_posterior_is_distribution_or_zero(matrix, data):
    model = TagTopicModel(matrix)
    size = data.draw(st.integers(min_value=1, max_value=model.num_tags))
    tags = data.draw(
        st.lists(
            st.integers(min_value=0, max_value=model.num_tags - 1),
            min_size=size,
            max_size=size,
        )
    )
    posterior = model.topic_posterior(tags)
    assert np.all(posterior >= 0.0)
    total = posterior.sum()
    assert total == pytest.approx(1.0, abs=1e-9) or total == pytest.approx(0.0, abs=1e-12)


@given(matrix=tag_topic_matrices(), data=st.data())
@settings(max_examples=60, deadline=None)
def test_adding_tags_shrinks_support(matrix, data):
    model = TagTopicModel(matrix)
    base_size = data.draw(st.integers(min_value=1, max_value=model.num_tags))
    base = tuple(
        data.draw(
            st.lists(
                st.integers(min_value=0, max_value=model.num_tags - 1),
                min_size=base_size,
                max_size=base_size,
                unique=True,
            )
        )
    )
    extra = data.draw(st.integers(min_value=0, max_value=model.num_tags - 1))
    support_base = set(np.flatnonzero(model.posterior_support(base)))
    support_more = set(np.flatnonzero(model.posterior_support(base + (extra,))))
    assert support_more.issubset(support_base)


@given(graph=small_topic_graphs(), matrix=tag_topic_matrices(), data=st.data())
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_edge_probabilities_bounded(graph, matrix, data):
    if matrix.shape[1] != graph.num_topics:
        matrix = np.resize(matrix, (matrix.shape[0], graph.num_topics))
        matrix = np.clip(matrix, 0.0, 1.0)
    model = TagTopicModel(matrix)
    size = data.draw(st.integers(min_value=1, max_value=model.num_tags))
    tags = data.draw(
        st.lists(
            st.integers(min_value=0, max_value=model.num_tags - 1),
            min_size=size,
            max_size=size,
        )
    )
    probabilities = model.edge_probabilities(graph, tags)
    assert np.all(probabilities >= -1e-12)
    assert np.all(probabilities <= 1.0 + 1e-12)
    assert np.all(probabilities <= graph.max_edge_probabilities() + 1e-9)


@given(graph=small_topic_graphs(), matrix=tag_topic_matrices(), data=st.data())
@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_lemma8_bound_dominates_random_completions(graph, matrix, data):
    if matrix.shape[1] != graph.num_topics:
        matrix = np.resize(matrix, (matrix.shape[0], graph.num_topics))
        matrix = np.clip(matrix, 0.0, 1.0)
    model = TagTopicModel(matrix)
    k = data.draw(st.integers(min_value=1, max_value=min(3, model.num_tags)))
    partial_size = data.draw(st.integers(min_value=0, max_value=k))
    partial = tuple(
        data.draw(
            st.lists(
                st.integers(min_value=0, max_value=model.num_tags - 1),
                min_size=partial_size,
                max_size=partial_size,
                unique=True,
            )
        )
    )
    available = [t for t in range(model.num_tags) if t not in partial]
    need = k - len(partial)
    if need > len(available):
        return
    completion_extra = tuple(
        data.draw(
            st.lists(
                st.sampled_from(available) if available else st.nothing(),
                min_size=need,
                max_size=need,
                unique=True,
            )
        )
        if need > 0
        else []
    )
    completion = tuple(sorted(partial + completion_extra))
    bound = model.upper_bound_edge_probabilities(graph, partial, k)
    exact = model.edge_probabilities(graph, completion)
    assert np.all(bound >= exact - 1e-9)


# ------------------------------------------------------------ geometric schedule


@given(
    probability=st.floats(min_value=0.05, max_value=0.95),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
@settings(max_examples=25, deadline=None)
def test_geometric_schedule_matches_bernoulli_rate(probability, seed):
    """Lemma 6: scheduled firing frequency equals the Bernoulli success rate."""
    from repro.utils.heap import LazyEdgeHeap

    rng = RandomSource(seed)
    heap = LazyEdgeHeap([0], [probability], rng.geometric)
    trials = 3000
    fires = sum(len(heap.visit()) for _ in range(trials))
    observed = fires / trials
    # three-sigma band of a binomial proportion
    sigma = (probability * (1 - probability) / trials) ** 0.5
    assert abs(observed - probability) < 5 * sigma + 1e-9


# ---------------------------------------------------------------- exact oracle


@given(graph=small_topic_graphs(), data=st.data())
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_exact_influence_bounds_and_monotonicity(graph, data):
    source = data.draw(st.integers(min_value=0, max_value=graph.num_vertices - 1))
    if graph.num_edges == 0:
        assert exact_influence_spread(graph, source, np.zeros(0)) == 1.0
        return
    probabilities = graph.max_edge_probabilities()
    spread = exact_influence_spread(graph, source, probabilities)
    assert 1.0 <= spread <= graph.num_vertices + 1e-9
    # Scaling all probabilities down can only reduce the spread.
    reduced = exact_influence_spread(graph, source, probabilities * 0.5)
    assert reduced <= spread + 1e-9


@given(
    values=st.lists(st.floats(min_value=-100, max_value=100), min_size=2, max_size=50)
)
@settings(max_examples=50, deadline=None)
def test_running_mean_matches_numpy(values):
    running = RunningMean()
    for value in values:
        running.add(value)
    assert running.mean == pytest.approx(float(np.mean(values)), abs=1e-9)
    assert running.variance == pytest.approx(float(np.var(values, ddof=1)), abs=1e-6)
