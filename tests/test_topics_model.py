"""Tests for repro.topics.model (Eqn. 1 and the Lemma 8 bounds)."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.exceptions import ModelError, UnknownTagError
from repro.topics.model import TagTopicModel


def test_paper_running_example_edge_probability(paper_example):
    """Fig. 2: p((u1,u2) | {w1,w2}) = 0.2 under the uniform prior."""
    graph, model = paper_example
    probability = model.edge_probability(graph, 0, 1, ("w1", "w2"))
    assert probability == pytest.approx(0.2)


def test_paper_running_example_posterior(paper_example):
    _, model = paper_example
    posterior = model.topic_posterior(("w1", "w2"))
    # p(z|{w1,w2}) = (0.5, 0.5, 0.0): both z1 and z2 support the pair equally.
    assert posterior == pytest.approx([0.5, 0.5, 0.0])
    posterior_34 = model.topic_posterior(("w3", "w4"))
    # {w3,w4}: likelihoods (0, 0.16, 0.36) -> normalized (0, 0.308, 0.692); the
    # paper's Fig. 2(b) rounds this to (0, 0.33, 0.67).
    assert posterior_34[0] == pytest.approx(0.0)
    assert posterior_34[1] == pytest.approx(0.16 / 0.52)
    assert posterior_34[2] == pytest.approx(0.36 / 0.52)


def test_posterior_is_a_distribution_or_zero(small_model):
    for tag_set in [(0,), (0, 1), (2, 3), (0, 1, 2)]:
        posterior = small_model.topic_posterior(tag_set)
        total = posterior.sum()
        assert total == pytest.approx(1.0) or total == pytest.approx(0.0)
        assert np.all(posterior >= 0.0)


def test_empty_tag_set_returns_prior(small_model):
    assert np.allclose(small_model.topic_posterior(()), small_model.topic_prior)


def test_unsupported_tag_set_gives_zero_posterior():
    matrix = np.array([[1.0, 0.0], [0.0, 1.0]])
    model = TagTopicModel(matrix)
    posterior = model.topic_posterior((0, 1))
    assert np.allclose(posterior, 0.0)


def test_resolve_tags_mixed_names_and_ids(paper_example):
    _, model = paper_example
    assert model.resolve_tags(["w1", 2]) == (0, 2)
    assert model.resolve_tags(["w2", "w2"]) == (1,)
    with pytest.raises(UnknownTagError):
        model.resolve_tags(["nope"])
    with pytest.raises(UnknownTagError):
        model.resolve_tags([99])


def test_tag_names_lookup(paper_example):
    _, model = paper_example
    assert model.tag_names([0, 3]) == ["w1", "w4"]
    assert model.tag_id("w3") == 2
    with pytest.raises(UnknownTagError):
        model.tag_name(17)


def test_constructor_validation():
    with pytest.raises(ModelError):
        TagTopicModel(np.array([1.0, 2.0]))  # not 2-D
    with pytest.raises(ModelError):
        TagTopicModel(np.array([[-0.1, 0.2]]))
    with pytest.raises(ModelError):
        TagTopicModel(np.ones((2, 2)), topic_prior=[1.0])
    with pytest.raises(ModelError):
        TagTopicModel(np.ones((2, 2)), topic_prior=[0.0, 0.0])
    with pytest.raises(ModelError):
        TagTopicModel(np.ones((2, 2)), tags=["a"])
    with pytest.raises(ModelError):
        TagTopicModel(np.ones((2, 2)), tags=["a", "a"])


def test_prior_is_normalized():
    model = TagTopicModel(np.ones((2, 2)), topic_prior=[2.0, 6.0])
    assert model.topic_prior == pytest.approx([0.25, 0.75])


def test_candidate_tag_sets_counts(paper_example):
    _, model = paper_example
    assert model.num_candidate_tag_sets(2) == 6
    assert len(list(model.candidate_tag_sets(2))) == 6
    with pytest.raises(ModelError):
        list(model.candidate_tag_sets(0))
    with pytest.raises(ModelError):
        list(model.candidate_tag_sets(9))


def test_edge_probabilities_reject_mismatched_graph(paper_example, small_graph):
    _, model = paper_example  # 3 topics
    # small_graph also has 3 topics so build an incompatible model instead
    bad_model = TagTopicModel(np.ones((4, 2)))
    with pytest.raises(ModelError):
        bad_model.edge_probabilities(small_graph, (0,))


def test_upper_bound_dominates_exact_probability(paper_example):
    """Lemma 8: p+(e|W) >= p(e|W') for every completion W' of W."""
    graph, model = paper_example
    k = 2
    for partial in [(), (0,), (1,), (2,), (3,)]:
        bounds = model.upper_bound_edge_probabilities(graph, partial, k)
        for completion in model.candidate_tag_sets(k):
            if not set(partial).issubset(completion):
                continue
            exact = model.edge_probabilities(graph, completion)
            assert np.all(bounds >= exact - 1e-9), (partial, completion)


def test_upper_bound_empty_partial_equals_max_rule(paper_example):
    """p+(e|empty) never exceeds max_z p(e|z) (the W.L.O.G. clause of Lemma 8)."""
    graph, model = paper_example
    bounds = model.upper_bound_edge_probabilities(graph, (), 2)
    assert np.all(bounds <= graph.max_edge_probabilities() + 1e-12)


def test_upper_bound_full_partial_is_still_valid(paper_example):
    graph, model = paper_example
    full = (2, 3)
    bounds = model.upper_bound_edge_probabilities(graph, full, 2)
    exact = model.edge_probabilities(graph, full)
    assert np.all(bounds >= exact - 1e-9)


def test_upper_bound_rejects_oversized_partial(paper_example):
    graph, model = paper_example
    with pytest.raises(ModelError):
        model.upper_bound_edge_probabilities(graph, (0, 1, 2), 2)


def test_jensen_ratios_shape_and_nonnegativity(paper_example):
    _, model = paper_example
    ratios = model.jensen_ratios()
    assert ratios.shape == (4, 3)
    assert np.all(ratios >= 0.0)


def test_tag_topic_density(paper_example):
    _, model = paper_example
    # Fig. 2(b) has 8 non-zero entries out of 12.
    assert model.tag_topic_density() == pytest.approx(8 / 12)


def test_restrict_tags(paper_example):
    _, model = paper_example
    restricted = model.restrict_tags([0, 2])
    assert restricted.num_tags == 2
    assert restricted.tags == ["w1", "w3"]
    assert np.allclose(restricted.tag_topic_matrix, model.tag_topic_matrix[[0, 2], :])


def test_content_hash_tracks_matrix_prior_and_tags(paper_example):
    _, model = paper_example
    base = model.content_hash()
    assert base == model.content_hash()  # deterministic
    same = TagTopicModel(model.tag_topic_matrix.copy(), tags=model.tags)
    assert same.content_hash() == base
    other_matrix = model.tag_topic_matrix.copy()
    other_matrix[0, 0] += 0.01
    assert TagTopicModel(other_matrix, tags=model.tags).content_hash() != base
    renamed = TagTopicModel(model.tag_topic_matrix.copy(), tags=["a", "b", "c", "d"])
    assert renamed.content_hash() != base
    reprior = TagTopicModel(model.tag_topic_matrix.copy(), topic_prior=[0.5, 0.3, 0.2], tags=model.tags)
    assert reprior.content_hash() != base


def _scalar_topic_posterior_upper_bound(model, tag_ids, k):
    """The per-topic scalar loop the vectorized bound must reproduce bit for bit."""
    remaining = k - len(tag_ids)
    support = model.posterior_support(tag_ids) if tag_ids else model.topic_prior > 0.0
    ratios = model.jensen_ratios()
    bounds = np.zeros(model.num_topics)
    available = [t for t in range(model.num_tags) if t not in tag_ids]
    for topic in range(model.num_topics):
        if not support[topic]:
            continue
        bound = float(model.topic_prior[topic])
        for tag in tag_ids:
            bound *= ratios[tag, topic]
            if not np.isfinite(bound):
                bound = np.inf
                break
        if remaining > 0 and np.isfinite(bound):
            candidate_ratios = sorted((ratios[tag, topic] for tag in available), reverse=True)[
                :remaining
            ]
            if len(candidate_ratios) < remaining:
                bounds[topic] = 0.0
                continue
            for ratio in candidate_ratios:
                bound *= ratio
                if not np.isfinite(bound):
                    bound = np.inf
                    break
        bounds[topic] = min(1.0, bound) if np.isfinite(bound) else 1.0
    return bounds


def _extreme_model():
    """Likelihoods spanning 300 decades: ratio products overflow and underflow."""
    rng = np.random.default_rng(3)
    matrix = 10.0 ** rng.uniform(-300.0, 0.0, size=(7, 4))
    matrix[rng.uniform(size=matrix.shape) < 0.25] = 0.0
    matrix[:, 0] = np.maximum(matrix[:, 0], 1e-300)
    return TagTopicModel(matrix, topic_prior=[0.4, 0.3, 0.2, 0.1])


@pytest.mark.parametrize("which", ["paper", "small", "extreme"])
def test_vectorized_upper_bound_equals_scalar_loop(which, paper_example, small_model):
    """Exact equality on every partial set of size <= k, including k > |Omega|."""
    from itertools import combinations

    model = {"paper": paper_example[1], "small": small_model, "extreme": _extreme_model()}[which]
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, model.num_tags + 2):
            for size in range(min(k, model.num_tags) + 1):
                for partial in combinations(range(model.num_tags), size):
                    expected = _scalar_topic_posterior_upper_bound(model, partial, k)
                    got = model.topic_posterior_upper_bound(partial, k)
                    assert got.tobytes() == expected.tobytes(), (which, partial, k)


def test_upper_bound_is_memoized_read_only(small_model):
    first = small_model.topic_posterior_upper_bound((2, 0), 3)
    assert small_model.topic_posterior_upper_bound(["w0", "w2"], 3) is first
    assert small_model.topic_posterior_upper_bound((0, 2), 2) is not first
    with pytest.raises(ValueError):
        first[0] = 0.5


# ------------------------------------------------ batched rows: pinned bits
#
# The best-effort explorer builds every p+ row of an expansion, and every
# p(e|W) row of a run of complete tag sets, into one matrix, each row from its
# topic support.  A p+ row with an empty support stays zero.  A row whose
# weights have exactly one nonzero entry, and that entry positive, is the
# contiguous probability column times the weight.  Every other row is one
# `np.matmul(matrix, vector, out=row)` dgemv.  These tests pin that each row
# equals the one-row product bit for bit.  One GEMM over the stacked vectors
# is not used: on OpenBLAS 0.3.31 a (4200, 20) x (20, 200) product differed
# from the column-by-column dgemv in the last bits of every column, so a GEMM
# would change estimates and answers.


def _reference_upper_bound_row(model, graph, partial, k):
    """The one-row ``p+`` formula before rows were batched: copy, max, ``@``, minimum."""
    tag_ids = model.resolve_tags(partial)
    support = model.posterior_support(tag_ids) if tag_ids else model.topic_prior > 0.0
    matrix = graph.probability_matrix
    if matrix.shape[0] == 0:
        return np.zeros(0)
    masked = matrix[:, support]
    if masked.shape[1] == 0:
        return np.zeros(matrix.shape[0])
    return np.minimum(masked.max(axis=1), matrix @ model.topic_posterior_upper_bound(tag_ids, k))


def _benchmark_instance():
    """The dataset pitexbench serves: lastfm at scale 0.35 with 25 tags."""
    from repro.datasets.synthetic import load_dataset

    dataset = load_dataset("lastfm", scale=0.35, num_tags=25, seed=2017)
    return dataset.graph, dataset.model


def test_matmul_with_out_equals_matmul_operator_bits():
    graph, model = _benchmark_instance()
    matrix = graph.probability_matrix
    rng = np.random.default_rng(11)
    vectors = [model.topic_prior, model.topic_posterior_upper_bound((3,), 2)]
    for density in (0.2, 0.6, 1.0):
        vectors.append(rng.uniform(size=model.num_topics) * (rng.uniform(size=model.num_topics) < density))
    rows = np.empty((len(vectors), matrix.shape[0]))
    for row, vector in zip(rows, vectors):
        np.matmul(matrix, vector, out=row)
        assert row.tobytes() == (matrix @ vector).tobytes()


def test_upper_bound_rows_many_equal_one_row_bounds_on_benchmark_model():
    """All 326 partial sets of k <= 2 of the benchmark model, in one matrix."""
    from itertools import combinations

    graph, model = _benchmark_instance()
    partials = [()] + [(t,) for t in range(25)] + list(combinations(range(25), 2))
    assert len(partials) == 326
    rows = model.upper_bound_edge_probabilities_many(graph, partials, 2)
    assert rows.shape == (326, graph.num_edges)
    for partial, row in zip(partials, rows):
        expected = _reference_upper_bound_row(model, graph, partial, 2)
        assert row.tobytes() == expected.tobytes(), partial
        assert model.upper_bound_edge_probabilities(graph, partial, 2).tobytes() == expected.tobytes()
    # Both branches occur: supported rows and zero rows of unsupported sets.
    live = (rows > 0.0).any(axis=1)
    assert live.any() and not live.all()


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_upper_bound_rows_many_equal_one_row_bounds(data):
    """Random models: empty supports, zero-edge graphs and k above the remaining tags."""
    from itertools import combinations

    from repro.graph.generators import random_topic_graph

    num_tags = data.draw(st.integers(1, 5), label="num_tags")
    num_topics = data.draw(st.integers(1, 4), label="num_topics")
    values = st.sampled_from([0.0, 0.0, 1e-300, 0.05, 0.3, 0.9, 1.0])
    row = st.lists(values, min_size=num_topics, max_size=num_topics)
    matrix = np.array(data.draw(st.lists(row, min_size=num_tags, max_size=num_tags), label="matrix"))
    prior = data.draw(st.lists(st.sampled_from([0.0, 0.2, 1.0]), min_size=num_topics, max_size=num_topics))
    if sum(prior) == 0.0:
        prior[0] = 1.0
    model = TagTopicModel(matrix, topic_prior=prior)
    num_vertices = data.draw(st.integers(1, 12), label="num_vertices")
    edge_probability = data.draw(st.sampled_from([0.0, 0.3]), label="edge_probability")
    seed = data.draw(st.integers(0, 99), label="seed")
    graph = random_topic_graph(num_vertices, num_topics, edge_probability=edge_probability, seed=seed)
    k = data.draw(st.integers(1, num_tags + 2), label="k")
    partials = [p for size in range(min(k, num_tags) + 1) for p in combinations(range(num_tags), size)]
    with np.errstate(over="ignore", invalid="ignore"):
        rows = model.upper_bound_edge_probabilities_many(graph, partials, k)
        expected = [_reference_upper_bound_row(model, graph, partial, k) for partial in partials]
    assert rows.shape == (len(partials), graph.num_edges)
    for partial, row, reference in zip(partials, rows, expected):
        assert row.tobytes() == reference.tobytes(), (partial, k)


def test_edge_probabilities_under_many_equal_one_row_products():
    from itertools import combinations

    graph, model = _benchmark_instance()
    tag_sets = [(t,) for t in range(25)] + list(combinations(range(25), 2))
    posteriors = [model.topic_posterior(tag_set) for tag_set in tag_sets]
    posteriors = [posterior for posterior in posteriors if posterior.any()]
    rows = graph.edge_probabilities_under_many(posteriors)
    assert rows.shape == (len(posteriors), graph.num_edges)
    for posterior, row in zip(posteriors, rows):
        assert row.tobytes() == (graph.probability_matrix @ posterior).tobytes()
        assert graph.edge_probabilities_under(posterior).tobytes() == row.tobytes()


def test_batched_rows_use_one_dgemv_per_row_not_a_gemm():
    """Every matrix product of the batched row builders is a `np.matmul(..., out=row)`."""
    import ast
    import inspect
    import textwrap

    from repro.graph.digraph import TopicSocialGraph

    for function in (
        TagTopicModel.upper_bound_edge_probabilities_many,
        TopicSocialGraph.edge_probabilities_under_many,
    ):
        tree = ast.parse(textwrap.dedent(inspect.getsource(function)))
        products = [
            node
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and getattr(node.func, "attr", None) in ("matmul", "dot", "einsum", "tensordot")
        ]
        assert products, function.__qualname__
        for call in products:
            assert call.func.attr == "matmul"
            assert [keyword.arg for keyword in call.keywords] == ["out"]
            # The output is one row of the result, written inside the row loop.
            assert isinstance(call.keywords[0].value, ast.Name)
        assert not any(isinstance(getattr(node, "op", None), ast.MatMult) for node in ast.walk(tree))
        loops = [node for node in ast.walk(tree) if isinstance(node, ast.For)]
        assert any(call in list(ast.walk(loop)) for loop in loops for call in products)


# ------------------------------------------- single-topic rows: dgemv bits
#
# With one positive weight `w` at topic `z`, the dgemv sums round(p(e|z) * w)
# with exact zeros, so the scaled column is the dgemv bit for bit.  The pins
# below feed both builders rows of every support size, over matrices holding
# zeros, -0.0, 1e-300 and subnormals, and weights from 1.0 down to 1e-320.


def _graph_of(matrix):
    """A graph whose probability matrix is ``matrix``, edges in row order."""
    from repro.graph.digraph import TopicSocialGraph

    num_edges, num_topics = matrix.shape
    num_vertices = 2
    while num_vertices * (num_vertices - 1) < num_edges:
        num_vertices += 1
    graph = TopicSocialGraph(num_vertices, num_topics)
    pairs = ((s, t) for s in range(num_vertices) for t in range(num_vertices) if s != t)
    for probabilities, (source, target) in zip(matrix, pairs):
        graph.add_edge(source, target, probabilities)
    return graph


def _dgemv(matrix, vector):
    row = np.empty(matrix.shape[0])
    np.matmul(matrix, vector, out=row)
    return row


ENTRIES = [0.0, -0.0, 1e-300, 1e-310, 5e-324, 0.3, 1.0]
WEIGHTS = [1.0, 0.7, 1e-300, 1e-308, 1e-310, 1e-320]


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_rows_of_every_support_size_equal_the_dgemv_bits(data):
    """Both builders, shapes (0, 1) to (4200, 32); a negative single weight takes the dgemv."""
    num_edges = data.draw(st.one_of(st.sampled_from([0, 1, 4200]), st.integers(0, 300)), label="edges")
    num_topics = data.draw(st.one_of(st.sampled_from([1, 32]), st.integers(1, 8)), label="topics")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    matrix = np.where(
        rng.uniform(size=(num_edges, num_topics)) < 0.5,
        np.array(ENTRIES)[rng.integers(len(ENTRIES), size=(num_edges, num_topics))],
        rng.uniform(size=(num_edges, num_topics)),
    )
    graph = _graph_of(matrix)
    assert graph.probability_matrix.tobytes() == matrix.tobytes()
    weight = st.one_of(st.sampled_from(WEIGHTS), st.floats(1e-320, 1.0))
    vectors = []
    for _ in range(data.draw(st.integers(1, 6), label="rows")):
        vector = np.zeros(num_topics)
        support = data.draw(
            st.lists(st.integers(0, num_topics - 1), max_size=3, unique=True), label="support"
        )
        for topic in support:
            vector[topic] = data.draw(weight, label="weight")
        if support and data.draw(st.booleans(), label="negative"):
            vector[support[0]] = -vector[support[0]]
        vectors.append(vector)
    rows = graph.edge_probabilities_under_many(vectors)
    for vector, row in zip(vectors, rows):
        assert row.tobytes() == _dgemv(matrix, vector).tobytes(), vector

    # The p+ builder on plans with the same weights: row = min(sparse term, dgemv).
    # A bound above 1 (which Lemma 8's clamp never yields) keeps the min observable.
    model = TagTopicModel(np.ones((1, num_topics)))
    vectors.append(np.eye(num_topics)[0] * 4.0)
    for vector in vectors:
        vector = np.abs(vector)
        support = tuple(np.flatnonzero(vector).tolist())
        topic = support[0] if len(support) == 1 else -1
        model._row_plan = lambda tag_ids, k, plan=(support, vector, topic): plan
        [row] = model.upper_bound_edge_probabilities_many(graph, [()], 1)
        if not support or not num_edges:
            assert row.tobytes() == np.zeros(num_edges).tobytes()
            continue
        sparse = matrix[:, list(support)].max(axis=1)
        assert row.tobytes() == np.minimum(sparse, _dgemv(matrix, vector)).tobytes(), vector


def test_benchmark_rows_take_the_single_topic_path():
    """The benchmark model's rows do hold one topic, so the pins above cover served rows."""
    from itertools import combinations

    graph, model = _benchmark_instance()
    partials = [()] + [(t,) for t in range(25)] + list(combinations(range(25), 2))
    plans = [model._row_plan(partial, 2) for partial in partials]
    assert sum(topic >= 0 for _, _, topic in plans) > 0
    assert sum(len(support) >= 2 for support, _, _ in plans) > 0
    assert sum(not support for support, _, _ in plans) > 0
    for support, bound, topic in plans:
        assert not bound.flags.writeable
        assert topic == (int(np.flatnonzero(bound)[0]) if np.count_nonzero(bound) == 1 else -1)
    posteriors = [model.topic_posterior(tag_set) for tag_set in combinations(range(25), 2)]
    assert sum(np.count_nonzero(posterior) == 1 for posterior in posteriors) > 0


def test_graphs_reject_nan_probabilities(small_graph):
    """A NaN entry would poison the dgemv's zero products but not a scaled column."""
    from repro.exceptions import GraphError
    from repro.graph.digraph import TopicSocialGraph

    source, target = next(
        (s, t) for s in small_graph.vertices() for t in small_graph.vertices()
        if s != t and not small_graph.has_edge(s, t)
    )
    with pytest.raises(GraphError):
        small_graph.add_edge(source, target, [float("nan")] * small_graph.num_topics)
    arrays = dict(small_graph.to_shared_arrays())
    arrays["probability_matrix"] = arrays["probability_matrix"].copy()
    arrays["probability_matrix"][0, -1] = float("nan")
    with pytest.raises(GraphError):
        TopicSocialGraph.from_shared_arrays(arrays)


def test_probability_columns_follow_add_edge_and_freeze():
    """freeze() warms the column copy, a query keeps it, and add_edge leaves the engine's copy alone."""
    from itertools import combinations

    from repro.core.engine import PitexEngine
    from repro.datasets.synthetic import load_dataset

    dataset = load_dataset("lastfm", scale=0.08, seed=11)
    graph, model = dataset.graph.copy(), dataset.model
    engine = PitexEngine(graph, model, max_samples=40, index_samples=40, default_k=2, seed=7)
    engine.freeze(methods=["indexest+"], ks=[2])
    columns = engine.graph._prob_columns  # warmed on the engine's pinned snapshot
    assert columns is not None and engine.graph.probability_columns is columns
    assert columns.shape == (graph.num_topics, graph.num_edges) and not columns.flags.writeable
    engine.query(user=dataset.workload("mid", 1)[0], k=2, method="indexest+")
    assert engine.graph.probability_columns is columns
    source, target = next(
        (s, t) for s in graph.vertices() for t in graph.vertices() if s != t and not graph.has_edge(s, t)
    )
    graph.add_edge(source, target, np.linspace(0.05, 0.9, graph.num_topics))
    assert engine.graph.probability_columns is columns  # the engine keeps its version
    assert graph.probability_columns.shape == (graph.num_topics, graph.num_edges) == (
        columns.shape[0],
        columns.shape[1] + 1,
    )
    matrix = graph.probability_matrix
    assert graph.probability_columns.tobytes() == np.ascontiguousarray(matrix.T).tobytes()
    vectors = list(np.eye(graph.num_topics) * 0.375) + [model.topic_prior]
    for vector, row in zip(vectors, graph.edge_probabilities_under_many(vectors)):
        assert row.tobytes() == _dgemv(matrix, vector).tobytes()
    partials = [()] + [(t,) for t in range(model.num_tags)] + list(combinations(range(model.num_tags), 2))
    for partial, row in zip(partials, model.upper_bound_edge_probabilities_many(graph, partials, 2)):
        assert row.tobytes() == _reference_upper_bound_row(model, graph, partial, 2).tobytes(), partial
