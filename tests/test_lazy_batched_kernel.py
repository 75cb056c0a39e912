"""Statistical-equivalence and determinism tests for the batched lazy kernel.

Three layers of guarantees, mirroring :mod:`tests.test_csr_kernels`:

* **Statistical equivalence**: the batched event-queue kernel draws from the
  same process (Lemma 6) as the sequential csr/dict kernels and as plain
  Bernoulli probing, so spread estimates agree across kernels and with the
  exact oracle on tiny graphs -- within the ``(1 +- eps)`` band and far
  tighter in practice.  A hypothesis property test checks that per-edge fire
  marginals stay geometric/Bernoulli under batched rescheduling.
* **Seed determinism**: the batched kernel is pure array code over a seeded
  generator; the same seed reproduces bitwise-identical estimates across runs
  and across engines, including after adopting a prebuilt index via
  ``attach_*_index`` (index attachment must not perturb the sampling streams).
* **Edge-visit accounting**: the batched kernel books edge visits exactly like
  the sequential kernels (schedule size at creation + one per fire), so
  per-method edge-visit totals agree across lazy kernels and exhibit the Lemma 5 vs Lemma 7 gap against
  Monte-Carlo probing (the Fig. 13 shape).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import PitexEngine
from repro.exceptions import InvalidParameterError
from repro.graph.generators import random_topic_graph
from repro.index.rr_index import RRGraphIndex
from repro.propagation.exact import exact_influence_spread
from repro.sampling import base as sampling_base
from repro.sampling.base import SampleBudget
from repro.sampling.lazy import LazyPropagationEstimator
from repro.sampling.monte_carlo import MonteCarloEstimator
from repro.utils.heap import BatchedEventQueue
from repro.utils.rng import RandomSource


def single_edge_queue(probability: float, seed: int) -> BatchedEventQueue:
    """A queue over the 2-vertex graph ``0 -> 1`` with one world."""
    out_indptr = np.array([0, 1, 1], dtype=np.int64)
    out_targets = np.array([1], dtype=np.int64)
    out_edge_ids = np.array([0], dtype=np.int64)
    probabilities = np.array([[probability]], dtype=float)
    return BatchedEventQueue(
        out_indptr, out_targets, out_edge_ids, probabilities, RandomSource(seed)
    )


# ------------------------------------------------- statistical equivalence


def test_batched_kernel_statistically_agrees_with_reference_kernels(
    small_graph, small_model, tiny_budget
):
    probabilities = small_graph.max_edge_probabilities()
    samples = 3000
    values = {}
    for kernel, seed in (("batched", 14), ("csr", 15), ("dict", 16)):
        estimator = LazyPropagationEstimator(
            small_graph, small_model, tiny_budget, seed=seed, early_stopping=False, kernel=kernel
        )
        values[kernel] = estimator.estimate_with_probabilities(0, probabilities, samples).value
    assert values["batched"] == pytest.approx(values["dict"], rel=0.10, abs=0.25)
    assert values["batched"] == pytest.approx(values["csr"], rel=0.10, abs=0.25)


def test_batched_kernel_matches_exact_oracle_within_eps_band():
    budget = SampleBudget(epsilon=0.7, delta=100.0, k=2, num_tags=6, max_samples=4000)
    for seed in (100, 101, 102):
        graph = random_topic_graph(
            8, 2, edge_probability=0.2, base_probability=0.5, seed=seed
        )
        probabilities = graph.max_edge_probabilities()
        if graph.num_edges == 0 or graph.num_edges > 20:
            continue
        exact = exact_influence_spread(graph, 0, probabilities)
        estimator = LazyPropagationEstimator(
            graph, None, budget, seed=7, early_stopping=False, kernel="batched"
        )
        estimate = estimator.estimate_with_probabilities(0, probabilities, 4000)
        # The theoretical guarantee band ...
        assert exact * (1 - budget.epsilon) <= estimate.value <= exact * (1 + budget.epsilon)
        # ... and the much tighter practical agreement at 4000 samples.
        assert estimate.value == pytest.approx(exact, rel=0.15, abs=0.2)


def test_batched_kernel_on_deterministic_line_is_exact(deterministic_line, small_model):
    budget = SampleBudget(num_tags=6, max_samples=50, min_samples=10)
    estimator = LazyPropagationEstimator(
        deterministic_line, small_model, budget, seed=3, early_stopping=False, kernel="batched"
    )
    estimate = estimator.estimate_with_probabilities(
        0, np.ones(deterministic_line.num_edges), 20
    )
    assert estimate.value == pytest.approx(5.0)
    assert estimate.kernel == "batched"
    assert estimate.method == "lazy-batched"


def test_estimate_many_matches_independent_estimates(small_graph, small_model, tiny_budget):
    probabilities = small_graph.max_edge_probabilities()
    rows = np.stack([probabilities, probabilities * 0.5, np.zeros_like(probabilities)])
    batched = LazyPropagationEstimator(
        small_graph, small_model, tiny_budget, seed=8, early_stopping=False, kernel="batched"
    )
    many = batched.estimate_many_with_probabilities(0, rows, 3000)
    assert len(many) == 3
    # The all-zero world is answered without sampling.
    assert many[2].value == 1.0 and many[2].num_samples == 0 and many[2].edges_visited == 0
    for world, row in ((0, rows[0]), (1, rows[1])):
        single = LazyPropagationEstimator(
            small_graph, small_model, tiny_budget, seed=20 + world, early_stopping=False,
            kernel="batched",
        ).estimate_with_probabilities(0, row, 3000)
        assert many[world].value == pytest.approx(single.value, rel=0.10, abs=0.25)
        assert many[world].reachable_size == single.reachable_size


@given(
    probability=st.floats(min_value=0.05, max_value=1.0),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    instances_per_round=st.integers(min_value=1, max_value=8),
)
@settings(max_examples=30, deadline=None)
def test_per_edge_fire_marginals_stay_geometric_under_rescheduling(
    probability, seed, instances_per_round
):
    """Every visit of the source is a Bernoulli(p) trial for the edge.

    The geometric schedule (initial draw + batched rescheduling, including the
    within-window Bernoulli expansion) realizes a renewal process whose
    per-visit fire marginal is exactly ``p``; the empirical fire rate over many
    visits must match within a 6-sigma binomial bound, and the gaps between
    consecutive fire visit-indices (the re-drawn geometric variables) must
    average ``1/p`` within a 6-sigma bound of the geometric distribution.
    """
    queue = single_edge_queue(probability, seed)
    rounds = max(1, 3000 // instances_per_round)
    fire_times = []
    for round_index in range(rounds):
        instances = np.arange(instances_per_round, dtype=np.int64)
        fired_instances, fired_targets = queue.advance(
            np.zeros(instances_per_round, dtype=np.int64),
            instances,
            np.zeros(instances_per_round, dtype=np.int64),
        )
        assert np.all(fired_targets == 1) if fired_targets.size else True
        # Instance j of this round holds visit round*m + j + 1.
        fire_times.extend(
            (round_index * instances_per_round + fired_instances + 1).tolist()
        )
    visits = rounds * instances_per_round
    assert queue.visit_count(0, 0) == visits
    fires = len(fire_times)
    sigma = np.sqrt(probability * (1.0 - probability) / visits)
    assert abs(fires / visits - probability) <= 6.0 * sigma + 1e-9
    fire_times = np.asarray(sorted(fire_times))
    # Fire visit-indices are strictly increasing: one fire per visit at most.
    assert np.all(np.diff(fire_times) >= 1)
    if fires >= 30:
        gaps = np.diff(fire_times)
        gap_sigma = np.sqrt((1.0 - probability) / probability**2 / len(gaps))
        assert abs(gaps.mean() - 1.0 / probability) <= 6.0 * gap_sigma + 1e-9


# --------------------------------------------------------- seed determinism


def _estimate_tuple(estimate):
    return (
        estimate.value,
        estimate.num_samples,
        estimate.edges_visited,
        estimate.reachable_size,
        estimate.method,
        estimate.kernel,
    )


def test_same_seed_is_bitwise_identical_across_runs(small_graph, small_model, tiny_budget):
    probabilities = small_graph.max_edge_probabilities()
    outcomes = []
    for _ in range(2):
        estimator = LazyPropagationEstimator(
            small_graph, small_model, tiny_budget, seed=42, kernel="batched"
        )
        outcomes.append(
            _estimate_tuple(estimator.estimate_with_probabilities(0, probabilities, 500))
        )
    assert outcomes[0] == outcomes[1]


def test_estimate_many_is_deterministic_per_seed(small_graph, small_model, tiny_budget):
    probabilities = small_graph.max_edge_probabilities()
    rows = np.stack([probabilities, probabilities * 0.7])
    outcomes = []
    for _ in range(2):
        estimator = LazyPropagationEstimator(
            small_graph, small_model, tiny_budget, seed=31, kernel="batched"
        )
        outcomes.append(
            [
                _estimate_tuple(e)
                for e in estimator.estimate_many_with_probabilities(0, rows, 400)
            ]
        )
    assert outcomes[0] == outcomes[1]


def _fresh_engine(seed=5, index_seed=None):
    graph = random_topic_graph(14, 3, edge_probability=0.25, base_probability=0.5, seed=77)
    rng = np.random.default_rng(9)
    matrix = rng.uniform(0.0, 1.0, size=(6, 3))
    matrix[matrix < 0.4] = 0.0
    matrix[0, 0] = 0.7
    from repro.topics.model import TagTopicModel

    model = TagTopicModel(matrix)
    rr_index = None
    if index_seed is not None:
        rr_index = RRGraphIndex(graph, num_samples=40, seed=index_seed).build()
    return PitexEngine(graph, model, max_samples=200, index_samples=40, seed=seed, rr_index=rr_index)


def test_engine_lazy_batched_estimates_are_seed_deterministic():
    estimates = [
        _fresh_engine().estimate_influence(0, [0, 1], method="lazy-batched") for _ in range(2)
    ]
    assert _estimate_tuple(estimates[0]) == _estimate_tuple(estimates[1])


def test_attach_index_does_not_perturb_batched_sampling_stream():
    """Adopting a prebuilt index must not shift the lazy-batched seed path.

    Mirrors the ``rr_index=`` warm-start of the serving layer: an engine
    handed a store-loaded index answers batched lazy estimations
    bitwise-identically to a cold engine with the same seed.
    """
    cold = _fresh_engine()
    warm = _fresh_engine(index_seed=9)
    for user in (0, 3):
        cold_estimate = cold.estimate_influence(user, [0, 1], method="lazy-batched")
        warm_estimate = warm.estimate_influence(user, [0, 1], method="lazy-batched")
        assert _estimate_tuple(cold_estimate) == _estimate_tuple(warm_estimate)


def test_engine_query_lazy_batched_is_seed_deterministic():
    results = [
        _fresh_engine().query(user=0, k=2, method="lazy-batched") for _ in range(2)
    ]
    assert results[0].tag_ids == results[1].tag_ids
    assert results[0].spread == results[1].spread
    assert results[0].edges_visited == results[1].edges_visited
    assert results[0].method == "best-effort:lazy-batched"


# ----------------------------------------------------- edge-visit accounting


def test_instrumentation_counters_agree_between_batched_and_dict_lazy(
    small_graph, small_model, tiny_budget
):
    """Fig. 13 accounting: both lazy kernels book schedule + fire visits.

    The counts are random variables on independent streams, so they agree in
    expectation, not bitwise; the Lemma 5 vs Lemma 7 inequality against MC
    probing must hold strictly for both (this is the shape ``bench_fig13``
    gates on the smoke datasets).
    """
    probabilities = small_graph.max_edge_probabilities()
    samples = 2000
    edge_visits, sample_counts, query_counts = {}, {}, {}
    users = [0, 2, 4]
    estimators = {
        "mc": MonteCarloEstimator(small_graph, small_model, tiny_budget, seed=5, kernel="csr"),
        "lazy": LazyPropagationEstimator(
            small_graph, small_model, tiny_budget, seed=6, early_stopping=False, kernel="dict"
        ),
        "lazy-batched": LazyPropagationEstimator(
            small_graph, small_model, tiny_budget, seed=7, early_stopping=False, kernel="batched"
        ),
    }
    for estimator in estimators.values():
        for user in users:
            estimate = estimator.estimate_with_probabilities(user, probabilities, samples)
            method = estimate.method
            edge_visits[method] = edge_visits.get(method, 0) + estimate.edges_visited
            sample_counts[method] = sample_counts.get(method, 0) + estimate.num_samples
            query_counts[method] = query_counts.get(method, 0) + 1
    assert query_counts == {"mc": 3, "lazy": 3, "lazy-batched": 3}
    batched_mean = edge_visits["lazy-batched"] / query_counts["lazy-batched"]
    dict_mean = edge_visits["lazy"] / query_counts["lazy"]
    assert batched_mean == pytest.approx(dict_mean, rel=0.15)
    # Lemma 5 vs Lemma 7: lazy propagation (any kernel) touches strictly fewer
    # edges than Bernoulli-probing every positive out-edge per activation.
    mc_mean = edge_visits["mc"] / query_counts["mc"]
    assert batched_mean < mc_mean
    assert dict_mean < mc_mean
    assert sample_counts["mc"] / query_counts["mc"] == samples
    assert set(edge_visits) == {"mc", "lazy", "lazy-batched"}


def test_estimate_stamps_kernel_and_accumulates_totals(small_graph, small_model, tiny_budget):
    estimator = LazyPropagationEstimator(
        small_graph, small_model, tiny_budget, seed=11, kernel="batched"
    )
    estimate = estimator.estimate(0, [0, 1])
    assert estimate.kernel == "batched"
    assert estimator.total_edges_visited == estimate.edges_visited
    assert estimator.total_samples == estimate.num_samples
    many = estimator.estimate_many(0, [[0, 1], [2]])
    assert estimator.total_edges_visited == estimate.edges_visited + sum(
        e.edges_visited for e in many
    )


def test_early_stopping_tracks_sequential_stopping_point(small_graph, small_model):
    """Rate-adapted chunks stop close to where the sequential kernel stops."""
    budget = SampleBudget(epsilon=0.7, delta=100.0, k=2, num_tags=6, max_samples=2000)
    probabilities = small_graph.max_edge_probabilities()
    sequential = LazyPropagationEstimator(
        small_graph, small_model, budget, seed=3, early_stopping=True, kernel="csr"
    ).estimate_with_probabilities(0, probabilities)
    batched = LazyPropagationEstimator(
        small_graph, small_model, budget, seed=4, early_stopping=True, kernel="batched"
    ).estimate_with_probabilities(0, probabilities)
    assert batched.value == pytest.approx(sequential.value, rel=0.15, abs=0.3)
    # The batched run does not blow past the sequential stopping point.
    assert batched.num_samples <= max(64, int(sequential.num_samples * 1.6) + 8)


# -------------------------------------------------------- best-effort batching


def test_best_effort_queries_agree_across_kernels():
    graph = random_topic_graph(16, 3, edge_probability=0.25, base_probability=0.5, seed=55)
    rng = np.random.default_rng(3)
    matrix = rng.uniform(0.0, 1.0, size=(8, 3))
    matrix[matrix < 0.45] = 0.0
    matrix[0, 0] = 0.8
    from repro.topics.model import TagTopicModel

    model = TagTopicModel(matrix)
    engine = PitexEngine(graph, model, max_samples=400, index_samples=40, seed=13)
    spreads = {}
    for method in ("lazy-batched", "lazy"):
        result = engine.query(user=0, k=2, method=method)
        assert len(result.tag_ids) == 2
        assert result.evaluated_tag_sets + result.pruned_tag_sets > 0
        spreads[method] = result.spread
    # The batched and sequential kernels pick possibly different (tied) tag
    # sets, but the reported spreads stay within the accuracy band of each other.
    assert spreads["lazy-batched"] == pytest.approx(spreads["lazy"], rel=0.35, abs=0.6)


def test_running_estimates_batched_matches_sequential_convergence(
    small_graph, small_model, tiny_budget
):
    probabilities = small_graph.max_edge_probabilities()
    checkpoints = [50, 100, 400, 1600]
    series = {}
    for kernel, seed in (("batched", 5), ("csr", 6)):
        estimator = LazyPropagationEstimator(
            small_graph, small_model, tiny_budget, seed=seed, early_stopping=False, kernel=kernel
        )
        series[kernel] = estimator.running_estimates(0, probabilities, checkpoints)
    assert len(series["batched"]) == len(checkpoints)
    assert all(value >= 1.0 for value in series["batched"])
    # Both kernels converge to the same quantity (Fig. 6 shape).
    assert series["batched"][-1] == pytest.approx(series["csr"][-1], rel=0.15, abs=0.3)


def test_unknown_kernel_is_rejected(small_graph, small_model, tiny_budget):
    from repro.exceptions import InvalidParameterError

    with pytest.raises(InvalidParameterError):
        LazyPropagationEstimator(
            small_graph, small_model, tiny_budget, seed=1, kernel="sparse"
        )
    # "batched" is an estimator kernel only; lazy-batched is its engine method.
    for kernel in ("sparse", "batched"):
        with pytest.raises(InvalidParameterError):
            PitexEngine(small_graph, small_model, kernel=kernel)


def test_lazy_batched_method_works_under_enumeration():
    graph = random_topic_graph(10, 2, edge_probability=0.3, base_probability=0.5, seed=21)
    rng = np.random.default_rng(8)
    matrix = rng.uniform(0.0, 1.0, size=(4, 2))
    matrix[matrix < 0.3] = 0.0
    matrix[0, 0] = 0.6
    from repro.topics.model import TagTopicModel

    model = TagTopicModel(matrix)
    engine = PitexEngine(graph, model, max_samples=120, index_samples=30, seed=2)
    result = engine.query(user=0, k=2, method="lazy-batched", exploration="enumeration")
    assert len(result.tag_ids) == 2
    assert result.method == "enumeration:lazy-batched"


def test_estimate_many_validates_its_rows_once(small_graph, small_model, tiny_budget, monkeypatch):
    conversions = []
    per_row = sampling_base.probability_rows

    def counted(graph, rows):
        conversions.append(len(rows))
        return per_row(graph, rows)

    monkeypatch.setattr(sampling_base, "probability_rows", counted)
    probabilities = small_graph.max_edge_probabilities()
    matrix = np.stack([probabilities, probabilities * 0.5])

    def estimates(rows):
        estimator = LazyPropagationEstimator(
            small_graph, small_model, tiny_budget, seed=9, kernel="batched"
        )
        return [_estimate_tuple(e) for e in estimator.estimate_many_with_probabilities(0, rows)]

    # A float matrix is read in place; a list of rows is checked and stacked once.
    from_matrix = estimates(matrix)
    assert conversions == []
    assert estimates([row.tolist() for row in matrix]) == from_matrix
    assert conversions == [2]
    assert estimates([]) == []
    width = small_graph.num_edges
    for bad in (
        probabilities,  # one 1-D row passed as a batch
        [probabilities, probabilities[:-1]],  # a short row
        np.full((2, width - 1), 0.3),
    ):
        with pytest.raises(InvalidParameterError):
            estimates(bad)
