"""Tests for repro.sampling.base: sample sizes and the SampleBudget."""

import dataclasses
import math

import pytest

from repro.exceptions import InvalidParameterError
from repro.sampling.base import (
    InfluenceEstimate,
    SampleBudget,
    sample_size_offline,
    sample_size_online,
)
from repro.utils.stats import log_binomial, log_sum_binomials


def test_sample_size_online_matches_eqn2():
    epsilon, delta, num_tags, k, reachable = 0.5, 1000.0, 50, 3, 200
    expected = math.ceil(
        (2 + epsilon) / epsilon**2 * reachable * (math.log(delta) + log_binomial(num_tags, k) + math.log(2))
    )
    assert sample_size_online(epsilon, delta, num_tags, k, reachable) == expected


def test_sample_size_online_scales_with_reachable_size():
    small = sample_size_online(0.5, 1000.0, 50, 3, 10)
    large = sample_size_online(0.5, 1000.0, 50, 3, 100)
    assert large == pytest.approx(10 * small, rel=0.01)


def test_sample_size_online_shrinks_with_epsilon_and_spread():
    loose = sample_size_online(0.9, 1000.0, 50, 3, 100)
    tight = sample_size_online(0.3, 1000.0, 50, 3, 100)
    assert tight > loose
    with_spread = sample_size_online(0.5, 1000.0, 50, 3, 100, spread_lower_bound=10.0)
    without_spread = sample_size_online(0.5, 1000.0, 50, 3, 100)
    assert with_spread == pytest.approx(without_spread / 10, rel=0.01)


def test_sample_size_online_validates_inputs():
    with pytest.raises(InvalidParameterError):
        sample_size_online(0.0, 1000.0, 50, 3, 100)
    with pytest.raises(InvalidParameterError):
        sample_size_online(0.5, 0.5, 50, 3, 100)
    with pytest.raises(InvalidParameterError):
        sample_size_online(0.5, 1000.0, 0, 3, 100)


def test_sample_size_offline_matches_eqn7():
    epsilon, delta, num_tags, max_k, vertices = 0.7, 1000.0, 50, 5, 1000
    expected = math.ceil(
        (2 + epsilon) / epsilon**2 * vertices * (math.log(delta) + log_sum_binomials(num_tags, max_k) + math.log(2))
    )
    assert sample_size_offline(epsilon, delta, num_tags, max_k, vertices) == expected


def test_sample_size_offline_grows_with_max_k():
    small = sample_size_offline(0.7, 1000.0, 50, 1, 100)
    large = sample_size_offline(0.7, 1000.0, 50, 5, 100)
    assert large > small


def test_budget_defaults_match_paper():
    budget = SampleBudget()
    assert budget.epsilon == 0.7
    assert budget.delta == 1000.0
    assert budget.k == 3


def test_budget_caps_and_floors_sample_counts():
    budget = SampleBudget(num_tags=50, k=3, max_samples=500, min_samples=64)
    assert budget.online_samples(10**6) == 500
    assert budget.online_samples(0) >= 64
    assert budget.offline_samples(10**6) == 500


def test_budget_no_cap_when_disabled():
    budget = SampleBudget(num_tags=10, k=2, max_samples=None, min_samples=1)
    assert budget.online_samples(100) == sample_size_online(0.7, 1000.0, 10, 2, 100)


def test_budget_validation():
    with pytest.raises(InvalidParameterError):
        SampleBudget(epsilon=1.5)
    with pytest.raises(InvalidParameterError):
        SampleBudget(delta=0.5)
    with pytest.raises(InvalidParameterError):
        SampleBudget(k=0)
    with pytest.raises(InvalidParameterError):
        SampleBudget(max_samples=0)


def test_budget_approximation_ratio():
    budget = SampleBudget(epsilon=0.5)
    assert budget.approximation_ratio() == pytest.approx(1.0 / 3.0)


def test_budget_with_overrides_copies():
    budget = SampleBudget(epsilon=0.7, k=3)
    other = budget.with_overrides(epsilon=0.3, k=2)
    assert other.epsilon == 0.3 and other.k == 2
    assert budget.epsilon == 0.7 and budget.k == 3


def test_zero_posterior_fast_path(small_graph):
    """A tag set supported by no topic returns spread 1 with zero samples."""
    import numpy as np

    from repro.sampling.monte_carlo import MonteCarloEstimator
    from repro.topics.model import TagTopicModel

    matrix = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    model = TagTopicModel(matrix)
    estimator = MonteCarloEstimator(small_graph, model, SampleBudget(num_tags=2, k=2, max_samples=50), seed=1)
    estimate = estimator.estimate(0, (0, 1))
    assert estimate.value == 1.0
    assert estimate.num_samples == 0
    assert estimate.edges_visited == 0


def test_influence_estimate_dataclass_defaults():
    estimate = InfluenceEstimate(value=2.5, num_samples=10)
    assert estimate.edges_visited == 0
    assert estimate.method == ""


def test_influence_estimate_is_frozen():
    """Pure estimators share one estimate between tag sets, so no holder may edit it."""
    estimate = InfluenceEstimate(value=2.5, num_samples=10)
    for field in ("value", "num_samples", "edges_visited", "kernel"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(estimate, field, 0)
    assert dataclasses.replace(estimate, kernel="csr").kernel == "csr"
    assert estimate.kernel == ""
