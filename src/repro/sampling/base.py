"""Common interface and sample-size formulas for influence estimation.

The enumeration framework of Sec. 4 (Algorithm 1) plugs any of the samplers
into ``EstimateInfluence``: first derive a sample budget ``theta_W`` from the
accuracy parameters (Lemma 2 / Lemma 3, Eqn. 2), then average realized spreads
over that many sample instances.  This module defines:

* :class:`SampleBudget` -- the accuracy parameters ``(epsilon, delta, k,
  num_tags)`` plus a practical cap, and the ``theta_W`` computation.
* :class:`InfluenceEstimate` -- value + provenance (samples used, edges
  visited) of one estimation.
* :class:`InfluenceEstimator` -- the abstract interface shared by MC / RR /
  lazy estimators and by the index-based estimators in :mod:`repro.index`.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence

import numpy as np

from repro.exceptions import InvalidParameterError
from repro.graph.digraph import TopicSocialGraph
from repro.obs.telemetry import counter
from repro.topics.model import TagTopicModel
from repro.utils.stats import log_binomial, log_sum_binomials
from repro.utils.validation import ensure_in_range, ensure_positive_int


def sample_size_online(
    epsilon: float,
    delta: float,
    num_tags: int,
    k: int,
    reachable_size: int,
    spread_lower_bound: float = 1.0,
) -> int:
    """Eqn. 2: the sample budget ``theta_W`` for MC / RR / lazy sampling.

    ``theta_W = (2+eps)/eps^2 * |R_W(u)| * (ln(delta) + ln C(|Omega|, k) + ln 2)
    / E[I(u|W)]``.  The unknown true spread is replaced by ``spread_lower_bound``
    (at least 1, since the seed is always active), which keeps the guarantee
    (a lower bound on the spread can only enlarge the budget).
    """
    epsilon = ensure_in_range(epsilon, "epsilon", 0.0, 1.0, inclusive=False)
    if delta <= 1.0:
        raise InvalidParameterError(f"delta must exceed 1 (failure probability is 1/delta), got {delta}")
    ensure_positive_int(num_tags, "num_tags")
    ensure_positive_int(k, "k")
    ensure_positive_int(reachable_size, "reachable_size")
    spread_lower_bound = max(1.0, float(spread_lower_bound))
    lam = (2.0 + epsilon) / (epsilon * epsilon) * (
        math.log(delta) + log_binomial(num_tags, min(k, num_tags)) + math.log(2.0)
    )
    return max(1, int(math.ceil(lam * reachable_size / spread_lower_bound)))


def sample_size_offline(
    epsilon: float,
    delta: float,
    num_tags: int,
    max_k: int,
    num_vertices: int,
) -> int:
    """Eqn. 7: the number of RR-Graphs the offline index must materialize.

    ``theta = (2+eps)/eps^2 * |V| * (ln(delta) + ln(phi_K) + ln 2)`` with
    ``phi_K = sum_{i=1..K} C(|Omega|, i)``.
    """
    epsilon = ensure_in_range(epsilon, "epsilon", 0.0, 1.0, inclusive=False)
    if delta <= 1.0:
        raise InvalidParameterError(f"delta must exceed 1 (failure probability is 1/delta), got {delta}")
    ensure_positive_int(num_tags, "num_tags")
    ensure_positive_int(max_k, "max_k")
    ensure_positive_int(num_vertices, "num_vertices")
    lam = (2.0 + epsilon) / (epsilon * epsilon) * (
        math.log(delta) + log_sum_binomials(num_tags, max_k) + math.log(2.0)
    )
    return max(1, int(math.ceil(lam * num_vertices)))


@dataclass
class SampleBudget:
    """Accuracy parameters of a PITEX query plus a practical sample cap.

    The theoretical budgets of Eqn. 2 / Eqn. 7 grow with ``|R_W(u)|`` or
    ``|V|`` and are enormous for interactive use, exactly as in the paper's
    implementation the practical sample counts are bounded.  ``max_samples``
    caps the budget (``None`` disables the cap); ``min_samples`` keeps noisy
    tiny budgets from under-sampling.
    """

    epsilon: float = 0.7
    delta: float = 1000.0
    k: int = 3
    num_tags: int = 50
    max_samples: Optional[int] = 2000
    min_samples: int = 64

    def __post_init__(self) -> None:
        ensure_in_range(self.epsilon, "epsilon", 0.0, 1.0, inclusive=False)
        if self.delta <= 1.0:
            raise InvalidParameterError(
                f"delta must exceed 1 (failure probability is 1/delta), got {self.delta}"
            )
        ensure_positive_int(self.k, "k")
        ensure_positive_int(self.num_tags, "num_tags")
        if self.max_samples is not None:
            ensure_positive_int(self.max_samples, "max_samples")
        ensure_positive_int(self.min_samples, "min_samples")

    def online_samples(self, reachable_size: int, spread_lower_bound: float = 1.0) -> int:
        """The capped ``theta_W`` for online sampling of one tag set."""
        theta = sample_size_online(
            self.epsilon,
            self.delta,
            self.num_tags,
            self.k,
            max(1, reachable_size),
            spread_lower_bound,
        )
        theta = max(self.min_samples, theta)
        if self.max_samples is not None:
            theta = min(theta, self.max_samples)
        return theta

    def offline_samples(self, num_vertices: int, max_k: Optional[int] = None) -> int:
        """The capped ``theta`` for offline RR-Graph materialization."""
        theta = sample_size_offline(
            self.epsilon,
            self.delta,
            self.num_tags,
            max_k if max_k is not None else self.k,
            num_vertices,
        )
        theta = max(self.min_samples, theta)
        if self.max_samples is not None:
            theta = min(theta, self.max_samples)
        return theta

    def approximation_ratio(self) -> float:
        """The ``(1 - eps) / (1 + eps)`` ratio of Theorem 2."""
        return (1.0 - self.epsilon) / (1.0 + self.epsilon)

    def with_overrides(self, **kwargs) -> "SampleBudget":
        """A copy of the budget with some fields replaced."""
        values = {
            "epsilon": self.epsilon,
            "delta": self.delta,
            "k": self.k,
            "num_tags": self.num_tags,
            "max_samples": self.max_samples,
            "min_samples": self.min_samples,
        }
        values.update(kwargs)
        return SampleBudget(**values)


def probability_rows(
    graph: TopicSocialGraph, edge_probability_rows: Sequence[Sequence[float]]
) -> List[np.ndarray]:
    """``edge_probability_rows`` as a list of ``(graph.num_edges,)`` float rows.

    Float rows (and the rows of a float matrix) are used in place, not
    copied.  An empty batch gives ``[]``; a row that is not a vector of
    ``graph.num_edges`` probabilities -- narrower, wider, or the scalars of a
    single 1-D row passed as a batch -- raises
    :class:`~repro.exceptions.InvalidParameterError`.
    """
    rows = [np.asarray(row, dtype=float) for row in edge_probability_rows]
    for row in rows:
        if row.shape != (graph.num_edges,):
            raise InvalidParameterError(
                f"expected rows of {graph.num_edges} edge probabilities, got shape {row.shape}"
            )
    return rows


@dataclass
class InfluenceEstimate:
    """The result of one influence estimation.

    Attributes
    ----------
    value:
        The estimated expected spread ``E-hat[I(u|W)]``.
    num_samples:
        Number of sample instances used.
    edges_visited:
        Number of edge probes performed (Fig. 13 instrumentation).
    reachable_size:
        ``|R_W(u)|`` when the estimator computed it, else 0.
    method:
        Short name of the estimator ("mc", "rr", "lazy", "lazy-batched",
        "index", ...).
    kernel:
        The sampling kernel that produced the estimate ("batched", "csr",
        "dict"), empty for estimators without a kernel choice.
    """

    value: float
    num_samples: int
    edges_visited: int = 0
    reachable_size: int = 0
    method: str = ""
    kernel: str = ""


class InfluenceEstimator(abc.ABC):
    """Abstract interface of every influence estimator.

    Concrete estimators hold the graph, the tag-topic model and a
    :class:`SampleBudget`; the engine calls :meth:`estimate` once per candidate
    tag set.
    """

    name: str = "abstract"

    def __init__(
        self,
        graph: TopicSocialGraph,
        model: TagTopicModel,
        budget: Optional[SampleBudget] = None,
    ) -> None:
        self.graph = graph
        self.model = model
        self.budget = budget if budget is not None else SampleBudget(num_tags=model.num_tags)
        self.total_edges_visited = 0
        self.total_samples = 0

    # ----------------------------------------------------------------- public
    def estimate(self, user: int, tag_set: Iterable) -> InfluenceEstimate:
        """Estimate ``E[I(user|tag_set)]``.

        Tag sets supported by no topic (``p(z|W) = 0`` everywhere) make every
        edge probability zero, so the spread is exactly 1 (the seed alone);
        this common case -- the source of the best-effort pruning power on
        sparse tag-topic matrices -- is answered without sampling.
        """
        return self.estimate_many(user, [tag_set])[0]

    def estimate_many(self, user: int, tag_sets: Sequence[Iterable]) -> list:
        """:meth:`estimate` for several tag sets of one user, batched.

        Semantically a loop of :meth:`estimate` calls (identical sampling
        order for the sequential kernels), but the per-row estimations flow
        through :meth:`estimate_many_with_probabilities`, so a batched-kernel
        estimator answers all tag sets from one shared event store.  The
        best-effort explorer drains runs of complete tag sets through this
        entry point.
        """
        results: list = [None] * len(tag_sets)
        rows = []
        slots = []
        for slot, tag_set in enumerate(tag_sets):
            posterior = self.model.topic_posterior(tag_set)
            if not posterior.any():
                results[slot] = InfluenceEstimate(
                    value=1.0,
                    num_samples=0,
                    edges_visited=0,
                    reachable_size=1,
                    method=self.name,
                    kernel=getattr(self, "kernel", ""),
                )
                continue
            rows.append(self.graph.edge_probabilities_under(posterior))
            slots.append(slot)
        batch_edges = 0
        batch_samples = 0
        if rows:
            estimates = self.estimate_many_with_probabilities(user, rows)
            for slot, estimate in zip(slots, estimates):
                if not estimate.kernel:
                    estimate.kernel = getattr(self, "kernel", "")
                self.total_edges_visited += estimate.edges_visited
                self.total_samples += estimate.num_samples
                batch_edges += estimate.edges_visited
                batch_samples += estimate.num_samples
                results[slot] = estimate
        # Per-method work counters: deterministic for a seeded workload, so
        # the thread and process backends must report identical totals.
        counter(f"estimator.{self.name}.estimates", len(tag_sets))
        counter(f"estimator.{self.name}.edges_visited", batch_edges)
        counter(f"estimator.{self.name}.samples", batch_samples)
        return results

    @abc.abstractmethod
    def estimate_with_probabilities(
        self, user: int, edge_probabilities: Sequence[float], num_samples: Optional[int] = None
    ) -> InfluenceEstimate:
        """Estimate the spread for explicit per-edge probabilities.

        ``num_samples`` overrides the budget-derived sample count; the
        convergence experiment (Fig. 6) uses this to sweep ``theta_W``.
        """

    def estimate_many_with_probabilities(
        self,
        user: int,
        edge_probability_rows: Sequence[Sequence[float]],
        num_samples: Optional[int] = None,
    ) -> list:
        """Estimate one user's spread under several probability assignments.

        The default runs one independent estimation per row.  Estimators with
        a batched kernel (:class:`repro.sampling.lazy.LazyPropagationEstimator`
        with ``kernel="batched"``) override this to advance all rows through a
        single shared event store; the best-effort explorer feeds the upper
        bounds of every child of one expansion through this entry point.
        """
        return [
            self.estimate_with_probabilities(user, row, num_samples)
            for row in probability_rows(self.graph, edge_probability_rows)
        ]

    def reset_counters(self) -> None:
        """Zero the cumulative edge / sample counters."""
        self.total_edges_visited = 0
        self.total_samples = 0
