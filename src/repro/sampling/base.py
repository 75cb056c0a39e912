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
import dataclasses
import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import InvalidParameterError
from repro.graph.digraph import TopicSocialGraph
from repro.obs.telemetry import counter
from repro.topics.model import TagTopicModel
from repro.utils.memo import distinct_rows, memoized_many
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


def probability_matrix(
    graph: TopicSocialGraph, edge_probability_rows: Sequence[Sequence[float]]
) -> np.ndarray:
    """``edge_probability_rows`` as one ``(R, graph.num_edges)`` float matrix.

    A float matrix of that shape is used in place, not copied; any other
    batch is validated by :func:`probability_rows`.  A single row is then
    viewed in place as a one-row matrix, and several rows are stacked.  An
    empty batch gives a ``(0, graph.num_edges)`` matrix.
    """
    matrix = edge_probability_rows
    if (
        isinstance(matrix, np.ndarray)
        and matrix.dtype == np.float64
        and matrix.shape[1:] == (graph.num_edges,)
    ):
        return matrix
    rows = probability_rows(graph, edge_probability_rows)
    if len(rows) == 1:
        return rows[0][None]
    return np.array(rows) if rows else np.empty((0, graph.num_edges))


@dataclass(frozen=True)
class InfluenceEstimate:
    """The result of one influence estimation.

    Frozen: a pure estimator hands one estimate to every tag set with the
    same ``(user, row)`` (see :meth:`InfluenceEstimator.compute_estimates`),
    so no holder may change it for the others.

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
    tag set.  An estimator holds ``graph.snapshot()`` of the graph it was
    given, so it answers on that version for as long as it lives.
    """

    name: str = "abstract"
    #: True when every estimate is a pure function of ``(user, row)``: no
    #: randomness is drawn per row, so an estimate computed ahead of time
    #: equals the one a sequential caller gets (the best-effort explorer
    #: evaluates runs of complete tag sets ahead on such estimators, and
    #: :meth:`compute_estimates` memoizes them).
    pure_estimates: bool = False

    def __init__(
        self,
        graph: TopicSocialGraph,
        model: TagTopicModel,
        budget: Optional[SampleBudget] = None,
    ) -> None:
        self.graph = graph.snapshot()
        self.model = model
        self.budget = budget if budget is not None else SampleBudget(num_tags=model.num_tags)
        self.total_edges_visited = 0
        self.total_samples = 0
        # (user, posterior bytes) -> estimate, on pure estimators.
        self._estimates: Dict[Tuple[int, bytes], InfluenceEstimate] = {}

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
        order for the sequential kernels): every tag set is resolved once,
        then :meth:`compute_estimates`, then :meth:`count_estimates` of every
        estimate.
        """
        estimates = self.compute_estimates(
            user, [self.model.resolve_tags(tag_set) for tag_set in tag_sets]
        )
        self.count_estimates(estimates)
        return estimates

    def compute_estimates(self, user: int, tag_sets: Sequence[Tuple[int, ...]]) -> list:
        """The estimates of :meth:`estimate_many`, counted nowhere.

        Every tag set is a sorted tag-id tuple
        (:meth:`~repro.topics.model.TagTopicModel.resolve_tags` form).  The
        ``p(e|W)`` rows of every supported tag set go into one matrix
        (:meth:`~repro.graph.digraph.TopicSocialGraph.edge_probabilities_under_many`)
        and flow through :meth:`estimate_many_with_probabilities`, so a
        batched-kernel estimator answers all tag sets from one shared event
        store.  The best-effort explorer evaluates runs of complete tag sets
        here and counts only the estimates it keeps.

        On a :attr:`pure_estimates` estimator the row is a function of the
        posterior ``p(z|W)``, and the estimate a function of ``(user, row)``,
        so every estimate is memoized for the life of the instance, keyed by
        ``(user, posterior bytes)``: only the posteriors not
        seen before are built and matched, in one call, and tag sets that
        share a posterior share one (frozen) estimate.  A shared estimate
        still reports the samples and edges of the evaluation that produced
        it, so the counters summed from estimates do not depend on the memo.
        """
        kernel = getattr(self, "kernel", "")
        results: list = [None] * len(tag_sets)
        posteriors = []
        slots = []
        for slot, tag_set in enumerate(tag_sets):
            posterior = self.model.posterior_of_ids(tag_set)
            if posterior.any():
                posteriors.append(posterior)
                slots.append(slot)
            else:
                results[slot] = InfluenceEstimate(
                    value=1.0,
                    num_samples=0,
                    edges_visited=0,
                    reachable_size=1,
                    method=self.name,
                    kernel=kernel,
                )
        if not posteriors:
            return results
        if self.pure_estimates:
            estimates = memoized_many(
                self._estimates,
                [(user, posterior.tobytes()) for posterior in posteriors],
                posteriors,
                lambda missing: self._estimates_under(user, missing, kernel),
            )
        else:
            estimates = self._estimates_under(user, posteriors, kernel)
        for slot, estimate in zip(slots, estimates):
            results[slot] = estimate
        return results

    def _estimates_under(self, user: int, posteriors: list, kernel: str) -> list:
        """The estimates of the ``p(e|W)`` rows of ``posteriors``, in one call; equal posteriors share one build."""
        rows = distinct_rows(
            [posterior.tobytes() for posterior in posteriors],
            posteriors,
            self.graph.edge_probabilities_under_many,
        )
        return [
            dataclasses.replace(estimate, kernel=kernel) if kernel and not estimate.kernel else estimate
            for estimate in self.estimate_many_with_probabilities(user, rows)
        ]

    def count_estimates(self, estimates: Sequence[InfluenceEstimate]) -> None:
        """Add ``estimates`` to ``total_*`` and the per-method ``estimator.*`` counters.

        The counters are deterministic for a seeded workload, so the thread
        and process backends must report identical totals.
        """
        edges = sum(estimate.edges_visited for estimate in estimates)
        samples = sum(estimate.num_samples for estimate in estimates)
        self.total_edges_visited += edges
        self.total_samples += samples
        counter(f"estimator.{self.name}.estimates", len(estimates))
        counter(f"estimator.{self.name}.edges_visited", edges)
        counter(f"estimator.{self.name}.samples", samples)

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
