"""The enumeration-based PITEX framework (Sec. 4, Algorithm 1).

``EnumerationExplorer`` evaluates *every* size-``k`` tag set with a pluggable
influence estimator and returns the best one.  Theorem 2 gives the
``(1-eps)/(1+eps)`` approximation guarantee provided each estimate satisfies
the Lemma 2 / Lemma 3 error bound, which the estimators enforce through their
sample budgets.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple

from repro.core.query import PitexQuery, PitexResult, TagSetEvaluation
from repro.exceptions import InvalidParameterError
from repro.obs.clock import monotonic
from repro.sampling.base import InfluenceEstimator
from repro.topics.model import TagTopicModel


class EnumerationExplorer:
    """Evaluate every candidate tag set and keep the best.

    Parameters
    ----------
    model:
        The tag-topic model (supplies the candidate tag sets and ``p(e|W)``).
    estimator:
        Any influence estimator implementing
        :class:`~repro.sampling.base.InfluenceEstimator`.
    keep_evaluations:
        When true, all per-tag-set evaluations are kept on the result (useful
        for reporting the full ranking, costs memory for large vocabularies).
    """

    name = "enumeration"

    def __init__(
        self,
        model: TagTopicModel,
        estimator: InfluenceEstimator,
        keep_evaluations: bool = False,
    ) -> None:
        self.model = model
        self.estimator = estimator
        self.keep_evaluations = keep_evaluations

    def explore(
        self,
        query: PitexQuery,
        candidate_tag_sets: Optional[Iterable[Tuple[int, ...]]] = None,
    ) -> PitexResult:
        """Answer ``query`` by exhaustive enumeration.

        ``candidate_tag_sets`` restricts the search space (used by tests and by
        the scalability experiments); by default all ``C(|Omega|, k)`` sets are
        evaluated.
        """
        if query.k > self.model.num_tags:
            raise InvalidParameterError(
                f"k={query.k} exceeds the tag vocabulary size {self.model.num_tags}"
            )
        started = monotonic()
        candidates = (
            candidate_tag_sets
            if candidate_tag_sets is not None
            else self.model.candidate_tag_sets(query.k)
        )
        best_tags: Tuple[int, ...] = ()
        best_spread = -1.0
        evaluated = 0
        edges_visited = 0
        samples_drawn = 0
        evaluations: List[TagSetEvaluation] = []
        for tag_set in candidates:
            estimate = self.estimator.estimate(query.user, tag_set)
            evaluated += 1
            edges_visited += estimate.edges_visited
            samples_drawn += estimate.num_samples
            evaluation = TagSetEvaluation(
                tag_ids=tuple(tag_set),
                spread=estimate.value,
                num_samples=estimate.num_samples,
                edges_visited=estimate.edges_visited,
            )
            if self.keep_evaluations:
                evaluations.append(evaluation)
            if estimate.value > best_spread:
                best_spread = estimate.value
                best_tags = tuple(tag_set)
        elapsed = monotonic() - started
        return PitexResult(
            query=query,
            tag_ids=best_tags,
            tags=tuple(self.model.tag_names(best_tags)),
            spread=max(best_spread, 0.0),
            method=f"{self.name}:{self.estimator.name}",
            evaluated_tag_sets=evaluated,
            pruned_tag_sets=0,
            edges_visited=edges_visited,
            samples_drawn=samples_drawn,
            elapsed_seconds=elapsed,
            evaluations=evaluations,
        )
