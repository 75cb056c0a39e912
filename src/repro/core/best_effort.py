"""Best-effort exploration (Sec. 5.2 and Appendix C, Algorithm 5).

Instead of evaluating all ``C(|Omega|, k)`` tag sets, the explorer grows
partial tag sets one tag at a time inside a max-heap ordered by an *upper
bound* on the influence any size-``k`` completion of the partial set can reach.
The upper bound combines:

* Lemma 8's per-edge bound ``p+(e|W) >= p(e|W')`` for every completion
  ``W' ⊇ W`` (implemented in
  :meth:`repro.topics.model.TagTopicModel.upper_bound_edge_probabilities`), and
* an influence bound on the graph weighted with ``p+(e|W)`` -- either the
  deterministic reachability count (every vertex reachable through positive
  ``p+`` edges, a hard upper bound) or a sampled spread estimate (cheaper to
  beat, tighter, but probabilistic like everything else in the framework).

A partial set is pruned when its upper bound cannot beat the best complete tag
set found so far, which removes entire sub-trees of the enumeration.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple

import numpy as np

from repro.core.query import PitexQuery, PitexResult, TagSetEvaluation
from repro.exceptions import InvalidParameterError
from repro.graph.algorithms import reachable_counts
from repro.sampling.base import InfluenceEstimator
from repro.topics.model import TagTopicModel
from repro.utils.heap import MaxHeap
from repro.utils.timer import Stopwatch

BOUND_METHODS = ("reach", "sample")


class BestEffortExplorer:
    """Branch-and-bound exploration over partial tag sets (Algorithm 5).

    Parameters
    ----------
    model, estimator:
        As for :class:`~repro.core.enumeration.EnumerationExplorer`.
    bound_method:
        ``"reach"`` uses the number of vertices reachable through edges with
        ``p+(e|W) > 0`` as the spread upper bound (deterministic, loose);
        ``"sample"`` estimates the spread on the ``p+``-weighted graph with a
        reduced sample count and inflates it by ``1 + eps`` (tighter, matches
        the paper's sampling-based ``EstimateUpperBound``).
    bound_sample_fraction:
        Fraction of the normal sample budget used for the sampled upper bound.
    keep_evaluations:
        Keep the per-tag-set evaluations on the result.
    """

    name = "best-effort"

    def __init__(
        self,
        model: TagTopicModel,
        estimator: InfluenceEstimator,
        bound_method: str = "sample",
        bound_sample_fraction: float = 0.25,
        keep_evaluations: bool = False,
    ) -> None:
        if bound_method not in BOUND_METHODS:
            raise InvalidParameterError(
                f"bound_method must be one of {BOUND_METHODS}, got {bound_method!r}"
            )
        self.model = model
        self.estimator = estimator
        self.bound_method = bound_method
        self.bound_sample_fraction = bound_sample_fraction
        self.keep_evaluations = keep_evaluations

    # ------------------------------------------------------------------ bound
    def _bound_samples(self) -> int:
        """Reduced sample count used by the sampled upper bound."""
        return max(
            8,
            int(
                self.estimator.budget.online_samples(self.estimator.graph.num_vertices)
                * self.bound_sample_fraction
            ),
        )

    def _upper_bound(
        self, query: PitexQuery, partial_tags: Tuple[int, ...]
    ) -> Tuple[float, int, int]:
        """Upper bound on the spread of any size-``k`` completion of ``partial_tags``.

        Returns ``(bound, edges_visited, samples_drawn)``.
        """
        return self._upper_bounds_many(query, [partial_tags])[0]

    def _upper_bounds_many(
        self, query: PitexQuery, partials: List[Tuple[int, ...]]
    ) -> List[Tuple[float, int, int]]:
        """Upper bounds for a batch of partial tag sets (one expansion's children).

        The ``p+`` probability rows of every partial set with a live completion
        are evaluated through the estimator's
        :meth:`~repro.sampling.base.InfluenceEstimator.estimate_many_with_probabilities`,
        so a batched-kernel estimator answers the whole candidate frontier from
        one shared event store; other kernels estimate row by row in the same
        order, preserving their sequential sampling paths.
        """
        graph = self.estimator.graph
        bounds: List[Optional[Tuple[float, int, int]]] = [None] * len(partials)
        rows: List[np.ndarray] = []
        slots: List[int] = []
        for slot, partial_tags in enumerate(partials):
            bound_probabilities = self.model.upper_bound_edge_probabilities(
                graph, partial_tags, query.k
            )
            if not np.any(bound_probabilities > 0.0):
                # No completion of this partial set can activate anyone beyond the seed.
                bounds[slot] = (1.0, 0, 0)
            else:
                rows.append(bound_probabilities)
                slots.append(slot)
        if not rows:
            return bounds
        if self.bound_method == "reach":
            # |R_W(u)| under p+ for every row at once (bit-parallel BFS).
            for slot, size in zip(slots, reachable_counts(graph, query.user, np.asarray(rows))):
                bounds[slot] = (float(size), 0, 0)
            return bounds
        estimates = self.estimator.estimate_many_with_probabilities(
            query.user, np.asarray(rows), num_samples=self._bound_samples()
        )
        for slot, estimate in zip(slots, estimates):
            inflated = estimate.value * (1.0 + query.epsilon)
            bounds[slot] = (float(inflated), estimate.edges_visited, estimate.num_samples)
        return bounds

    # ---------------------------------------------------------------- explore
    def explore(
        self,
        query: PitexQuery,
        candidate_tags: Optional[Iterable[int]] = None,
    ) -> PitexResult:
        """Answer ``query`` with best-effort exploration.

        ``candidate_tags`` optionally restricts the vocabulary (used by the
        scalability sweeps); by default every tag may be selected.
        """
        if query.k > self.model.num_tags:
            raise InvalidParameterError(
                f"k={query.k} exceeds the tag vocabulary size {self.model.num_tags}"
            )
        watch = Stopwatch().start()
        tags = (
            sorted(self.model.resolve_tags(candidate_tags))
            if candidate_tags is not None
            else list(range(self.model.num_tags))
        )
        if query.k > len(tags):
            raise InvalidParameterError(
                f"k={query.k} exceeds the number of candidate tags {len(tags)}"
            )

        heap = MaxHeap()
        root_bound, root_edges, root_samples = self._upper_bound(query, ())
        heap.push(root_bound, ())
        best_tags: Tuple[int, ...] = ()
        best_spread = -1.0
        evaluated = 0
        pruned = 0
        edges_visited = root_edges
        samples_drawn = root_samples
        evaluations: List[TagSetEvaluation] = []

        # A batched-kernel estimator evaluates runs of complete tag sets popped
        # from the heap together (one shared event store per drain).  Draining
        # delays incumbent updates within one run, which can only evaluate
        # *more* sets than the sequential order (never skip a better one), so
        # the returned tag set is unaffected; sequential kernels keep the exact
        # pop-one-evaluate-one reference behavior via a drain limit of 1.
        drain_limit = 32 if getattr(self.estimator, "kernel", None) == "batched" else 1
        while heap:
            bound, partial = heap.pop()
            if len(partial) == query.k:
                drained: List[Tuple[float, Tuple[int, ...]]] = [(bound, partial)]
                while len(drained) < drain_limit and heap and len(heap.peek()[1]) == query.k:
                    drained.append(heap.pop())
                to_evaluate: List[Tuple[int, ...]] = []
                for set_bound, tag_set in drained:
                    if set_bound <= best_spread and best_spread > 0.0:
                        # The bound is an upper bound on this set's own spread,
                        # so it cannot beat the incumbent; skip the estimation.
                        pruned += 1
                    else:
                        to_evaluate.append(tag_set)
                if not to_evaluate:
                    continue
                estimates = self.estimator.estimate_many(query.user, to_evaluate)
                for tag_set, estimate in zip(to_evaluate, estimates):
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
                continue
            if bound <= best_spread:
                pruned += self._completions_below(partial, tags, query.k)
                continue
            # Expand: only append tags larger than the current maximum so every
            # subset is generated exactly once (canonical ascending order).
            minimum_next = partial[-1] + 1 if partial else tags[0]
            children: List[Tuple[int, ...]] = []
            for tag in tags:
                if tag < minimum_next:
                    continue
                child = partial + (tag,)
                remaining_pool = sum(1 for t in tags if t > tag)
                if remaining_pool < query.k - len(child):
                    continue  # not enough tags left to complete the set
                children.append(child)
            # One batched bound evaluation for the whole expansion: a batched
            # estimator shares one event store across every child's p+ world.
            for child, (child_bound, child_edges, child_samples) in zip(
                children, self._upper_bounds_many(query, children)
            ):
                edges_visited += child_edges
                samples_drawn += child_samples
                if child_bound > best_spread or best_spread <= 0.0:
                    heap.push(child_bound, child)
                else:
                    pruned += self._completions_below(child, tags, query.k)
        watch.stop()
        return PitexResult(
            query=query,
            tag_ids=best_tags,
            tags=tuple(self.model.tag_names(best_tags)),
            spread=max(best_spread, 0.0),
            method=f"{self.name}:{self.estimator.name}",
            evaluated_tag_sets=evaluated,
            pruned_tag_sets=pruned,
            edges_visited=edges_visited,
            samples_drawn=samples_drawn,
            elapsed_seconds=watch.elapsed,
            evaluations=evaluations,
        )

    @staticmethod
    def _completions_below(partial: Tuple[int, ...], tags: List[int], k: int) -> int:
        """Number of complete tag sets represented by a pruned partial set."""
        from math import comb

        remaining_pool = sum(1 for t in tags if t > (partial[-1] if partial else -1))
        need = k - len(partial)
        if need <= 0:
            return 1
        if remaining_pool < need:
            return 0
        return comb(remaining_pool, need)
