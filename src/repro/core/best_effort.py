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

import math
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.core.query import PitexQuery, PitexResult, TagSetEvaluation
from repro.exceptions import InvalidParameterError
from repro.graph.algorithms import reachable_counts
from repro.obs.clock import monotonic
from repro.sampling.base import InfluenceEstimator
from repro.topics.model import RowKey, TagTopicModel
from repro.utils.heap import MaxHeap
from repro.utils.memo import distinct_rows, memoized_many

BOUND_METHODS = ("reach", "sample")

#: An upper bound with its cost: ``(bound, edges_visited, samples_drawn)``.
Bound = Tuple[float, int, int]


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

    def _upper_bounds_many(
        self,
        query: PitexQuery,
        partials: List[Tuple[int, ...]],
        memo: Optional[Dict[RowKey, Bound]] = None,
        num_samples: Optional[int] = None,
    ) -> List[Bound]:
        """Upper bounds ``(bound, edges_visited, samples_drawn)`` of partial tag sets.

        When the bound is a pure function of the ``p+`` row -- the reach
        bound, or a sampled bound on a :attr:`pure_estimates` estimator --
        partial sets with one row key
        (:meth:`~repro.topics.model.TagTopicModel._row_key`: the row's support
        and Lemma 8 bound bytes) share one bound, and only the keys missing
        from ``memo`` are built and scored, one row each.  ``explore`` passes
        one ``memo`` for the whole query; without one, the keys are shared
        within this call.  A memo-served bound reports the edges and samples
        of the evaluation that produced it.  A sampled bound on any other
        estimator draws fresh samples for every partial set.

        ``num_samples`` is the sampled bound's sample count
        (:meth:`_bound_samples` when omitted; ``explore`` computes it once).
        """
        if num_samples is None:
            num_samples = self._bound_samples()
        if self.bound_method != "reach" and not self.estimator.pure_estimates:
            return self._row_bounds(query, partials, num_samples)
        return memoized_many(
            {} if memo is None else memo,
            [self.model._row_key(partial, query.k) for partial in partials],
            partials,
            lambda missing: self._row_bounds(query, missing, num_samples),
        )

    def _row_bounds(
        self, query: PitexQuery, partials: List[Tuple[int, ...]], num_samples: int
    ) -> List[Bound]:
        """One bound per partial set, all rows built and scored in one batch.

        The ``p+`` rows of all partial sets are built as one matrix
        (:meth:`~repro.topics.model.TagTopicModel.upper_bound_edge_probabilities_many`),
        each distinct row key's row once (:func:`~repro.utils.memo.distinct_rows`);
        the rows with a live edge are evaluated through the estimator's
        :meth:`~repro.sampling.base.InfluenceEstimator.estimate_many_with_probabilities`,
        so a batched-kernel estimator answers the whole candidate frontier from
        one shared event store; other kernels estimate row by row in the same
        order, preserving their sequential sampling paths.
        """
        graph = self.estimator.graph
        rows = distinct_rows(
            [self.model._row_key(partial, query.k) for partial in partials],
            partials,
            lambda firsts: self.model.upper_bound_edge_probabilities_many(graph, firsts, query.k),
        )
        # A row without a positive p+ edge cannot activate anyone beyond the seed.
        live = (rows > 0.0).any(axis=1)
        bounds: List[Bound] = [(1.0, 0, 0)] * len(partials)
        slots = np.flatnonzero(live).tolist()
        if not slots:
            return bounds
        if len(slots) < len(partials):
            rows = rows[live]
        if self.bound_method == "reach":
            # |R_W(u)| under p+ for every row at once (bit-parallel BFS).
            for slot, size in zip(slots, reachable_counts(graph, query.user, rows)):
                bounds[slot] = (float(size), 0, 0)
            return bounds
        estimates = self.estimator.estimate_many_with_probabilities(
            query.user, rows, num_samples=num_samples
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
        started = monotonic()
        tags = (
            sorted(self.model.resolve_tags(candidate_tags))
            if candidate_tags is not None
            else list(range(self.model.num_tags))
        )
        if query.k > len(tags):
            raise InvalidParameterError(
                f"k={query.k} exceeds the number of candidate tags {len(tags)}"
            )
        # Tags above each candidate tag: a partial set ending in `tag` completes
        # with C(larger[tag], k - |partial|) tag sets.
        larger = {tag: len(tags) - 1 - position for position, tag in enumerate(tags)}

        def completions(partial: Tuple[int, ...]) -> int:
            return math.comb(larger[partial[-1]] if partial else len(tags), query.k - len(partial))

        # One bound memo and one bound sample count for the whole query.
        memo: Dict[RowKey, Bound] = {}
        bound_samples = self._bound_samples()
        heap = MaxHeap()
        [(root_bound, root_edges, root_samples)] = self._upper_bounds_many(
            query, [()], memo, bound_samples
        )
        heap.push(root_bound, ())
        best_tags: Tuple[int, ...] = ()
        best_spread = -1.0
        evaluated = 0
        pruned = 0
        edges_visited = root_edges
        samples_drawn = root_samples
        evaluations: List[TagSetEvaluation] = []

        def beaten(set_bound: float) -> bool:
            # The bound of a complete set is an upper bound on its own spread,
            # so a bound at most the incumbent cannot beat it.
            return set_bound <= best_spread and best_spread > 0.0

        # Complete tag sets at the top of the heap are popped as one run (their
        # evaluation pushes nothing, so the pop order is the sequential one).
        # A pure estimator evaluates the whole run in doubling chunks, testing
        # every set against the incumbent before each chunk, and replays each
        # chunk in pop order: a set the sequential order would have pruned is
        # counted as pruned and its estimate dropped uncounted, so every answer
        # and counter equals pop-one-evaluate-one.  A batched-kernel sampler
        # drains up to 32 sets into one shared event store with no replay; its
        # estimates depend on which rows share the store.  Delaying incumbent
        # updates within one drain can only evaluate *more* sets (never skip a
        # better one).  Other sequential kernels drain one set at a time.
        replay = self.estimator.pure_estimates
        if replay:
            drain_limit = math.inf
        elif getattr(self.estimator, "kernel", None) == "batched":
            drain_limit = 32
        else:
            drain_limit = 1
        while heap:
            bound, partial = heap.pop()
            if len(partial) == query.k:
                run = [(bound, partial)]
                while (
                    len(run) < drain_limit
                    and heap
                    and len(heap.peek()[1]) == query.k
                    and not beaten(heap.peek()[0])
                ):
                    run.append(heap.pop())
                chunk_size = 1 if replay else len(run)
                while run:
                    live = [entry for entry in run if not beaten(entry[0])]
                    pruned += len(run) - len(live)
                    chunk, run = live[:chunk_size], live[chunk_size:]
                    chunk_size *= 2
                    if not chunk:
                        break
                    estimates = self.estimator.compute_estimates(
                        query.user, [tag_set for _, tag_set in chunk]
                    )
                    kept = []
                    for (set_bound, tag_set), estimate in zip(chunk, estimates):
                        if replay and beaten(set_bound):
                            pruned += 1
                            continue
                        kept.append(estimate)
                        evaluated += 1
                        edges_visited += estimate.edges_visited
                        samples_drawn += estimate.num_samples
                        if self.keep_evaluations:
                            evaluations.append(
                                TagSetEvaluation(
                                    tag_ids=tuple(tag_set),
                                    spread=estimate.value,
                                    num_samples=estimate.num_samples,
                                    edges_visited=estimate.edges_visited,
                                )
                            )
                        if estimate.value > best_spread:
                            best_spread = estimate.value
                            best_tags = tuple(tag_set)
                    self.estimator.count_estimates(kept)
                continue
            if bound <= best_spread:
                pruned += completions(partial)
                continue
            # Expand: only append tags after the current maximum so every subset
            # is generated exactly once (canonical ascending order), and only
            # tags that leave enough larger tags to complete the set.
            first = len(tags) - larger[partial[-1]] if partial else 0
            needed_after = query.k - len(partial) - 1
            children = [partial + (tag,) for tag in tags[first : len(tags) - needed_after]]
            # One batched bound evaluation for the whole expansion: a batched
            # estimator shares one event store across every child's p+ world.
            for child, (child_bound, child_edges, child_samples) in zip(
                children, self._upper_bounds_many(query, children, memo, bound_samples)
            ):
                edges_visited += child_edges
                samples_drawn += child_samples
                if child_bound > best_spread or best_spread <= 0.0:
                    heap.push(child_bound, child)
                else:
                    pruned += completions(child)
        elapsed = monotonic() - started
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
            elapsed_seconds=elapsed,
            evaluations=evaluations,
        )
