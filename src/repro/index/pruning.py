"""Edge-cut pruning and the filter-and-verify estimator ``IndexEst+`` (Sec. 6.2).

Verifying tag-aware reachability in every RR-Graph containing the query user
requires one BFS per RR-Graph per candidate tag set.  The filter step avoids
most of that verification work:

1.  For every RR-Graph containing the user, an *edge cut* is selected -- a set
    of stored edges such that the user can only reach the root if at least one
    cut edge is live.  Two candidate cuts are compared (the user's out-edges
    inside the RR-Graph vs. the root's in-edges from vertices the user can
    structurally reach) and the one with the higher estimated pruning
    probability wins, following Example 7 of the paper.  Cuts are chosen for
    many (user, RR-Graph) pairs in one vectorized pass over the index's
    :class:`~repro.index.rr_graph.RRBlock`: the source side is the user's
    out-slot run, the target side the root in-slots whose bit is set in the
    block's reverse root-reach closure (:meth:`RRBlock.root_reach`).
2.  Flat inverted lists hold one posting ``(edge id, c(e), RR-Graph)`` per cut
    entry, grouped by edge and sorted by ``c(e)`` within each edge.  Given a
    tag set, an RR-Graph survives iff one of its postings has
    ``c(e) <= p(e|W)`` on a live edge; the rest are pruned without being
    traversed.  The scan cost is counted as a per-edge scan that stops at the
    first posting above ``p(e|W)``.
3.  Only the surviving candidates are verified, in one batched BFS
    (:meth:`~repro.index.rr_graph.RRBlock.reach_pairs`).

Both steps take a whole matrix of probability rows: the best-effort explorer
hands over the upper-bound rows of every child of one expansion at once, so
:meth:`_UserFilterStructures.scan` filters all rows in one vectorized pass
and one BFS verifies every surviving (row, RR-Graph) pair.

:func:`build_filter_tables` builds the structures of many users in that one
pass, with two stable sorts over all their postings; it takes each (user,
RR-Graph) pair as the user's block node.  A frozen engine runs it over every
user at freeze time (:mod:`repro.index.tables`), with the pairs read off the
block's nodes.  Otherwise the structures are built lazily, by the same pass
with one user whose nodes :meth:`RRBlock.start_nodes` finds, on the first
query of a user and cached, since the same user typically evaluates many tag
sets during one PITEX exploration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.exceptions import IndexNotBuiltError
from repro.graph.csr import indptr_from_counts
from repro.graph.digraph import TopicSocialGraph
from repro.index.rr_graph import RRBlock
from repro.index.rr_index import RRGraphIndex
from repro.sampling.base import (
    InfluenceEstimate,
    InfluenceEstimator,
    SampleBudget,
    probability_matrix,
)
from repro.topics.model import TagTopicModel
from repro.utils.heap import concat_ranges


def _dead_factors(
    edge_ids: np.ndarray, thresholds: np.ndarray, max_probabilities: np.ndarray
) -> np.ndarray:
    """Per cut entry, the probability ``min(1, c(e) / p(e))`` that it stays dead.

    Entries on edges with ``p(e) <= 0`` get the neutral factor 1.0.
    """
    maxima = max_probabilities[edge_ids]
    ratios = np.divide(thresholds, maxima, out=np.ones(len(maxima)), where=maxima > 0.0)
    return np.minimum(1.0, ratios)


def cut_sides(block: RRBlock, graphs: np.ndarray, starts: np.ndarray):
    """Both candidate cuts of every pair ``i``: a user's node ``starts[i]`` in ``graphs[i]``.

    ``starts`` holds block node ids (:meth:`RRBlock.start_nodes`), ``-1``
    for a user that is no member of its graph.  Returns ``(always, source,
    target)``.  ``always[i]`` marks pairs whose user is the graph's root.
    Each side is ``(indptr, edge_ids, thresholds)`` with one run per pair,
    entries in stored edge order: the source side holds the user's
    out-slots, the target side the root's in-slots whose source the user
    reaches with every edge live (the bits of :meth:`RRBlock.root_reach`).
    A pair without a member gets two empty runs.
    """
    member = starts >= 0
    always = member & block.node_is_root[starts]
    source_counts = np.where(member, block.out_degree[starts], 0)
    source_slots = concat_ranges(block.indptr[starts], source_counts)
    in_starts = block.root_in_indptr[graphs]
    in_counts = np.where(member, block.root_in_indptr[graphs + 1] - in_starts, 0)
    in_positions = concat_ranges(in_starts, in_counts)
    pair_of = np.repeat(np.arange(len(graphs), dtype=np.int64), in_counts)
    slots = in_positions - in_starts[pair_of]
    words = block.root_reach()[starts[pair_of], slots >> 6]
    reached = (words >> (slots & 63).astype(np.uint64)) & np.uint64(1) == 1
    in_positions = in_positions[reached]
    source = (
        indptr_from_counts(source_counts),
        block.slot_edge_ids[source_slots],
        block.slot_thresholds[source_slots],
    )
    target = (
        indptr_from_counts(np.bincount(pair_of[reached], minlength=len(graphs))),
        block.root_in_edge_ids[in_positions],
        block.root_in_thresholds[in_positions],
    )
    return always, source, target


def _run_products(factors: np.ndarray, indptr: np.ndarray) -> np.ndarray:
    """The product of every run of ``factors``; an empty run gives 1.0.

    ``np.multiply.reduceat`` multiplies each run left to right, exactly as
    ``math.prod(run, start=1.0)``.
    """
    counts = np.diff(indptr)
    products = np.ones(len(counts))
    nonempty = counts > 0
    if factors.size:
        products[nonempty] = np.multiply.reduceat(factors, indptr[:-1][nonempty])
    return products


def choose_cuts(
    block: RRBlock, graphs: np.ndarray, starts: np.ndarray, max_probabilities: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The chosen cut of every pair of :func:`cut_sides` (Example 7), as flat arrays.

    Returns ``(always, indptr, edge_ids, thresholds)``: ``always[i]`` marks
    pairs whose user is the root (no cut can prune), and run ``i`` of the
    entries is the cut with the higher pruning probability of pair ``i`` --
    the source cut on a tie.  A cut's pruning probability is the product of
    its entries' factors ``min(1, c(e) / p(e))`` (Example 7: ``p(e|W)``
    taken uniform in ``[0, p(e)]``), multiplied in entry order.
    """
    always, source, target = cut_sides(block, graphs, starts)
    source_dead, target_dead = (
        _run_products(_dead_factors(edge_ids, thresholds, max_probabilities), indptr)
        for indptr, edge_ids, thresholds in (source, target)
    )
    take_source = (source_dead >= target_dead) & ~always
    take_target = ~take_source & ~always
    counts = np.where(take_source, np.diff(source[0]), 0)
    counts += np.where(take_target, np.diff(target[0]), 0)
    indptr = indptr_from_counts(counts)
    edge_ids = np.empty(int(indptr[-1]), dtype=np.int64)
    thresholds = np.empty(int(indptr[-1]), dtype=np.float64)
    for (side_indptr, side_edges, side_thresholds), take in (
        (source, take_source),
        (target, take_target),
    ):
        side_counts = np.diff(side_indptr)
        keep = np.repeat(take, side_counts)
        # Entry i of run r moves to indptr[r] + (i - side_indptr[r]).
        moved = np.arange(len(side_edges), dtype=np.int64)
        moved += np.repeat(indptr[:-1] - side_indptr[:-1], side_counts)
        edge_ids[moved[keep]] = side_edges[keep]
        thresholds[moved[keep]] = side_thresholds[keep]
    return always, indptr, edge_ids, thresholds


@dataclass
class _UserFilterStructures:
    """One user's flat inverted lists over the chosen cuts, plus the uncuttable graphs.

    Postings are grouped by edge (edges in order of first appearance over
    the graphs) and sorted by ``(threshold, rr_index)`` within an edge;
    ``edge_last`` marks the last posting of each edge.
    """

    edge_ids: np.ndarray
    thresholds: np.ndarray
    rr_indices: np.ndarray
    edge_last: np.ndarray
    always_candidates: Set[int]

    def scan(self, rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The filter step under every row of the ``(R, |E|)`` matrix ``rows`` at once.

        Returns ``(kept_rows, graphs, scanned)``: one entry per kept posting,
        row by row and in posting order within a row -- its row and its
        RR-Graph (graphs may repeat; the uncuttable ``always_candidates`` are
        not listed) -- and per row the number of postings scanned.  A
        posting is kept when its edge is live and ``c(e) <= p(e|W)``.  The
        scan of a live edge stops at its first posting above ``p(e|W)``, so
        a row scans its kept postings plus, for every live edge whose last
        posting lies above ``p(e|W)``, that last posting.
        """
        probabilities = rows.take(self.edge_ids, axis=1)
        live = probabilities > 0.0
        kept = live & (self.thresholds <= probabilities)
        # Kept postings and last postings of live edges are the scanned ones.
        scanned = (kept | (live & self.edge_last)).sum(axis=1)
        kept_rows, postings = kept.nonzero()
        return kept_rows, self.rr_indices[postings], scanned

    def candidate_set(self, graphs: np.ndarray) -> Set[int]:
        """The surviving RR-Graphs of one row of :meth:`scan` as a set.

        The uncuttable graphs go in first, then the kept postings in posting
        order, so the set iterates as the per-edge scan fills it.
        """
        candidates = set(self.always_candidates)
        candidates.update(graphs.tolist())
        return candidates


def build_filter_tables(
    block: RRBlock,
    pair_counts: Sequence[int],
    pair_graphs: np.ndarray,
    starts: np.ndarray,
    max_probabilities: np.ndarray,
) -> List[_UserFilterStructures]:
    """The inverted lists of the chosen cuts of consecutive runs of (user, graph) pairs.

    User ``i`` owns the next ``pair_counts[i]`` pairs; pair ``j`` is the
    user's node ``starts[j]`` (``-1`` if absent) in graph ``pair_graphs[j]``.
    Each user's graphs must come in ascending order (the posting order
    relies on it, see below).  One vectorized pass over all pairs:
    :func:`choose_cuts` picks every cut, and two stable sorts order the
    postings of all users at once; each user's structures are slices of the
    result.  Pure function of the block and the maximum edge probabilities
    -- no RNG draws -- so building at freeze time (:mod:`repro.index.tables`)
    is bitwise-equivalent to building lazily on the first query.  Graphs
    whose chosen cut is empty cannot be reached and get no posting.
    """
    pair_counts = np.asarray(pair_counts, dtype=np.int64)
    always, indptr, edge_ids, thresholds = choose_cuts(block, pair_graphs, starts, max_probabilities)
    entry_counts = np.diff(indptr)
    rr_indices = np.repeat(pair_graphs, entry_counts)
    # A user's edges are ordered by first appearance (as a dict keyed by edge
    # fills up), so the kept postings fill the candidate set in a per-edge
    # scan's order.  First positions are global, so they also keep the
    # users apart and in order.
    pair_slots = np.repeat(np.arange(len(pair_counts), dtype=np.int64), pair_counts)
    first = _first_positions(
        np.repeat(pair_slots, entry_counts) * (int(edge_ids.max(initial=0)) + 1) + edge_ids
    )
    # Postings sort by (first appearance, threshold, graph).  Postings that
    # tie on the first two belong to one user, whose pairs arrive in
    # ascending graph order, so their input order is already their graph
    # order and two stable sorts give the three-key order.  First positions
    # are below len(first); on their narrowest unsigned type the second
    # sort is a radix sort.
    order = np.argsort(thresholds, kind="stable")
    narrow = np.min_scalar_type(max(len(first) - 1, 0))
    order = order[np.argsort(first[order].astype(narrow), kind="stable")]
    first = first[order]
    edge_last = np.ones(len(first), dtype=bool)
    np.not_equal(first[1:], first[:-1], out=edge_last[:-1])
    edge_ids, thresholds, rr_indices = edge_ids[order], thresholds[order], rr_indices[order]
    pair_bounds = indptr_from_counts(pair_counts)
    posting_bounds = indptr[pair_bounds].tolist()
    pair_bounds = pair_bounds.tolist()
    structures = []
    for slot in range(len(pair_counts)):
        lo, hi = posting_bounds[slot], posting_bounds[slot + 1]
        first_pair, end_pair = pair_bounds[slot], pair_bounds[slot + 1]
        structures.append(
            _UserFilterStructures(
                edge_ids=edge_ids[lo:hi],
                thresholds=thresholds[lo:hi],
                rr_indices=rr_indices[lo:hi],
                edge_last=edge_last[lo:hi],
                always_candidates=set(
                    pair_graphs[first_pair:end_pair][always[first_pair:end_pair]].tolist()
                ),
            )
        )
    return structures


def _first_positions(keys: np.ndarray) -> np.ndarray:
    """For every entry, the position of the first entry with the same key."""
    order = np.argsort(keys, kind="stable")
    ordered = keys[order]
    head = np.ones(len(keys), dtype=bool)
    np.not_equal(ordered[1:], ordered[:-1], out=head[1:])
    first = np.empty(len(keys), dtype=np.int64)
    first[order] = order[head][np.cumsum(head) - 1]
    return first


def build_filter_structures(
    block: RRBlock, user: int, graphs: Sequence[int], max_probabilities: np.ndarray
) -> _UserFilterStructures:
    """The inverted lists of ``user``'s chosen cuts in ``graphs`` (ascending) of ``block``.

    The one-user case of :func:`build_filter_tables`; the user's nodes are
    found with :meth:`RRBlock.start_nodes`.
    """
    graphs = np.asarray(graphs, dtype=np.int64)
    starts = block.start_nodes(user, graphs)
    return build_filter_tables(block, [len(graphs)], graphs, starts, max_probabilities)[0]


class PrunedIndexEstimator(InfluenceEstimator):
    """``IndexEst+``: filter-and-verify estimation on top of the RR-Graph index.

    :meth:`estimate_many_with_probabilities` is the one estimation path: it
    filters a whole matrix of probability rows and verifies every surviving
    (row, RR-Graph) pair in one BFS; :meth:`estimate_with_probabilities` is
    its one-row call.

    ``shared_structures`` (when given) is a read-only table of precomputed
    per-user filter structures owned by a frozen engine
    (:mod:`repro.index.tables`); users found there skip the lazy build, users
    absent fall back to the per-instance cache.
    """

    name = "indexest+"
    pure_estimates = True

    def __init__(
        self,
        graph: TopicSocialGraph,
        model: TagTopicModel,
        index: RRGraphIndex,
        budget: Optional[SampleBudget] = None,
        shared_structures: Optional[Dict[int, _UserFilterStructures]] = None,
    ) -> None:
        super().__init__(graph, model, budget)
        if index.graph is not self.graph:
            raise IndexNotBuiltError("the index was built for another graph or graph version")
        self.index = index
        self._shared_structures = shared_structures
        self._user_structures: Dict[int, _UserFilterStructures] = {}

    # ----------------------------------------------------------------- filter
    def _structures_for(self, user: int) -> _UserFilterStructures:
        """Fetch (or build) the inverted lists of the chosen cuts for ``user``."""
        if self._shared_structures is not None:
            shared = self._shared_structures.get(user)
            if shared is not None:
                return shared
        cached = self._user_structures.get(user)
        if cached is not None:
            return cached
        structures = build_filter_structures(
            self.index.block(),
            user,
            self.index.graphs_containing(user),
            self.graph.max_edge_probabilities(),
        )
        self._user_structures[user] = structures
        return structures

    # --------------------------------------------------------------- estimate
    def estimate_with_probabilities(
        self,
        user: int,
        edge_probabilities: Sequence[float],
        num_samples: Optional[int] = None,
    ) -> InfluenceEstimate:
        """The one-row case of :meth:`estimate_many_with_probabilities`."""
        rows = np.asarray(edge_probabilities, dtype=float)[None]
        return self.estimate_many_with_probabilities(user, rows, num_samples)[0]

    def estimate_many_with_probabilities(
        self,
        user: int,
        edge_probability_rows: Sequence[Sequence[float]],
        num_samples: Optional[int] = None,
    ) -> list:
        """Filter every row's RR-Graphs with the cuts, verify all survivors in one BFS.

        One :meth:`_UserFilterStructures.scan` filters all rows; the
        surviving (row, RR-Graph) pairs -- each row's kept postings plus the
        uncuttable graphs, without repeats -- are verified together by
        :meth:`~repro.index.rr_graph.RRBlock.reach_pairs`.  Every estimate
        equals the one-row filter-and-verify of its row bit for bit (a hit
        count does not depend on the order of a row's candidates).
        ``num_samples`` is ignored (offline samples).
        """
        rows = probability_matrix(self.graph, edge_probability_rows)
        structures = self._structures_for(user)
        kept_rows, graphs, scanned = structures.scan(rows)
        block = self.index.block()
        candidates = np.zeros((len(rows), block.num_graphs), dtype=bool)
        candidates[kept_rows, graphs] = True
        if structures.always_candidates:
            candidates[:, list(structures.always_candidates)] = True
        pair_rows, pair_graphs = candidates.nonzero()
        hits, checked = block.reach_pairs(user, rows, pair_rows, pair_graphs)
        hit_counts = np.bincount(pair_rows[hits], minlength=len(rows)).tolist()
        candidate_counts = np.bincount(pair_rows, minlength=len(rows)).tolist()
        edges_visited = (scanned + checked).tolist()
        reachable_size = len(self.index.graphs_containing(user))
        scale = float(self.index.num_samples)
        return [
            InfluenceEstimate(
                value=hit_count / scale * self.graph.num_vertices,
                num_samples=candidate_count,
                edges_visited=edges,
                reachable_size=reachable_size,
                method=self.name,
            )
            for hit_count, candidate_count, edges in zip(hit_counts, candidate_counts, edges_visited)
        ]
