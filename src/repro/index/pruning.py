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
    (:meth:`~repro.index.rr_graph.RRBlock.reach_many`).

:func:`build_filter_tables` builds the structures of many users in that one
pass, with one ``lexsort`` over all their postings; a frozen engine runs it
over every user at freeze time (:mod:`repro.index.tables`).  Otherwise the
structures are built lazily, by the same pass with one user, on the first
query of a user and cached, since the same user typically evaluates many tag
sets during one PITEX exploration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.exceptions import IndexNotBuiltError
from repro.graph.csr import indptr_from_counts
from repro.graph.digraph import TopicSocialGraph
from repro.index.rr_graph import RRBlock, RRGraph
from repro.index.rr_index import RRGraphIndex
from repro.sampling.base import InfluenceEstimate, InfluenceEstimator, SampleBudget
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


@dataclass
class EdgeCut:
    """An edge cut for one (user, RR-Graph) pair.

    ``entries`` are ``(edge_id, threshold)`` pairs: the user can only reach the
    root if at least one listed edge has ``p(e|W) >= threshold``.  ``always_live``
    marks degenerate cases (the user *is* the root) where no cut can prune.
    """

    rr_index: int
    entries: List[Tuple[int, float]] = field(default_factory=list)
    always_live: bool = False

    def pruning_probability(self, max_probabilities: np.ndarray) -> float:
        """Heuristic probability that every cut edge stays dead.

        Assuming ``p(e|W)`` uniform in ``[0, p(e)]`` (Example 7), an edge stays
        dead with probability ``c(e) / p(e)`` (capped at 1); the cut prunes when
        all of its edges stay dead.
        """
        if self.always_live:
            return 0.0
        edge_ids = np.array([edge_id for edge_id, _ in self.entries], dtype=np.int64)
        thresholds = np.array([threshold for _, threshold in self.entries], dtype=float)
        # math.prod multiplies left to right: the cut's entry order fixes the bits.
        return math.prod(_dead_factors(edge_ids, thresholds, max_probabilities).tolist(), start=1.0)


def cut_sides(block: RRBlock, users: np.ndarray, graphs: np.ndarray):
    """Both candidate cuts of every ``(users[i], graphs[i])`` pair, as flat arrays.

    Returns ``(always, source, target)``.  ``always[i]`` marks pairs whose
    user is the graph's root.  Each side is ``(indptr, edge_ids,
    thresholds)`` with one run per pair, entries in stored edge order: the
    source side holds the user's out-slots, the target side the root's
    in-slots whose source the user reaches with every edge live (the bits of
    :meth:`RRBlock.root_reach`).  A user that is no member of its graph gets
    two empty runs.
    """
    always = block.roots[graphs] == users
    starts = block.start_nodes(users, graphs)
    member = starts >= 0
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
    block: RRBlock, users: np.ndarray, graphs: np.ndarray, max_probabilities: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The chosen cut of every ``(users[i], graphs[i])`` pair (Example 7), as flat arrays.

    Returns ``(always, indptr, edge_ids, thresholds)``: ``always[i]`` marks
    pairs whose user is the root (no cut can prune), and run ``i`` of the
    entries is the cut with the higher pruning probability of pair ``i`` --
    the source cut on a tie.  Probabilities multiply the entry factors in
    entry order, exactly as :meth:`EdgeCut.pruning_probability`.
    """
    always, source, target = cut_sides(block, users, graphs)
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


def build_edge_cut(rr_graph: RRGraph, user: int, rr_index: int, side: str) -> EdgeCut:
    """Build one of the two candidate cuts for ``user`` in ``rr_graph``.

    ``side="source"`` takes the user's out-edges stored in the RR-Graph
    (every stored vertex reaches the root, so any path leaves through one of
    them).  ``side="target"`` takes the root's in-edges whose sources are
    structurally reachable from the user.
    """
    if user == rr_graph.root:
        return EdgeCut(rr_index=rr_index, always_live=True)
    if side not in ("source", "target"):
        raise ValueError(f"side must be 'source' or 'target', got {side!r}")
    block = RRBlock.from_graphs([rr_graph])
    _, source, target = cut_sides(block, np.array([user]), np.zeros(1, np.int64))
    _, edge_ids, thresholds = source if side == "source" else target
    return EdgeCut(rr_index=rr_index, entries=list(zip(edge_ids.tolist(), thresholds.tolist())))


def choose_edge_cut(
    rr_graph: RRGraph,
    user: int,
    rr_index: int,
    max_probabilities: np.ndarray,
) -> EdgeCut:
    """Pick the candidate cut with the higher estimated pruning probability."""
    always, _, edge_ids, thresholds = choose_cuts(
        RRBlock.from_graphs([rr_graph]), np.array([user]), np.zeros(1, np.int64), max_probabilities
    )
    if always[0]:
        return EdgeCut(rr_index=rr_index, always_live=True)
    return EdgeCut(rr_index=rr_index, entries=list(zip(edge_ids.tolist(), thresholds.tolist())))


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

    def candidates(self, probabilities: np.ndarray) -> Tuple[Set[int], int]:
        """``(surviving RR-Graph indices, postings scanned)`` under ``probabilities``.

        A posting is kept when its edge is live and ``c(e) <= p(e|W)``.  The
        scan of a live edge stops at its first posting above ``p(e|W)``, so
        ``scanned`` counts the kept postings plus one for every live edge
        whose last posting lies above ``p(e|W)``.
        """
        probabilities = probabilities[self.edge_ids]
        live = probabilities > 0.0
        kept = live & (self.thresholds <= probabilities)
        scanned = int(np.count_nonzero(kept)) + int(
            np.count_nonzero(live & self.edge_last & ~kept)
        )
        candidates = set(self.always_candidates)
        candidates.update(self.rr_indices[kept].tolist())
        return candidates, scanned


def build_filter_tables(
    block: RRBlock,
    users: Sequence[int],
    graphs: Sequence[Sequence[int]],
    max_probabilities: np.ndarray,
) -> List[_UserFilterStructures]:
    """The inverted lists of every ``users[i]``'s chosen cuts in ``graphs[i]`` of ``block``.

    One vectorized pass over all (user, graph) pairs: :func:`choose_cuts`
    picks every cut, and one ``lexsort`` orders the postings of all users at
    once; each user's structures are slices of the result.  Pure function of
    the block and the maximum edge probabilities -- no RNG draws -- so
    building at freeze time (:mod:`repro.index.tables`) is bitwise-equivalent
    to building lazily on the first query.  Graphs whose chosen cut is empty
    cannot be reached and get no posting.
    """
    graph_lists = [np.asarray(user_graphs, dtype=np.int64) for user_graphs in graphs]
    pair_counts = np.array([len(user_graphs) for user_graphs in graph_lists], dtype=np.int64)
    pair_graphs = np.concatenate(graph_lists) if graph_lists else np.empty(0, np.int64)
    pair_slots = np.repeat(np.arange(len(graph_lists), dtype=np.int64), pair_counts)
    pair_users = np.asarray(users, dtype=np.int64)[pair_slots]
    always, indptr, edge_ids, thresholds = choose_cuts(
        block, pair_users, pair_graphs, max_probabilities
    )
    entry_counts = np.diff(indptr)
    rr_indices = np.repeat(pair_graphs, entry_counts)
    # A user's edges are ordered by first appearance (as a dict keyed by edge
    # fills up), so the kept postings fill the candidate set in a per-edge
    # scan's order.  First positions are global, so they also keep the
    # users apart and in order.
    first = _first_positions(
        np.repeat(pair_slots, entry_counts) * (int(edge_ids.max(initial=0)) + 1) + edge_ids
    )
    order = np.lexsort((rr_indices, thresholds, first))
    first = first[order]
    edge_last = np.ones(len(first), dtype=bool)
    np.not_equal(first[1:], first[:-1], out=edge_last[:-1])
    edge_ids, thresholds, rr_indices = edge_ids[order], thresholds[order], rr_indices[order]
    pair_bounds = indptr_from_counts(pair_counts)
    posting_bounds = indptr[pair_bounds].tolist()
    pair_bounds = pair_bounds.tolist()
    structures = []
    for slot in range(len(graph_lists)):
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
    """The inverted lists of ``user``'s chosen cuts in ``graphs`` of ``block``.

    The one-user case of :func:`build_filter_tables`.
    """
    return build_filter_tables(block, [user], [graphs], max_probabilities)[0]


class PrunedIndexEstimator(InfluenceEstimator):
    """``IndexEst+``: filter-and-verify estimation on top of the RR-Graph index.

    ``shared_structures`` (when given) is a read-only table of precomputed
    per-user filter structures owned by a frozen engine
    (:mod:`repro.index.tables`); users found there skip the lazy build, users
    absent fall back to the per-instance cache.
    """

    name = "indexest+"

    def __init__(
        self,
        graph: TopicSocialGraph,
        model: TagTopicModel,
        index: RRGraphIndex,
        budget: Optional[SampleBudget] = None,
        shared_structures: Optional[Dict[int, _UserFilterStructures]] = None,
    ) -> None:
        super().__init__(graph, model, budget)
        if index.graph is not graph:
            raise IndexNotBuiltError("the index was built for a different graph instance")
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

    def filter_candidates(
        self, user: int, edge_probabilities: Sequence[float]
    ) -> Tuple[Set[int], int]:
        """The filter step: RR-Graph indices that survive the cut test.

        Returns ``(candidates, postings_scanned)``.
        """
        probabilities = np.asarray(edge_probabilities, dtype=float)
        return self._structures_for(user).candidates(probabilities)

    # --------------------------------------------------------------- estimate
    def estimate_with_probabilities(
        self,
        user: int,
        edge_probabilities: Sequence[float],
        num_samples: Optional[int] = None,
    ) -> InfluenceEstimate:
        """Filter RR-Graphs with the cuts, verify survivors in one batched BFS."""
        candidates, scanned = self.filter_candidates(user, edge_probabilities)
        hits, checked = self.index.block().reach_many(user, list(candidates), edge_probabilities)
        value = int(hits.sum()) / float(self.index.num_samples) * self.graph.num_vertices
        return InfluenceEstimate(
            value=value,
            num_samples=len(candidates),
            edges_visited=scanned + checked,
            reachable_size=len(self.index.graphs_containing(user)),
            method=self.name,
        )

    def pruning_ratio(self, user: int, edge_probabilities: Sequence[float]) -> float:
        """Fraction of containing RR-Graphs eliminated by the filter step."""
        universe = self.index.graphs_containing(user)
        if not universe:
            return 0.0
        candidates, _ = self.filter_candidates(user, edge_probabilities)
        return 1.0 - len(candidates) / float(len(universe))
