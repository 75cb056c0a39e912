"""Delayed materialization of RR-Graphs (Sec. 6.3, Algorithm 4, ``DelayMat``).

Materializing the full RR-Graph index costs memory proportional to the total
size of all sampled graphs (Table 3 shows gigabytes for the larger datasets).
Delayed materialization stores only, per user, *how many* of the offline
RR-Graphs contained that user (``theta(u)``) plus the global sample count
``theta``; at query time, ``theta(u)`` RR-Graphs containing the query user are
*recovered* with the Algorithm 4 procedure:

1. draw a forward live-edge sample from the user under the maximum edge
   probabilities ``p(e)`` (the lazy sampler provides this);
2. uniformly pick a root ``v'`` among the activated vertices;
3. keep the activated vertices that reach ``v'`` through the live edges, and
4. re-draw each kept edge's ``c(e)`` uniformly in ``[0, p(e))``.

Theorem 3 shows the recovered graphs follow the same distribution as the
offline RR-Graphs conditioned on containing the user, so the estimate keeps the
Algorithm 3 guarantee while the stored index shrinks to one counter per user.
"""

from __future__ import annotations

import itertools
import threading
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import IndexError_, IndexNotBuiltError
from repro.graph.algorithms import live_edge_world
from repro.graph.csr import csr_order, indptr_from_counts, slice_positions, sorted_distinct
from repro.graph.digraph import TopicSocialGraph
from repro.index.pruning import _UserFilterStructures, build_filter_structures
from repro.index.rr_graph import RRBlock, sample_rr_arrays
from repro.obs.clock import monotonic
from repro.sampling.base import (
    InfluenceEstimate,
    InfluenceEstimator,
    SampleBudget,
    probability_matrix,
)
from repro.topics.model import TagTopicModel
from repro.utils.rng import RandomSource, SeedLike, spawn_rng

SAMPLES_PER_CHUNK = 1024
"""RR-Graphs drawn per chunk while :meth:`DelayedMaterializationIndex.build` counts containment."""


class DelayedMaterializationIndex:
    """Offline phase of ``DelayMat``: count containment, store no graphs."""

    def __init__(self, graph: TopicSocialGraph, num_samples: int, seed: SeedLike = None) -> None:
        self.graph = graph.snapshot()
        self.num_samples = int(num_samples)
        self._rng = spawn_rng(seed)
        self.containment_counts: Dict[int, int] = {}
        self.build_seconds: float = 0.0
        self._built = False
        # Held for good by the one build() or from_arrays() that fills the index.
        self._fill_once = threading.Lock()

    def build(self) -> "DelayedMaterializationIndex":
        """Sample ``theta`` RR-Graphs, record only per-user containment counts.

        An index is filled once: a second ``build()``, or one on an index
        from :meth:`from_arrays`, raises :class:`~repro.exceptions.IndexError_`.
        """
        if not self._fill_once.acquire(blocking=False):
            raise IndexError_("a DelayedMaterializationIndex builds once; this one is already built or loaded")
        started = monotonic()
        max_probabilities = self.graph.max_edge_probabilities()
        counts = np.zeros(self.graph.num_vertices, dtype=np.int64)
        # Samples are drawn in bounded chunks: the RNG runs in the same order
        # as one long run, and only one chunk's graphs are held at a time.
        for start in range(0, self.num_samples, SAMPLES_PER_CHUNK):
            size = min(SAMPLES_PER_CHUNK, self.num_samples - start)
            arrays = sample_rr_arrays(self.graph, size, self._rng, max_probabilities)
            counts += np.bincount(arrays["vertex_ids"], minlength=len(counts))
        users = np.flatnonzero(counts)
        self.containment_counts = dict(zip(users.tolist(), counts[users].tolist()))
        self._built = True
        self.build_seconds = monotonic() - started
        return self

    @property
    def is_built(self) -> bool:
        """Whether :meth:`build` (or :meth:`from_arrays`) has completed."""
        return self._built

    def _require_built(self) -> None:
        if not self._built:
            raise IndexNotBuiltError("DelayedMaterializationIndex.build() must be called first")

    def containment_count(self, user: int) -> int:
        """``theta(u)``: number of offline RR-Graphs that contained ``user``."""
        self._require_built()
        return self.containment_counts.get(user, 0)

    def memory_bytes(self) -> int:
        """Footprint: one integer per user with non-zero containment."""
        self._require_built()
        return 16 * len(self.containment_counts)

    # -------------------------------------------------------------- serialize
    def to_arrays(self) -> Dict[str, np.ndarray]:
        """The per-user containment counters as two parallel arrays.

        Users are sorted so the serialized form is canonical; the counts are
        the index's entire state (recovery draws from the caller's stream at
        query time).
        """
        self._require_built()
        users = np.array(sorted(self.containment_counts), dtype=np.int64)
        counts = np.array([self.containment_counts[int(u)] for u in users], dtype=np.int64)
        return {
            "containment_users": users,
            "containment_counts": counts,
            "num_samples": np.array([self.num_samples], dtype=np.int64),
        }

    @classmethod
    def from_arrays(
        cls,
        graph: TopicSocialGraph,
        arrays: Dict[str, np.ndarray],
        build_seconds: float = 0.0,
    ) -> "DelayedMaterializationIndex":
        """Reassemble an index of ``graph``'s current version from :meth:`to_arrays` output.

        Recovery draws only from the stream each caller passes, so two
        :class:`DelayedIndexEstimator` instances with the same ``seed`` over
        equal containment counts produce identical estimates, whether their
        index was built or loaded.

        ``arrays`` may be read-only ``numpy.memmap`` views (what an
        :class:`IndexStore` load with ``mmap=True`` hands a process replica): the counts
        are copied into a plain dict and the mapped arrays are never
        mutated, so one mapped file can back many worker processes.
        """
        index = cls(graph, int(arrays["num_samples"][0]))
        index._fill_once.acquire()
        users = np.asarray(arrays["containment_users"], dtype=np.int64)
        counts = np.asarray(arrays["containment_counts"], dtype=np.int64)
        index.containment_counts = {int(u): int(c) for u, c in zip(users, counts)}
        index._built = True
        index.build_seconds = float(build_seconds)
        return index

    # ----------------------------------------------------------------- recover
    def recover_for_user(
        self, user: int, rng: RandomSource
    ) -> Tuple[Dict[str, np.ndarray], List[float]]:
        """Recover ``theta(u)`` RR-Graphs for ``user`` (query phase of DelayMat).

        Returns the graphs in the flat layout of
        :data:`~repro.index.rr_graph.RR_ARRAY_LAYOUT` and, per graph, its
        recovery weight.  Graph after graph, the draws from ``rng`` run in
        Algorithm 4's order: the forward world, the root, then the ``c(e)``
        of the kept edges.  Members are sorted within each graph and kept
        edges follow the forward world's live-edge order.
        """
        csr = self.graph.csr
        max_probabilities = self.graph.max_edge_probabilities()
        count = self.containment_count(user)
        roots = np.empty(count, dtype=np.int64)
        members, edges, thresholds, weights = [], [], [], []
        for position in range(count):
            root, graph_members, kept_edges, kept_thresholds, weight = self._recover_graph(
                user, rng, max_probabilities
            )
            roots[position] = root
            members.append(graph_members)
            edges.append(kept_edges)
            thresholds.append(kept_thresholds)
            weights.append(weight)
        edge_ids = np.concatenate([np.empty(0, dtype=np.int64), *edges])
        arrays = {
            "roots": roots,
            "vertex_indptr": indptr_from_counts([part.size for part in members]),
            "vertex_ids": np.concatenate([np.empty(0, dtype=np.int64), *members]),
            "edge_indptr": indptr_from_counts([part.size for part in edges]),
            "edge_ids": edge_ids,
            "edge_sources": csr.edge_sources[edge_ids],
            "edge_targets": csr.edge_targets[edge_ids],
            "edge_thresholds": np.concatenate([np.empty(0, dtype=np.float64), *thresholds]),
        }
        return arrays, weights

    def _recover_graph(
        self, user: int, rng: RandomSource, max_probabilities: np.ndarray
    ) -> Tuple[int, np.ndarray, np.ndarray, np.ndarray, float]:
        """Algorithm 4 for one RR-Graph containing ``user``, on the CSR arrays.

        Returns ``(root, members, kept edge ids, their c(e), weight)``.  The
        forward possible world is realized with one batched coin flip per
        frontier, the live edges are regrouped by target with one
        ``bincount`` / ``argsort`` pass for the reverse membership BFS, and
        the kept ``c(e)`` values are re-drawn in a single batched uniform call.
        """
        csr = self.graph.csr
        # 1) forward live-edge sample from the user under p(e).
        activated_mask, live_edges, _ = live_edge_world(
            self.graph, user, max_probabilities, rng, collect_edges=True
        )
        activated = np.flatnonzero(activated_mask)
        # 2) uniform root among the activated vertices.
        root = int(activated[rng.integer(0, len(activated))])
        # 3) keep activated vertices that reach the root through live edges
        #    (every live edge has both endpoints activated by construction).
        live_sources = csr.edge_sources[live_edges]
        live_targets = csr.edge_targets[live_edges]
        by_target_indptr, by_target_order = csr_order(live_targets, csr.num_vertices)
        member_mask = np.zeros(csr.num_vertices, dtype=bool)
        member_mask[root] = True
        frontier = np.array([root], dtype=np.int64)
        while frontier.size:
            positions = slice_positions(by_target_indptr, frontier)
            if not positions.size:
                break
            sources = live_sources[by_target_order[positions]]
            fresh = sources[~member_mask[sources]]
            if not fresh.size:
                break
            member_mask[fresh] = True
            frontier = sorted_distinct(fresh)
        # 4) re-draw c(e) uniformly in [0, p(e)) for kept edges between members.
        #    The recovered graph carries |V'| as an importance weight: the true
        #    conditional distribution of "an offline RR-Graph containing u"
        #    weights forward worlds proportionally to their activated size,
        #    while the Algorithm 4 proposal draws every world with its plain
        #    probability, so the self-normalized weight |V'| corrects the gap.
        kept_edges = live_edges[member_mask[live_sources] & member_mask[live_targets]]
        thresholds = np.empty(0, dtype=np.float64)
        if kept_edges.size:
            thresholds = rng.uniforms_upto(max_probabilities[kept_edges])
        members = np.flatnonzero(member_mask)
        return root, members, kept_edges, thresholds, float(len(activated))


class DelayedIndexEstimator(InfluenceEstimator):
    """The ``DelayMat`` estimator: recover-then-match with optional cut pruning.

    The recovered graphs are cached per user, as one
    :class:`~repro.index.rr_graph.RRBlock`, so the many tag-set evaluations of
    one PITEX exploration pay the recovery cost only once -- mirroring the
    paper's query-phase behaviour where recovery happens once per query user
    -- and every batch of evaluations matches all its (row, candidate) pairs
    in one batched BFS.  Hit weights still add up per row in the iteration
    order of that row's candidate set, which fixes the last bits of the value.

    ``shared_graphs`` / ``shared_filters`` (when given) are read-only per-user
    tables owned by a frozen engine (:mod:`repro.index.tables`): users found
    there skip recovery entirely, users absent fall back to the per-instance
    caches.  The tables are recovered from the engine's own label-derived
    streams, so every same-seed replica shares them bit for bit.
    """

    name = "delaymat"
    pure_estimates = True

    def __init__(
        self,
        graph: TopicSocialGraph,
        model: TagTopicModel,
        index: DelayedMaterializationIndex,
        budget: Optional[SampleBudget] = None,
        use_pruning: bool = True,
        seed: SeedLike = None,
        shared_graphs: Optional[Dict[int, RRBlock]] = None,
        shared_filters: Optional[Dict[int, _UserFilterStructures]] = None,
    ) -> None:
        super().__init__(graph, model, budget)
        if index.graph is not self.graph:
            raise IndexNotBuiltError("the index was built for another graph or graph version")
        self.index = index
        self.use_pruning = use_pruning
        self._rng = spawn_rng(seed)
        self._shared_graphs = shared_graphs
        self._shared_filters = shared_filters
        self._recovered: Dict[int, RRBlock] = {}
        self._filters: Dict[int, _UserFilterStructures] = {}

    # ---------------------------------------------------------------- recover
    def _recovered_block(self, user: int) -> RRBlock:
        if self._shared_graphs is not None:
            shared = self._shared_graphs.get(user)
            if shared is not None:
                return shared
        block = self._recovered.get(user)
        if block is None:
            block = RRBlock(*self.index.recover_for_user(user, self._rng))
            self._recovered[user] = block
        return block

    def _filter_for(self, user: int) -> _UserFilterStructures:
        if self._shared_filters is not None:
            shared = self._shared_filters.get(user)
            if shared is not None:
                return shared
        cached = self._filters.get(user)
        if cached is not None:
            return cached
        block = self._recovered_block(user)
        filters = build_filter_structures(
            block, user, range(block.num_graphs), self.graph.max_edge_probabilities()
        )
        self._filters[user] = filters
        return filters

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
        """Recover (cached) RR-Graphs for the user and count live matches under every row.

        With pruning, one :meth:`_UserFilterStructures.scan` filters all
        rows; each row's candidates form a set filled as the one-row filter
        fills it.  Every (row, candidate) pair is verified in one
        :meth:`~repro.index.rr_graph.RRBlock.reach_pairs` BFS.  The hit
        weights of a row add up in the iteration order of its candidate set,
        exactly as a one-row estimate adds them, so every estimate is bit for
        bit the one-row estimate of its row.  ``num_samples`` is ignored.
        """
        rows = probability_matrix(self.graph, edge_probability_rows)
        block = self._recovered_block(user)
        if not block.num_graphs:
            return [
                InfluenceEstimate(value=0.0, num_samples=0, edges_visited=0, reachable_size=0, method=self.name)
                for _ in range(len(rows))
            ]
        if self.use_pruning:
            structures = self._filter_for(user)
            kept_rows, graphs, scanned = structures.scan(rows)
            bounds = kept_rows.searchsorted(np.arange(len(rows) + 1)).tolist()
            orders = [
                list(structures.candidate_set(graphs[lo:hi]))
                for lo, hi in zip(bounds[:-1], bounds[1:])
            ]
            scanned = scanned.tolist()
        else:
            orders = [list(range(block.num_graphs))] * len(rows)
            scanned = [0] * len(rows)
        counts = [len(order) for order in orders]
        pair_rows = np.repeat(np.arange(len(rows), dtype=np.int64), counts)
        pair_graphs = np.fromiter(itertools.chain.from_iterable(orders), np.int64, sum(counts))
        hits, checked = block.reach_pairs(user, rows, pair_rows, pair_graphs)
        hits = hits.tolist()
        weights = block.weights
        total_weight = float(sum(weights))
        containment_fraction = block.num_graphs / float(self.index.num_samples)
        estimates = []
        start = 0
        for order, row_scanned, row_checked in zip(orders, scanned, checked.tolist()):
            # Self-normalized importance estimate of the conditional reach
            # probability; hit weights add up in candidate-iteration order.
            hit_weight = 0.0
            for position, hit in zip(order, hits[start : start + len(order)]):
                if hit:
                    hit_weight += weights[position]
            start += len(order)
            reach_fraction = hit_weight / total_weight if total_weight > 0 else 0.0
            value = containment_fraction * reach_fraction * self.graph.num_vertices
            estimates.append(
                InfluenceEstimate(
                    value=value,
                    num_samples=len(order),
                    edges_visited=row_scanned + row_checked,
                    reachable_size=block.num_graphs,
                    method=self.name,
                )
            )
        return estimates
