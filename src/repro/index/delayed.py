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

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.exceptions import IndexNotBuiltError
from repro.graph.algorithms import live_edge_world
from repro.graph.csr import csr_order, slice_positions
from repro.graph.digraph import TopicSocialGraph
from repro.index.pruning import _UserFilterStructures, build_filter_structures
from repro.index.rr_graph import RRBlock, RRGraph, sample_rr_arrays
from repro.sampling.base import InfluenceEstimate, InfluenceEstimator, SampleBudget
from repro.topics.model import TagTopicModel
from repro.utils.freeze import guard_check
from repro.utils.rng import RandomSource, SeedLike, spawn_rng
from repro.utils.timer import Stopwatch

SAMPLES_PER_CHUNK = 1024
"""RR-Graphs drawn per chunk while :meth:`DelayedMaterializationIndex.build` counts containment."""


class DelayedMaterializationIndex:
    """Offline phase of ``DelayMat``: count containment, store no graphs."""

    def __init__(self, graph: TopicSocialGraph, num_samples: int, seed: SeedLike = None) -> None:
        self.graph = graph
        self.num_samples = int(num_samples)
        self._rng = spawn_rng(seed)
        self.containment_counts: Dict[int, int] = {}
        self.build_seconds: float = 0.0
        self._built = False
        self._built_version: Optional[int] = None

    def build(self) -> "DelayedMaterializationIndex":
        """Sample ``theta`` RR-Graphs, record only per-user containment counts."""
        guard_check(self, "rebuild a frozen delayed-materialization index")
        watch = Stopwatch().start()
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
        self._built_version = self.graph.version
        watch.stop()
        self.build_seconds = watch.elapsed
        return self

    @property
    def is_built(self) -> bool:
        """Whether :meth:`build` has completed for the graph's *current* state.

        As for :class:`~repro.index.rr_index.RRGraphIndex`, a graph mutation
        after the build marks the counts stale and the index reports unbuilt.
        """
        return self._built and self._built_version == self.graph.version

    def _require_built(self) -> None:
        if not self._built:
            raise IndexNotBuiltError("DelayedMaterializationIndex.build() must be called first")
        if self._built_version != self.graph.version:
            raise IndexNotBuiltError(
                "the graph was mutated after DelayedMaterializationIndex.build(); rebuild the index"
            )

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
        the index's entire state (recovery is re-randomized at query time).
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
        built_version: Optional[int] = None,
        build_seconds: float = 0.0,
        seed: SeedLike = None,
    ) -> "DelayedMaterializationIndex":
        """Reassemble an index from :meth:`to_arrays` output.

        ``seed`` feeds the recovery RNG of the reloaded index.  Note that a
        *built* index's own RNG has already consumed draws during
        :meth:`build`, so same-seed built and loaded indexes do NOT recover
        identical RR-Graphs through their internal streams.  For bitwise
        reproducibility, pass an explicit seed at the estimator level
        instead: two :class:`DelayedIndexEstimator` instances constructed
        with the same ``seed`` over equal containment counts produce
        identical estimates (this is what the serving layer and the
        roundtrip tests rely on).

        ``arrays`` may be read-only ``numpy.memmap`` views (what
        :meth:`IndexStore.open_mapped` hands a process replica): the counts
        are copied into a plain dict and the mapped arrays are never
        mutated, so one mapped file can back many worker processes.
        """
        index = cls(graph, int(arrays["num_samples"][0]), seed=seed)
        users = np.asarray(arrays["containment_users"], dtype=np.int64)
        counts = np.asarray(arrays["containment_counts"], dtype=np.int64)
        index.containment_counts = {int(u): int(c) for u, c in zip(users, counts)}
        index._built = True
        index._built_version = graph.version if built_version is None else int(built_version)
        index.build_seconds = float(build_seconds)
        return index

    # ----------------------------------------------------------------- recover
    def recover_rr_graph(self, user: int, rng: Optional[RandomSource] = None) -> RRGraph:
        """Algorithm 4: recover one RR-Graph containing ``user``.

        All four steps run on the CSR arrays: the forward possible world is
        realized with one batched coin flip per frontier, the live edges are
        regrouped by target with one ``bincount`` / ``argsort`` pass for the
        reverse membership BFS, and the surviving ``c(e)`` values are re-drawn
        in a single batched uniform call.
        """
        if rng is None:
            guard_check(self, "draw from a frozen index's shared recovery RNG")
            rng = self._rng
        csr = self.graph.csr
        max_probabilities = self.graph.max_edge_probabilities()
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
            frontier = np.unique(fresh)
        members = set(np.flatnonzero(member_mask).tolist())
        # 4) re-draw c(e) uniformly in [0, p(e)) for kept edges between members.
        #    The recovered graph carries |V'| as an importance weight: the true
        #    conditional distribution of "an offline RR-Graph containing u"
        #    weights forward worlds proportionally to their activated size,
        #    while the Algorithm 4 proposal draws every world with its plain
        #    probability, so the self-normalized weight |V'| corrects the gap
        #    (see DESIGN.md, "DelayMat recovery weighting").
        rr_graph = RRGraph(root=root, vertices=members, recovery_weight=float(len(activated)))
        keep = member_mask[live_sources] & member_mask[live_targets]
        kept_edges = live_edges[keep]
        if kept_edges.size:
            thresholds = rng.uniforms_upto(max_probabilities[kept_edges])
            rr_graph.extend_edges(
                kept_edges, live_sources[keep], live_targets[keep], thresholds
            )
        return rr_graph

    def recover_for_user(self, user: int, rng: Optional[RandomSource] = None) -> List[RRGraph]:
        """Recover ``theta(u)`` RR-Graphs for ``user`` (query phase of DelayMat)."""
        count = self.containment_count(user)
        return [self.recover_rr_graph(user, rng) for _ in range(count)]


class DelayedIndexEstimator(InfluenceEstimator):
    """The ``DelayMat`` estimator: recover-then-match with optional cut pruning.

    The recovered graphs are cached per user, as one
    :class:`~repro.index.rr_graph.RRBlock`, so the many tag-set evaluations of
    one PITEX exploration pay the recovery cost only once -- mirroring the
    paper's query-phase behaviour where recovery happens once per query user
    -- and every evaluation matches all candidates in one batched BFS.

    ``shared_graphs`` / ``shared_filters`` (when given) are read-only per-user
    tables owned by a frozen engine (:mod:`repro.index.tables`): users found
    there skip recovery entirely, users absent fall back to the per-instance
    caches.  The tables are recovered from the engine's own label-derived
    streams, so every same-seed replica shares them bit for bit.
    """

    name = "delaymat"

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
        if index.graph is not graph:
            raise IndexNotBuiltError("the index was built for a different graph instance")
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
            block = RRBlock.from_graphs(self.index.recover_for_user(user, self._rng))
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
        """Recover (cached) RR-Graphs for the user and count live matches."""
        block = self._recovered_block(user)
        if not block.num_graphs:
            return InfluenceEstimate(
                value=0.0, num_samples=0, edges_visited=0, reachable_size=0, method=self.name
            )
        probabilities = np.asarray(edge_probabilities, dtype=float)
        if self.use_pruning:
            candidates, checked_edges = self._filter_for(user).candidates(probabilities)
        else:
            candidates, checked_edges = set(range(block.num_graphs)), 0
        order = list(candidates)
        hits, checked = block.reach_many(user, order, probabilities)
        # Self-normalized importance estimate of the conditional reach
        # probability; hit weights add up in candidate-iteration order.
        weights = block.weights
        total_weight = float(sum(weights))
        hit_weight = 0.0
        for position, hit in zip(order, hits.tolist()):
            if hit:
                hit_weight += weights[position]
        reach_fraction = hit_weight / total_weight if total_weight > 0 else 0.0
        containment_fraction = block.num_graphs / float(self.index.num_samples)
        value = containment_fraction * reach_fraction * self.graph.num_vertices
        return InfluenceEstimate(
            value=value,
            num_samples=len(candidates),
            edges_visited=checked_edges + checked,
            reachable_size=block.num_graphs,
            method=self.name,
        )

    def clear_cache(self) -> None:
        """Drop recovered graphs (e.g. between unrelated query batches)."""
        self._recovered.clear()
        self._filters.clear()
