"""Lazy propagation sampling (Algorithm 2 of the paper).

Plain Monte-Carlo probes every positive-probability out-edge of every activated
vertex in every sample instance, even though sparse influence graphs make most
probes fail.  Lazy propagation turns the per-instance Bernoulli trial of an
edge into a *schedule*: a geometric random variable tells after how many visits
of the source vertex the edge will fire next, so unsuccessful probes are never
executed at all.  Lemma 6 shows the two processes are statistically identical.

The per-vertex schedules (:class:`~repro.utils.heap.LazyEdgeHeap`) persist
across the ``theta_W`` sample instances of one estimation, which is exactly
where the savings come from -- the expected number of edge events per instance
drops from ``|E_W(u)| * E[I(u -> v_out)]`` to ``|R_W(u)| * E[I(u -> v*)]``
(Lemma 5 vs Lemma 7).

All ``theta_W`` instances of one estimation share the same probability array,
so the hot path is batched on top of the graph's CSR view: a vertex schedule
is created from two array slices (edge ids, targets) plus one vectorized
geometric draw for its whole out-neighbourhood, instead of one dict probe and
one Python-level geometric call per edge.

Three kernels are provided:

* ``"batched"`` -- the array-backed multi-instance event queue
  (:class:`~repro.utils.heap.BatchedEventQueue`): all ``theta_W`` instances of
  one estimation advance frontier-at-a-time *simultaneously*, one numpy round
  per BFS level across the whole instance batch, with rescheduling done as
  batched geometric redraws.  The fastest kernel; also powers the best-effort
  explorer's batched child-bound estimation
  (:meth:`LazyPropagationEstimator.estimate_many_with_probabilities`).
* ``"csr"`` -- per-instance BFS with vertex schedules built from CSR slices
  and batched initial draws, but one Python ``LazyEdgeHeap.visit`` per
  activation (the PR-2 kernel).
* ``"dict"`` -- the per-edge reference walker (one dict probe and one scalar
  geometric per edge), kept for equivalence testing.

Before the batched kernel draws a sample it sizes every world's budget by
``theta_W(|R_W(u)|)``.  The ``|R_W(u)|`` of all worlds come from
:func:`~repro.graph.algorithms.reachable_counts`, a bit-parallel BFS with one
``uint64`` world mask per edge and per vertex (64 worlds per pass, memory
``O(|V| + |E|)``); an estimator sizes each open-edge pattern once.  Within a
chunk, the ``(instance, vertex)`` keys that fire in one round are deduplicated
by :func:`~repro.graph.csr.sorted_distinct` (an in-place sort plus an
adjacent-difference mask), which yields the same sorted keys as
``np.unique``.  Neither step draws a random number.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.graph.algorithms import (
    reachable_counts,
    reachable_mask,
    reachable_with_probabilities,
)
from repro.exceptions import InvalidParameterError
from repro.graph.csr import sorted_distinct
from repro.graph.digraph import TopicSocialGraph
from repro.sampling.base import (
    InfluenceEstimate,
    InfluenceEstimator,
    SampleBudget,
    probability_matrix,
)
from repro.topics.model import TagTopicModel
from repro.utils.heap import BatchedEventQueue, LazyEdgeHeap
from repro.utils.memo import memoized_many
from repro.utils.rng import RandomSource, SeedLike, spawn_rng
from repro.utils.stats import log_binomial

LAZY_KERNELS = ("batched", "csr", "dict")


class LazyPropagationEstimator(InfluenceEstimator):
    """Lazy propagation sampling (the ``LAZY`` method of the paper).

    Parameters
    ----------
    graph, model, budget:
        As for every :class:`~repro.sampling.base.InfluenceEstimator`.
    seed:
        Random seed.
    early_stopping:
        Enable the Algorithm 2 line-17 style early termination: once the total
        number of observed activations is large enough, the relative error of
        the running mean is already within the ``(1 ± eps)`` band with the
        required probability (martingale stopping rule of Tang et al.), so the
        remaining instances can be skipped.
    kernel:
        ``"batched"`` advances all sample instances of one estimation through
        a single :class:`~repro.utils.heap.BatchedEventQueue` (the fastest
        path); ``"csr"`` (default) builds per-vertex schedules on the CSR
        arrays with batched draws but walks instances one at a time; ``"dict"``
        keeps the per-edge reference path (dict adjacency probes, one scalar
        geometric per edge).  All three draw from the same statistical process
        (Lemma 6), so estimates agree in distribution but not per-seed.
    batch_size:
        Instances advanced together per chunk of the batched kernel.  Chunking
        bounds the ``instances x vertices`` visited bitmap and gives the
        early-stopping rule a checkpoint between chunks (the sequential
        kernels check after every instance; every counted instance still runs
        to completion, so the estimate stays unbiased either way).  ``None``
        (default) sizes chunks adaptively so the bitmap stays around
        :data:`VISITED_CELL_BUDGET` cells: small graphs batch the whole
        ``theta_W`` at once, large graphs stay memory-bounded.
    """

    name = "lazy"

    #: Cap (in bool cells) on the batched kernel's per-chunk visited bitmap.
    VISITED_CELL_BUDGET = 32_000_000

    def __init__(
        self,
        graph: TopicSocialGraph,
        model: TagTopicModel,
        budget: Optional[SampleBudget] = None,
        seed: SeedLike = None,
        early_stopping: bool = True,
        kernel: str = "csr",
        batch_size: Optional[int] = None,
    ) -> None:
        super().__init__(graph, model, budget)
        if kernel not in LAZY_KERNELS:
            raise InvalidParameterError(f"unknown kernel {kernel!r}; choose from {LAZY_KERNELS}")
        self._rng = spawn_rng(seed)
        self.early_stopping = early_stopping
        self.kernel = kernel
        self.batch_size = max(1, int(batch_size)) if batch_size is not None else None
        # (user, packed open-edge bits) -> |R_W(user)|.
        self._sizes: Dict[Tuple[int, bytes], int] = {}
        if kernel == "batched":
            # Distinct method label so Fig. 13-style instrumentation and the
            # engine can track the batched series next to the csr/dict lazy one.
            self.name = "lazy-batched"

    def _chunk_size(self, instance_rows: int = 1) -> int:
        """Instances advanced per chunk (per parallel row of instances)."""
        if self.batch_size is not None:
            return self.batch_size
        cells = max(1, self.graph.num_vertices * max(1, instance_rows))
        return max(64, self.VISITED_CELL_BUDGET // cells)

    # ------------------------------------------------------------------ core
    def _stop_threshold(self) -> float:
        """Total-activation count at which the running estimate is already accurate."""
        budget = self.budget
        log_candidates = log_binomial(budget.num_tags, min(budget.k, budget.num_tags))
        lam = (2.0 + budget.epsilon) / (budget.epsilon**2) * (
            math.log(budget.delta) + log_candidates + math.log(2.0)
        )
        return (1.0 + budget.epsilon) * lam

    def _make_schedule(
        self, vertex: int, probabilities: np.ndarray, rng: RandomSource
    ) -> LazyEdgeHeap:
        """Build one vertex's lazy schedule.

        On the CSR kernel the whole out-neighbourhood is materialized with two
        array slices and its first-fire visit counts with one batched geometric
        draw; the dict kernel probes the adjacency per edge with one scalar
        geometric each, as the original implementation did.
        """
        if self.kernel == "dict":
            neighbors = []
            neighbor_probabilities = []
            # borrowed read-only adjacency, matching the original zero-copy path
            for edge_id in self.graph._out[vertex]:
                probability = probabilities[edge_id]
                if probability <= 0.0:
                    continue
                _, target = self.graph.edge_endpoints(edge_id)
                neighbors.append(target)
                neighbor_probabilities.append(float(probability))
            return LazyEdgeHeap(neighbors, neighbor_probabilities, rng.geometric)
        edge_ids, targets = self.graph.csr.out_slice(vertex)
        edge_probabilities = probabilities[edge_ids]
        positive = edge_probabilities > 0.0
        neighbors = targets[positive]
        neighbor_probabilities = edge_probabilities[positive]
        fires = rng.geometric_array(neighbor_probabilities)
        return LazyEdgeHeap(
            neighbors.tolist(),
            neighbor_probabilities.tolist(),
            rng.geometric,
            initial_fires=fires.tolist(),
        )

    def _reachable_size(self, user: int, probabilities: np.ndarray) -> int:
        if self.kernel == "dict":
            return len(reachable_with_probabilities(self.graph, user, probabilities, kernel="dict"))
        return int(reachable_mask(self.graph, user, probabilities).sum())

    def _reachable_sizes(self, user: int, rows: np.ndarray) -> np.ndarray:
        """``|R_W(user)|`` of every row, each open-edge pattern sized once per instance.

        A size is structural reachability over the row's open (``> 0``)
        edges, so it is a pure function of the user and the packed pattern,
        and is memoized by ``(user, np.packbits(rows > 0))``; the estimator
        pins one graph version, so the key is exact.  The patterns not sized
        before go to one
        :func:`~repro.graph.algorithms.reachable_counts` call.
        """
        sizes = memoized_many(
            self._sizes,
            [(user, bits.tobytes()) for bits in np.packbits(rows > 0.0, axis=1)],
            range(len(rows)),
            lambda missing: reachable_counts(self.graph, user, rows[missing]).tolist(),
        )
        return np.array(sizes, dtype=np.int64)

    # ------------------------------------------------------------ batched core
    def _make_queue(self, world_probabilities: np.ndarray) -> BatchedEventQueue:
        """One event queue over the graph's CSR arrays, one row per world."""
        csr = self.graph.csr
        return BatchedEventQueue(
            csr.out_indptr, csr.out_targets, csr.out_edge_ids, world_probabilities, self._rng
        )

    def _run_batched_chunk(
        self,
        queue: BatchedEventQueue,
        user: int,
        sizes: np.ndarray,
        worlds: np.ndarray,
    ) -> np.ndarray:
        """Run ``sizes[i]`` fresh instances of ``worlds[i]`` to completion.

        All instances advance together, one :meth:`BatchedEventQueue.advance`
        call per BFS level of the whole batch.  Returns per-world activation
        counts (indexed by world id, zeros for worlds not in ``worlds``);
        schedules persist on ``queue`` across chunks exactly like the shared
        :class:`LazyEdgeHeap` schedules of the sequential kernels.
        """
        num_vertices = self.graph.num_vertices
        sizes = np.asarray(sizes, dtype=np.int64)
        num_rows = int(sizes.sum())
        world_of_row = np.asarray(worlds, dtype=np.int64).repeat(sizes)
        single_world = queue.num_worlds == 1
        # Flat (instance-row x vertex) visited bitmap, indexed by row*V + vertex.
        visited = np.zeros(num_rows * num_vertices, dtype=bool)
        rows = np.arange(num_rows, dtype=np.int64)
        vertices = np.full(num_rows, user, dtype=np.int64)
        visited[rows * num_vertices + user] = True
        activations = np.zeros(queue.num_worlds, dtype=np.int64)
        while rows.size:
            world_ids = world_of_row[rows]
            if single_world:
                activations[0] += rows.size
            else:
                activations += np.bincount(world_ids, minlength=queue.num_worlds)
            keys, fired_targets = queue.advance(world_ids, rows, vertices)
            if not keys.size:
                break
            keys *= num_vertices
            keys += fired_targets
            # Distinct edges can fire into the same (instance, target) pair in
            # one round; dedupe on the flattened pair key.  The sorted
            # distinct keys make the next round's frontier order deterministic.
            fresh = visited[keys]
            np.logical_not(fresh, out=fresh)
            keys = sorted_distinct(keys[fresh])
            visited[keys] = True
            rows, vertices = np.divmod(keys, num_vertices)
        return activations

    def _estimate_batched(
        self, user: int, probabilities: np.ndarray, num_samples: Optional[int]
    ) -> InfluenceEstimate:
        """``estimate_with_probabilities`` on the multi-instance event queue.

        One estimation is the one-world case of the multi-world path, so the
        chunking / early-stopping policy lives in exactly one place.
        """
        return self.estimate_many_with_probabilities(user, probabilities[None, :], num_samples)[0]

    def estimate_many_with_probabilities(
        self,
        user: int,
        edge_probability_rows: Sequence[Sequence[float]],
        num_samples: Optional[int] = None,
    ) -> list:
        """Estimate one user's spread under several probability assignments.

        On the batched kernel every row becomes one *world* of a single shared
        :class:`~repro.utils.heap.BatchedEventQueue`, so the whole candidate
        batch advances through one frontier loop (the best-effort explorer uses
        this for the upper bounds of all children of one expansion); other
        kernels fall back to one independent estimation per row.
        """
        # A float matrix is used in place; a list of rows is stacked once.
        rows = probability_matrix(self.graph, edge_probability_rows)
        if self.kernel != "batched":
            return super().estimate_many_with_probabilities(user, rows, num_samples)
        num_worlds = len(rows)
        reachable = self._reachable_sizes(user, rows)
        budgets = np.array(
            [
                num_samples if num_samples is not None else self.budget.online_samples(int(size))
                for size in reachable
            ],
            dtype=np.int64,
        )
        stop_threshold = self._stop_threshold() if self.early_stopping else math.inf
        queue = self._make_queue(rows)
        total_activations = np.zeros(num_worlds, dtype=np.int64)
        instances_run = np.zeros(num_worlds, dtype=np.int64)
        remaining = budgets.copy()
        remaining[reachable == 1] = 0  # spread is exactly 1, no sampling needed
        while True:
            active = np.flatnonzero(remaining > 0)
            if not active.size:
                break
            chunk_cap = self._chunk_size(len(active))
            if self.early_stopping:
                # Rate-adapted per-world chunks (see _estimate_batched): first
                # round probes with a small chunk, later rounds aim just past
                # each world's projected stopping point.
                rates = np.maximum(
                    total_activations[active]
                    / np.maximum(instances_run[active], 1).astype(float),
                    1.0,
                )
                needed = (stop_threshold - total_activations[active]) / rates
                sizes = np.where(
                    instances_run[active] > 0,
                    np.minimum(chunk_cap, np.maximum(8, (needed * 1.25).astype(np.int64) + 1)),
                    min(chunk_cap, 64),
                )
            else:
                sizes = np.full(len(active), chunk_cap, dtype=np.int64)
            sizes = np.minimum(sizes, remaining[active])
            counts = self._run_batched_chunk(queue, user, sizes, active)
            total_activations[active] += counts[active]
            instances_run[active] += sizes
            remaining[active] -= sizes
            remaining[total_activations >= stop_threshold] = 0
        estimates = []
        for world in range(num_worlds):
            if reachable[world] == 1:
                estimates.append(
                    InfluenceEstimate(
                        value=1.0,
                        num_samples=0,
                        edges_visited=0,
                        reachable_size=1,
                        method=self.name,
                        kernel=self.kernel,
                    )
                )
                continue
            estimates.append(
                InfluenceEstimate(
                    value=float(total_activations[world]) / float(instances_run[world]),
                    num_samples=int(instances_run[world]),
                    edges_visited=queue.edge_visits(world),
                    reachable_size=int(reachable[world]),
                    method=self.name,
                    kernel=self.kernel,
                )
            )
        return estimates

    def estimate_with_probabilities(
        self,
        user: int,
        edge_probabilities: Sequence[float],
        num_samples: Optional[int] = None,
    ) -> InfluenceEstimate:
        """Run ``theta_W`` lazy sample instances (possibly fewer with early stopping)."""
        probabilities = np.asarray(edge_probabilities, dtype=float)
        if self.kernel == "batched":
            return self._estimate_batched(user, probabilities, num_samples)
        reachable_size = self._reachable_size(user, probabilities)
        if num_samples is None:
            num_samples = self.budget.online_samples(reachable_size)
        if reachable_size == 1:
            return InfluenceEstimate(
                value=1.0,
                num_samples=0,
                edges_visited=0,
                reachable_size=1,
                method=self.name,
                kernel=self.kernel,
            )

        schedules: Dict[int, LazyEdgeHeap] = {}
        edges_visited = 0
        total_activations = 0
        stop_threshold = self._stop_threshold() if self.early_stopping else math.inf
        instances_run = 0

        for _ in range(num_samples):
            instances_run += 1
            visited = {user}
            frontier = deque([user])
            while frontier:
                vertex = frontier.popleft()
                total_activations += 1
                schedule = schedules.get(vertex)
                if schedule is None:
                    schedule = self._make_schedule(vertex, probabilities, self._rng)
                    schedules[vertex] = schedule
                    edges_visited += schedule.pending()
                fired = schedule.visit()
                edges_visited += len(fired)
                for neighbor in fired:
                    if neighbor not in visited:
                        visited.add(neighbor)
                        frontier.append(neighbor)
            if total_activations >= stop_threshold:
                break

        value = total_activations / float(instances_run)
        return InfluenceEstimate(
            value=value,
            num_samples=instances_run,
            edges_visited=edges_visited,
            reachable_size=reachable_size,
            method=self.name,
            kernel=self.kernel,
        )

    # ------------------------------------------------------------ convergence
    def running_estimates(
        self,
        user: int,
        edge_probabilities: Sequence[float],
        checkpoints: Sequence[int],
    ) -> list:
        """Estimate values at increasing sample counts (Fig. 6 convergence sweep)."""
        probabilities = np.asarray(edge_probabilities, dtype=float)
        if self.kernel == "batched":
            queue = self._make_queue(probabilities[None, :])
            results = []
            total_activations = 0
            drawn = 0
            chunk = self._chunk_size()
            for checkpoint in checkpoints:
                while drawn < checkpoint:
                    size = min(chunk, checkpoint - drawn)
                    counts = self._run_batched_chunk(
                        queue, user, np.array([size]), np.array([0])
                    )
                    total_activations += int(counts[0])
                    drawn += size
                results.append(total_activations / float(drawn))
            return results
        schedules: Dict[int, LazyEdgeHeap] = {}
        results = []
        total_activations = 0
        drawn = 0
        for checkpoint in checkpoints:
            while drawn < checkpoint:
                visited = {user}
                frontier = deque([user])
                while frontier:
                    vertex = frontier.popleft()
                    total_activations += 1
                    schedule = schedules.get(vertex)
                    if schedule is None:
                        schedule = self._make_schedule(vertex, probabilities, self._rng)
                        schedules[vertex] = schedule
                    fired = schedule.visit()
                    for neighbor in fired:
                        if neighbor not in visited:
                            visited.add(neighbor)
                            frontier.append(neighbor)
                drawn += 1
            results.append(total_activations / float(drawn))
        return results
