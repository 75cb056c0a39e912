"""Reverse-Reachable (RR) set influence estimation.

``RRSample`` of Algorithm 1: a sample instance uniformly picks a vertex ``v``
from ``R_W(u)`` (the vertices structurally reachable from the query user), then
grows a *reverse* live-edge set from ``v``; the indicator of whether ``u`` lands
in that set, scaled by ``|R_W(u)|``, is an unbiased estimate of the spread.

The reverse growth probes every positive-probability in-edge of every reached
vertex, which is the inefficiency Example 3 / Fig. 3(b) highlights for
celebrity-style hubs.

The default ``kernel="csr"`` computes ``R_W(u)`` and every reverse world with
the vectorized CSR kernels (the sample targets for all ``theta_W`` instances
are drawn in one batch); ``kernel="dict"`` keeps the original per-edge walker
as the reference implementation the equivalence tests and the Fig. 12
speedup benchmark compare against.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.graph.algorithms import (
    reachable_vertices,
    reachable_with_probabilities,
    reverse_live_edge_reachable,
    reverse_live_edge_world,
)
from repro.exceptions import InvalidParameterError
from repro.graph.digraph import TopicSocialGraph
from repro.sampling.base import InfluenceEstimate, InfluenceEstimator, SampleBudget
from repro.topics.model import TagTopicModel
from repro.utils.rng import SeedLike, spawn_rng

_KERNELS = ("csr", "dict")


class ReverseReachableEstimator(InfluenceEstimator):
    """Reverse-reachable set sampling (the ``RR`` method of the paper)."""

    name = "rr"

    def __init__(
        self,
        graph: TopicSocialGraph,
        model: TagTopicModel,
        budget: Optional[SampleBudget] = None,
        seed: SeedLike = None,
        kernel: str = "csr",
    ) -> None:
        super().__init__(graph, model, budget)
        if kernel not in _KERNELS:
            raise InvalidParameterError(f"unknown kernel {kernel!r}; choose from {_KERNELS}")
        self._rng = spawn_rng(seed)
        self.kernel = kernel

    def estimate_with_probabilities(
        self,
        user: int,
        edge_probabilities: Sequence[float],
        num_samples: Optional[int] = None,
    ) -> InfluenceEstimate:
        """Average hit-indicator over ``theta_W`` reverse samples, scaled by ``|R_W(u)|``."""
        probabilities = np.asarray(edge_probabilities, dtype=float)
        if self.kernel == "csr":
            reachable = reachable_vertices(self.graph, user, probabilities)
        else:
            reachable = np.array(
                sorted(reachable_with_probabilities(self.graph, user, probabilities, kernel="dict")),
                dtype=np.int64,
            )
        reachable_size = len(reachable)
        if num_samples is None:
            num_samples = self.budget.online_samples(reachable_size)
        if reachable_size == 1:
            # Only the seed itself can ever be influenced.
            return InfluenceEstimate(
                value=1.0,
                num_samples=0,
                edges_visited=0,
                reachable_size=1,
                method=self.name,
            )

        hits = 0
        total_probes = 0
        if self.kernel == "csr":
            targets = reachable[self._rng.generator.integers(0, reachable_size, size=num_samples)]
            for target in targets:
                reached, probes = reverse_live_edge_world(
                    self.graph, int(target), probabilities, self._rng
                )
                total_probes += probes
                if reached[user]:
                    hits += 1
        else:
            uniform = self._rng.uniform
            for _ in range(num_samples):
                target = reachable[self._rng.integer(0, reachable_size)]
                reached, probes = reverse_live_edge_reachable(
                    self.graph, int(target), probabilities, uniform
                )
                total_probes += probes
                if user in reached:
                    hits += 1
        value = hits / float(num_samples) * reachable_size
        return InfluenceEstimate(
            value=value,
            num_samples=num_samples,
            edges_visited=total_probes,
            reachable_size=reachable_size,
            method=self.name,
        )

    def running_estimates(
        self,
        user: int,
        edge_probabilities: Sequence[float],
        checkpoints: Sequence[int],
    ) -> list:
        """Estimate values at increasing sample counts (Fig. 6 convergence sweep)."""
        probabilities = np.asarray(edge_probabilities, dtype=float)
        if self.kernel == "csr":
            reachable = reachable_vertices(self.graph, user, probabilities)
        else:
            reachable = np.array(
                sorted(reachable_with_probabilities(self.graph, user, probabilities, kernel="dict")),
                dtype=np.int64,
            )
        reachable_size = len(reachable)
        if reachable_size == 1:
            return [1.0 for _ in checkpoints]
        uniform = self._rng.uniform
        results = []
        hits = 0
        drawn = 0
        for checkpoint in checkpoints:
            while drawn < checkpoint:
                target = int(reachable[self._rng.integer(0, reachable_size)])
                if self.kernel == "csr":
                    reached_mask, _ = reverse_live_edge_world(
                        self.graph, target, probabilities, self._rng
                    )
                    if reached_mask[user]:
                        hits += 1
                else:
                    reached, _ = reverse_live_edge_reachable(
                        self.graph, target, probabilities, uniform
                    )
                    if user in reached:
                        hits += 1
                drawn += 1
            results.append(hits / float(drawn) * reachable_size)
        return results
