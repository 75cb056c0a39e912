"""Monte-Carlo (forward live-edge) influence estimation.

``MCSample`` of Algorithm 1: each sample instance performs a forward BFS from
the query user, keeping each positive-probability edge alive with probability
``p(e|W)``; the realized spread is the number of reached vertices and the
estimate is the average over ``theta_W`` instances.  Every positive-probability
out-edge of every activated vertex is probed in every instance, which is the
inefficiency Example 2 / Fig. 3(a) of the paper highlights and the lazy sampler
removes.

The default ``kernel="csr"`` runs every sample instance as a frontier-at-a-time
BFS over the graph's cached CSR arrays with one batched coin flip per frontier;
``kernel="dict"`` keeps the original per-edge Python walker as the reference
implementation.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.graph.algorithms import (
    live_edge_reachable,
    live_edge_world,
    reachable_mask,
    reachable_with_probabilities,
)
from repro.exceptions import InvalidParameterError
from repro.graph.digraph import TopicSocialGraph
from repro.sampling.base import InfluenceEstimate, InfluenceEstimator, SampleBudget
from repro.topics.model import TagTopicModel
from repro.utils.rng import SeedLike, spawn_rng

_KERNELS = ("csr", "dict")


class MonteCarloEstimator(InfluenceEstimator):
    """Forward Monte-Carlo sampling (the ``MC`` method of the paper)."""

    name = "mc"

    def __init__(
        self,
        graph: TopicSocialGraph,
        model: TagTopicModel,
        budget: Optional[SampleBudget] = None,
        seed: SeedLike = None,
        compute_reachable: bool = True,
        kernel: str = "csr",
    ) -> None:
        super().__init__(graph, model, budget)
        if kernel not in _KERNELS:
            raise InvalidParameterError(f"unknown kernel {kernel!r}; choose from {_KERNELS}")
        self._rng = spawn_rng(seed)
        self._compute_reachable = compute_reachable
        self.kernel = kernel

    def estimate_with_probabilities(
        self,
        user: int,
        edge_probabilities: Sequence[float],
        num_samples: Optional[int] = None,
    ) -> InfluenceEstimate:
        """Average realized spread over ``theta_W`` forward live-edge samples."""
        probabilities = np.asarray(edge_probabilities, dtype=float)
        if self._compute_reachable or num_samples is None:
            if self.kernel == "csr":
                reachable_size = int(reachable_mask(self.graph, user, probabilities).sum())
            else:
                reachable_size = len(
                    reachable_with_probabilities(self.graph, user, probabilities, kernel="dict")
                )
        else:
            reachable_size = 0
        if num_samples is None:
            num_samples = self.budget.online_samples(reachable_size)

        total_spread = 0
        total_probes = 0
        if self.kernel == "csr":
            for _ in range(num_samples):
                activated, _, probes = live_edge_world(self.graph, user, probabilities, self._rng)
                total_spread += int(activated.sum())
                total_probes += probes
        else:
            uniform = self._rng.uniform
            for _ in range(num_samples):
                activated, probes = live_edge_reachable(self.graph, user, probabilities, uniform)
                total_spread += len(activated)
                total_probes += probes
        value = total_spread / float(num_samples)
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
        """Estimate values at increasing sample counts (Fig. 6 convergence sweep).

        ``checkpoints`` must be increasing; the samples are shared, i.e. the
        estimate at checkpoint ``c`` uses the first ``c`` sample instances.
        """
        probabilities = np.asarray(edge_probabilities, dtype=float)
        uniform = self._rng.uniform
        results = []
        total_spread = 0
        drawn = 0
        for checkpoint in checkpoints:
            while drawn < checkpoint:
                if self.kernel == "csr":
                    activated, _, _ = live_edge_world(self.graph, user, probabilities, self._rng)
                    total_spread += int(activated.sum())
                else:
                    activated_set, _ = live_edge_reachable(self.graph, user, probabilities, uniform)
                    total_spread += len(activated_set)
                drawn += 1
            results.append(total_spread / float(drawn))
        return results
