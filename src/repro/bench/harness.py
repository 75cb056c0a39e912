"""Dataset / engine caching and query-batch execution for the benchmarks.

Every experiment needs the same ingredients: generate (once) the synthetic
analogue of each dataset, build (once) the offline indexes, then time batches
of PITEX queries under various methods and parameters.  ``BenchmarkHarness``
owns those cached ingredients so a full benchmark session never rebuilds a
dataset or an index twice.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.bench.config import BenchmarkConfig
from repro.core.engine import PitexEngine
from repro.datasets.synthetic import SyntheticDataset, load_dataset
from repro.obs.clock import monotonic


def _mean(values: Sequence[float]) -> float:
    """Arithmetic mean of ``values`` (0.0 when empty)."""
    return sum(values) / len(values) if values else 0.0


@dataclass
class QueryBatchResult:
    """Aggregated outcome of a batch of PITEX queries."""

    method: str
    dataset: str
    group: str
    mean_seconds: float
    mean_spread: float
    mean_edges_visited: float
    mean_evaluated: float
    mean_pruned: float
    num_queries: int


class BenchmarkHarness:
    """Caches datasets and engines; runs timed query batches."""

    def __init__(self, config: Optional[BenchmarkConfig] = None) -> None:
        self.config = config if config is not None else BenchmarkConfig()
        self._datasets: Dict[Tuple[str, float, Optional[int], Optional[int]], SyntheticDataset] = {}
        self._engines: Dict[Tuple[str, float, Optional[int], Optional[int]], PitexEngine] = {}

    # ------------------------------------------------------------ ingredients
    def dataset(
        self,
        name: str,
        scale: Optional[float] = None,
        num_tags: Optional[int] = None,
        num_topics: Optional[int] = None,
    ) -> SyntheticDataset:
        """The cached synthetic dataset for ``name`` (generated on first use)."""
        scale = scale if scale is not None else self.config.scale_of(name)
        key = (name, scale, num_tags, num_topics)
        if key not in self._datasets:
            self._datasets[key] = load_dataset(
                name, scale=scale, num_tags=num_tags, num_topics=num_topics, seed=self.config.seed
            )
        return self._datasets[key]

    def engine(
        self,
        name: str,
        scale: Optional[float] = None,
        num_tags: Optional[int] = None,
        num_topics: Optional[int] = None,
    ) -> PitexEngine:
        """The cached engine for ``name`` (indexes are still built lazily)."""
        scale = scale if scale is not None else self.config.scale_of(name)
        key = (name, scale, num_tags, num_topics)
        if key not in self._engines:
            dataset = self.dataset(name, scale, num_tags, num_topics)
            self._engines[key] = PitexEngine(
                dataset.graph,
                dataset.model,
                epsilon=self.config.epsilon,
                delta=self.config.delta,
                max_samples=self.config.max_samples,
                index_samples=self.config.index_samples,
                default_k=self.config.k,
                seed=self.config.seed,
            )
        return self._engines[key]

    # ---------------------------------------------------------------- batches
    def query_users(self, dataset_name: str, group: str, num_queries: Optional[int] = None) -> List[int]:
        """Query users of one out-degree group for a dataset."""
        dataset = self.dataset(dataset_name)
        count = num_queries if num_queries is not None else self.config.queries_per_group
        return dataset.workload(group, count)

    def run_query_batch(
        self,
        dataset_name: str,
        method: str,
        users: Sequence[int],
        k: Optional[int] = None,
        epsilon: Optional[float] = None,
        delta: Optional[float] = None,
        group: str = "",
        exploration: str = "best-effort",
        candidate_tags: Optional[Iterable[int]] = None,
        engine: Optional[PitexEngine] = None,
    ) -> QueryBatchResult:
        """Run one PITEX query per user and aggregate time / spread / counters."""
        engine = engine if engine is not None else self.engine(dataset_name)
        times: List[float] = []
        spreads: List[float] = []
        edges: List[int] = []
        evaluated: List[int] = []
        pruned: List[int] = []
        candidate_list = list(candidate_tags) if candidate_tags is not None else None
        for user in users:
            started = monotonic()
            result = engine.query(
                user=user,
                k=k if k is not None else self.config.k,
                method=method,
                exploration=exploration,
                epsilon=epsilon,
                delta=delta,
                candidate_tags=candidate_list,
            )
            times.append(monotonic() - started)
            spreads.append(result.spread)
            edges.append(result.edges_visited)
            evaluated.append(result.evaluated_tag_sets)
            pruned.append(result.pruned_tag_sets)
        return QueryBatchResult(
            method=method,
            dataset=dataset_name,
            group=group,
            mean_seconds=_mean(times),
            mean_spread=_mean(spreads),
            mean_edges_visited=_mean(edges),
            mean_evaluated=_mean(evaluated),
            mean_pruned=_mean(pruned),
            num_queries=len(users),
        )

    def estimate_batch(
        self,
        dataset_name: str,
        method: str,
        users: Sequence[int],
        tag_set: Sequence[int],
        engine: Optional[PitexEngine] = None,
    ) -> Tuple[float, float, float]:
        """Run one influence estimation per user for a fixed tag set.

        Returns ``(mean_seconds, mean_value, mean_edges_visited)``; used by the
        edge-visit experiment (Fig. 13) where full query loops would hide the
        per-estimation cost differences.
        """
        engine = engine if engine is not None else self.engine(dataset_name)
        times: List[float] = []
        values: List[float] = []
        edges: List[int] = []
        for user in users:
            started = monotonic()
            estimate = engine.estimate_influence(user, tag_set, method=method)
            times.append(monotonic() - started)
            values.append(estimate.value)
            edges.append(estimate.edges_visited)
        return _mean(times), _mean(values), _mean(edges)
