"""Workload replay against a :class:`~repro.serve.service.PitexService`.

Replays a :meth:`QueryWorkload.query_stream` -- a seeded, reproducible
sequence of ``(group, user)`` query events -- through the service and folds
the responses into a latency/throughput report: overall and per-group
p50/p95/p99 built on :class:`repro.utils.stats.LatencyAccumulator` and
rendered through the shared :func:`repro.bench.reporting.latency_result`
table helper.  This is the measurement loop behind ``pitex serve-replay`` and
``benchmarks/bench_serving.py``.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

from repro.bench.reporting import ExperimentResult, latency_result
from repro.exceptions import InvalidParameterError
from repro.serve.answers import answer_digest
from repro.serve.service import DEFAULT_ENGINE_KEY, PitexService, QueryRequest, QueryResponse
from repro.utils.stats import LatencyAccumulator


@dataclass
class ReplayReport:
    """Outcome of one replay run: responses plus aggregated latency stats.

    ``num_workers`` and ``backend`` record *how* the run executed --
    ``"thread"`` (one in-process engine, requests fan across the thread
    pool) or ``"process"`` (one frozen replica per worker process) -- so a
    persisted latency artifact is self-describing: two reports are only
    comparable when both axes match.  ``host_cores`` stamps the machine's
    CPU count, which is what makes a 1-core CI artifact next to a skipped
    speedup gate self-explaining.
    """

    method: str
    num_queries: int
    wall_seconds: float
    num_workers: int = 1
    backend: str = "thread"
    host_cores: int = field(default_factory=lambda: int(os.cpu_count() or 1))
    responses: List[QueryResponse] = field(default_factory=list)
    overall: LatencyAccumulator = field(default_factory=lambda: LatencyAccumulator(label="all"))
    by_group: Dict[str, LatencyAccumulator] = field(default_factory=dict)
    # Answer-cache accounting: the cold/warm split is over *service time*
    # (execute_seconds) -- a hit's queue wait is scheduling noise, and the
    # point of the split is measuring memoization, not queue depth.
    cache_hits: int = 0
    cold: LatencyAccumulator = field(default_factory=lambda: LatencyAccumulator(label="cold"))
    warm: LatencyAccumulator = field(default_factory=lambda: LatencyAccumulator(label="warm"))
    # sha256 over the deterministic answer facets in stream order
    # (repro.serve.answers.answer_digest): two replays agree iff their
    # answers are byte-identical, which is the cached-vs-oracle gate.
    answers_digest: str = ""
    # ServiceMetrics.telemetry() section captured by replay_stream.  Caveat:
    # process-backend worker shards only arrive at service close, so callers
    # wanting complete totals re-assign this after closing (the CLI does).
    telemetry: Dict = field(default_factory=dict)

    @property
    def failures(self) -> int:
        """Number of failed queries."""
        return sum(1 for response in self.responses if not response.ok)

    @property
    def hit_rate(self) -> float:
        """Answer-cache hits over replayed queries (0.0 when uncached)."""
        if self.num_queries <= 0:
            return 0.0
        return self.cache_hits / self.num_queries

    @property
    def throughput_qps(self) -> float:
        """Completed queries per wall-clock second."""
        if self.wall_seconds <= 0:
            return 0.0
        return (self.num_queries - self.failures) / self.wall_seconds

    def to_result(self) -> ExperimentResult:
        """The latency table (overall row first, then per-group rows)."""
        accumulators = [self.overall] + [self.by_group[name] for name in sorted(self.by_group)]
        spans = {accumulator.label: self.wall_seconds for accumulator in accumulators}
        result = latency_result(
            "serving",
            f"workload replay ({self.method}, {self.num_queries} queries)",
            accumulators,
            wall_seconds=spans,
        )
        result.add_note(
            f"wall={self.wall_seconds:.3f}s throughput={self.throughput_qps:.1f} qps "
            f"failures={self.failures} workers={self.num_workers} "
            f"backend={self.backend} cores={self.host_cores}"
        )
        return result

    def to_json(self) -> dict:
        """JSON-friendly summary (what the CI artifact stores)."""
        return {
            "method": self.method,
            "num_queries": self.num_queries,
            "num_workers": self.num_workers,
            "backend": self.backend,
            "host_cores": self.host_cores,
            "wall_seconds": self.wall_seconds,
            "throughput_qps": self.throughput_qps,
            "failures": self.failures,
            "overall": self.overall.summary(),
            "groups": {name: acc.summary() for name, acc in sorted(self.by_group.items())},
            "answer_cache": {
                "hits": self.cache_hits,
                "hit_rate": self.hit_rate,
                "cold": self.cold.summary(),
                "warm": self.warm.summary(),
                "answers_digest": self.answers_digest,
            },
            "telemetry": self.telemetry,
        }


def replay_stream(
    service: PitexService,
    stream: Sequence[Tuple[str, int]],
    method: str = "indexest+",
    k: Optional[int] = None,
    engine_key: Hashable = DEFAULT_ENGINE_KEY,
    max_in_flight: Optional[int] = None,
) -> ReplayReport:
    """Fire a ``(group, user)`` stream at the service and aggregate latencies.

    All requests are submitted up-front (open-loop) unless ``max_in_flight``
    bounds the number of outstanding queries (closed-loop with a fixed
    concurrency window, which keeps queue-wait out of the tail when the
    point of the run is per-query service time).
    """
    if not stream:
        raise InvalidParameterError("replay_stream needs a non-empty query stream")
    if max_in_flight is not None and max_in_flight <= 0:
        raise InvalidParameterError(f"max_in_flight must be positive, got {max_in_flight}")
    started = time.monotonic()
    futures = []
    responses: List[QueryResponse] = []
    for group, user in stream:
        request = QueryRequest(user=user, k=k, method=method, engine_key=engine_key, group=group)
        futures.append(service.submit(request))
        if max_in_flight is not None and len(futures) >= max_in_flight:
            responses.append(futures.pop(0).result())
    for future in futures:
        responses.append(future.result())
    wall = time.monotonic() - started
    report = ReplayReport(
        method=method,
        num_queries=len(stream),
        wall_seconds=wall,
        num_workers=service.num_workers,
        backend=getattr(service, "backend", "thread"),
        responses=responses,
        telemetry=service.metrics.telemetry(),
    )
    for response in responses:
        report.overall.add(response.latency_seconds)
        if response.cache_hit:
            report.cache_hits += 1
            report.warm.add(response.execute_seconds)
        else:
            report.cold.add(response.execute_seconds)
        group = response.request.group or "all"
        accumulator = report.by_group.get(group)
        if accumulator is None:
            accumulator = LatencyAccumulator(label=group)
            report.by_group[group] = accumulator
        accumulator.add(response.latency_seconds)
    report.answers_digest = answer_digest(response.result for response in responses)
    return report
