"""``PitexService``: a concurrent, batching PITEX query front-end.

The service accepts :class:`QueryRequest` submissions from any thread, queues
them, and has a small worker pool drain the queue in *batches grouped by
engine key*.  Every engine answers a query on a query-local estimator and
builds its shared indexes once under its own lock
(:meth:`PitexEngine.query`), so batches run with *no service lock at all*:
several workers answer requests for the same engine concurrently.  A worker
claims a fair share of the oldest key's backlog and leaves the rest queued
for the other workers.  Per-request queue wait and execution latency feed
the :class:`ServiceMetrics` accumulators (p50/p95/p99, throughput), which is
what ``pitex serve-replay`` and ``bench_serving`` report.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, Hashable, List, Optional

from repro.core.engine import PitexEngine
from repro.core.query import PitexResult
from repro.exceptions import InvalidParameterError
from repro.serve.answers import AnswerCache, answer_key
from repro.obs.telemetry import deterministic_counters, get_telemetry, merge_snapshots
from repro.obs.trace import trace_span
from repro.utils.stats import LatencyAccumulator

DEFAULT_ENGINE_KEY = "default"


@dataclass(frozen=True)
class QueryRequest:
    """One PITEX query submitted to the service.

    ``engine_key`` routes the request to an engine of the service's provider;
    a single-engine service uses :data:`DEFAULT_ENGINE_KEY` for everything.
    ``group`` is a free-form label (the workload's out-degree group) carried
    into the per-group latency breakdown.
    """

    user: int
    k: Optional[int] = None
    method: str = "indexest+"
    exploration: str = "best-effort"
    epsilon: Optional[float] = None
    delta: Optional[float] = None
    engine_key: Hashable = DEFAULT_ENGINE_KEY
    group: str = ""


@dataclass
class QueryResponse:
    """The service's answer: the result plus its latency accounting.

    ``cache_hit`` marks answers served from the fingerprint-keyed
    :class:`~repro.serve.answers.AnswerCache` without touching the engine;
    :class:`ServiceMetrics` uses it to keep microsecond hits out of the
    execute percentiles.
    """

    request: QueryRequest
    result: Optional[PitexResult] = None
    error: Optional[str] = None
    queue_seconds: float = 0.0
    execute_seconds: float = 0.0
    batch_size: int = 1
    cache_hit: bool = False

    @property
    def ok(self) -> bool:
        """Whether the query produced a result."""
        return self.error is None and self.result is not None

    @property
    def latency_seconds(self) -> float:
        """Total time inside the service (queue wait + execution)."""
        return self.queue_seconds + self.execute_seconds


class ServiceMetrics:
    """Thread-safe request/latency instrumentation for the service."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.latency = LatencyAccumulator(label="total")
        self.queue_wait = LatencyAccumulator(label="queue")
        self.execution = LatencyAccumulator(label="execute")
        # Answer-cache hits land here instead of `execution`: a microsecond
        # hit averaged into the engine-execute percentiles would make p50
        # meaningless, so the split keeps `execution` engine-work-only.
        self.answer_hits = LatencyAccumulator(label="answer-hit")
        self.by_group: Dict[str, LatencyAccumulator] = {}
        # Per-worker-process execution shards (process backend only): each
        # worker measures its own execute latencies and ships the accumulator
        # at shutdown; merged here via the exact Chan/reservoir merge.
        self.worker_shards: Dict[str, LatencyAccumulator] = {}
        self.worker_execution = LatencyAccumulator(label="worker-execute")
        # Per-worker-process telemetry shards (process backend): snapshot
        # dicts shipped alongside the latency shards, merged by sum/max.
        self.worker_telemetry: Dict[str, dict] = {}
        self.completed = 0
        self.failed = 0
        self.batches = 0
        self._started_monotonic = time.monotonic()
        # Counter deltas, not absolutes: the process-wide registry outlives
        # any one service (engine builds, earlier services, test pollution),
        # so remember what it held at construction and report growth since.
        self._telemetry = get_telemetry()
        self._telemetry_baseline = self._telemetry.counters()

    def record(self, response: QueryResponse) -> None:
        """Fold one finished response into the accumulators."""
        with self._lock:
            if response.ok:
                self.completed += 1
            else:
                self.failed += 1
            self.latency.add(response.latency_seconds)
            self.queue_wait.add(response.queue_seconds)
            if response.cache_hit:
                self.answer_hits.add(response.execute_seconds)
            else:
                self.execution.add(response.execute_seconds)
            group = response.request.group or "all"
            accumulator = self.by_group.get(group)
            if accumulator is None:
                accumulator = LatencyAccumulator(label=group)
                self.by_group[group] = accumulator
            accumulator.add(response.latency_seconds)

    def record_batch(self) -> None:
        """Count one drained batch."""
        with self._lock:
            self.batches += 1

    def record_worker_shard(self, shard: LatencyAccumulator) -> None:
        """Merge one worker process's execution-latency shard.

        Kept separate from :attr:`execution` (which the parent records from
        its own clock as responses arrive) so worker- and parent-side views
        never double count; :meth:`snapshot` reports both.  The merge is
        exact for the moments (Chan's parallel formula) and
        reservoir-weighted for the percentile samples --
        :meth:`repro.utils.stats.LatencyAccumulator.merge`.
        """
        with self._lock:
            self.worker_shards[shard.label] = shard
            self.worker_execution.merge(shard)

    def record_worker_telemetry(self, label: str, snapshot: dict) -> None:
        """Store one worker process's telemetry shard.

        ``snapshot`` is a :meth:`repro.obs.telemetry.Telemetry.snapshot` dict
        shipped over the shutdown pipe.  Shards are kept per label *and*
        merged into the combined view by :meth:`telemetry`; merge order cannot
        matter (counters sum, gauges max).
        """
        with self._lock:
            self.worker_telemetry[label] = snapshot

    def telemetry(self) -> dict:
        """The service's telemetry section: local deltas + worker shards.

        ``counters``/``gauges`` are the merged totals, ``deterministic`` the
        backend-comparable subset (:data:`~repro.obs.telemetry.DETERMINISTIC_PREFIXES`),
        and ``workers`` the raw per-worker counter shards.  For the process
        backend the shards only arrive at shutdown, so read this *after*
        ``close()`` for complete totals.
        """
        with self._lock:
            return self._telemetry_locked()

    def _telemetry_locked(self) -> dict:
        """:meth:`telemetry` body; caller must hold ``self._lock``."""
        current = self._telemetry.counters()
        local = {
            name: current[name] - self._telemetry_baseline.get(name, 0)
            for name in sorted(current)
            if current[name] != self._telemetry_baseline.get(name, 0)
        }
        merged = merge_snapshots(
            {"counters": local, "gauges": self._telemetry.gauges()},
            *(self.worker_telemetry[label] for label in sorted(self.worker_telemetry)),
        )
        counters = {name: merged["counters"][name] for name in sorted(merged["counters"])}
        return {
            "counters": counters,
            "gauges": {name: merged["gauges"][name] for name in sorted(merged["gauges"])},
            "deterministic": deterministic_counters(counters),
            "workers": {
                label: dict(sorted(shard.get("counters", {}).items()))
                for label, shard in sorted(self.worker_telemetry.items())
            },
        }

    def snapshot(self) -> dict:
        """A JSON-friendly snapshot: counts, tails, throughput and telemetry."""
        with self._lock:
            elapsed = time.monotonic() - self._started_monotonic
            total = self.completed + self.failed
            return {
                "completed": self.completed,
                "failed": self.failed,
                "batches": self.batches,
                "elapsed_seconds": elapsed,
                "throughput_qps": (total / elapsed) if elapsed > 0 else 0.0,
                "latency": self.latency.summary(),
                "queue": self.queue_wait.summary(),
                "execute": self.execution.summary(),
                "answer_hits": self.answer_hits.summary(),
                "groups": {name: acc.summary() for name, acc in sorted(self.by_group.items())},
                "worker_shards": {
                    name: acc.summary() for name, acc in sorted(self.worker_shards.items())
                },
                "worker_execute": self.worker_execution.summary(),
                "telemetry": self._telemetry_locked(),
            }


@dataclass
class _Pending:
    request: QueryRequest
    future: "Future[QueryResponse]"
    enqueued_monotonic: float = field(default_factory=time.monotonic)


class PitexService:
    """Thread-pooled, batch-scheduled PITEX query answering.

    Parameters
    ----------
    engine_provider:
        Callable mapping an ``engine_key`` to a (warm) engine -- typically
        ``EngineCache.get_or_create`` partially applied, or a plain dict
        lookup.  Called from worker threads; must be thread-safe.
    num_workers:
        Worker threads draining the queue; every worker can answer the same
        engine concurrently.
    max_batch:
        Upper bound on the backlog one claim divides among the workers: a
        worker claims ``ceil(min(max_batch, queued) / num_workers)``
        requests of the oldest key.
    answer_cache:
        Optional :class:`~repro.serve.answers.AnswerCache` consulted before
        executing requests against *frozen* engines, whose graph cannot
        change under a running query; unfrozen engines always execute.
        Hits skip the engine, the execute trace span and the ``query.*``
        telemetry, and are recorded as ``cache_hit`` responses.
    """

    backend = "thread"

    def __init__(
        self,
        engine_provider: Callable[[Hashable], PitexEngine],
        num_workers: int = 2,
        max_batch: int = 8,
        answer_cache: Optional[AnswerCache] = None,
    ) -> None:
        if num_workers <= 0:
            raise InvalidParameterError(f"num_workers must be positive, got {num_workers}")
        if max_batch <= 0:
            raise InvalidParameterError(f"max_batch must be positive, got {max_batch}")
        self._provider = engine_provider
        self.answer_cache = answer_cache
        self.max_batch = int(max_batch)
        self.metrics = ServiceMetrics()
        self._queue: Deque[_Pending] = deque()
        self._condition = threading.Condition()
        self._closed = False
        self._workers = [
            threading.Thread(target=self._worker_loop, name=f"pitex-serve-{i}", daemon=True)
            for i in range(int(num_workers))
        ]
        for worker in self._workers:
            worker.start()

    @classmethod
    def for_engine(
        cls,
        engine: PitexEngine,
        num_workers: int = 1,
        max_batch: int = 8,
        answer_cache: Optional[AnswerCache] = None,
    ) -> "PitexService":
        """A service that answers everything with one fixed engine."""
        return cls(
            lambda key: engine,
            num_workers=num_workers,
            max_batch=max_batch,
            answer_cache=answer_cache,
        )

    @property
    def num_workers(self) -> int:
        """Size of the worker pool."""
        return len(self._workers)

    # ----------------------------------------------------------------- submit
    def submit(self, request: QueryRequest) -> "Future[QueryResponse]":
        """Queue one request; the future resolves to a :class:`QueryResponse`."""
        future: "Future[QueryResponse]" = Future()
        with self._condition:
            if self._closed:
                raise RuntimeError("PitexService is closed")
            self._queue.append(_Pending(request=request, future=future))
            self._condition.notify()
        return future

    def query(
        self,
        user: int,
        k: Optional[int] = None,
        method: str = "indexest+",
        engine_key: Hashable = DEFAULT_ENGINE_KEY,
        **kwargs,
    ) -> PitexResult:
        """Synchronous convenience wrapper: submit, wait, unwrap or raise."""
        request = QueryRequest(user=user, k=k, method=method, engine_key=engine_key, **kwargs)
        response = self.submit(request).result()
        if not response.ok:
            raise RuntimeError(f"query failed: {response.error}")
        return response.result

    # ---------------------------------------------------------------- workers
    def _claim_batch(self) -> Optional[List[_Pending]]:
        """Block until work exists; claim a fair share of the oldest key's backlog.

        The batch takes the key of the oldest queued request and claims
        ``ceil(min(max_batch, queued) / num_workers)`` of that key's queued
        requests in arrival order.  Everything else stays queued, in order,
        so idle workers fan out over the rest instead of waiting behind one
        greedy claim.
        """
        with self._condition:
            while not self._queue and not self._closed:
                self._condition.wait()
            if not self._queue:
                return None
            key = self._queue[0].request.engine_key
            queued = sum(1 for pending in self._queue if pending.request.engine_key == key)
            share = -(-min(self.max_batch, queued) // len(self._workers))
            batch: List[_Pending] = []
            rest: Deque[_Pending] = deque()
            for pending in self._queue:
                if len(batch) < share and pending.request.engine_key == key:
                    batch.append(pending)
                else:
                    rest.append(pending)
            self._queue = rest
            if rest:
                self._condition.notify()
            return batch

    def _worker_loop(self) -> None:
        while True:
            batch = self._claim_batch()
            if batch is None:
                return
            key = batch[0].request.engine_key
            self.metrics.record_batch()
            try:
                engine = self._provider(key)
            except Exception as exc:  # engine build failed: fail the batch
                self._fail_batch(batch, f"engine {key!r} unavailable: {exc}")
                continue
            for pending in batch:
                self._execute(engine, pending, len(batch))

    def _run_query(self, engine: PitexEngine, request: QueryRequest, batch_size: int) -> PitexResult:
        """Execute ``request`` on ``engine`` inside the execute trace span."""
        with trace_span(
            "execute",
            engine_key=str(request.engine_key),
            user=request.user,
            method=request.method,
            group=request.group,
            batch_size=batch_size,
        ):
            return engine.query(
                user=request.user,
                k=request.k,
                method=request.method,
                exploration=request.exploration,
                epsilon=request.epsilon,
                delta=request.delta,
            )

    def _execute(self, engine: PitexEngine, pending: _Pending, batch_size: int) -> None:
        request = pending.request
        if not pending.future.set_running_or_notify_cancel():
            return  # client cancelled while queued; nothing to run or record
        started = time.monotonic()
        queue_seconds = started - pending.enqueued_monotonic
        cache_hit = False
        try:
            cache = self.answer_cache
            if cache is not None and getattr(engine, "is_frozen", False):
                # A frozen engine's graph cannot change under the query, so
                # its answer is a pure function of the key and a hit returns
                # the memoized result without touching the engine -- no
                # query.* telemetry, no execute span.
                key = answer_key(engine, request)
                result, cache_hit = cache.get_or_compute(
                    key, lambda: self._run_query(engine, request, batch_size)
                )
            else:
                result = self._run_query(engine, request, batch_size)
            response = QueryResponse(
                request=request,
                result=result,
                queue_seconds=queue_seconds,
                execute_seconds=time.monotonic() - started,
                batch_size=batch_size,
                cache_hit=cache_hit,
            )
        except Exception as exc:
            response = QueryResponse(
                request=request,
                error=f"{type(exc).__name__}: {exc}",
                queue_seconds=queue_seconds,
                execute_seconds=time.monotonic() - started,
                batch_size=batch_size,
            )
        self.metrics.record(response)
        pending.future.set_result(response)

    def _fail_batch(self, batch: List[_Pending], message: str) -> None:
        now = time.monotonic()
        for pending in batch:
            if not pending.future.set_running_or_notify_cancel():
                continue  # cancelled while queued
            response = QueryResponse(
                request=pending.request,
                error=message,
                queue_seconds=now - pending.enqueued_monotonic,
                batch_size=len(batch),
            )
            self.metrics.record(response)
            pending.future.set_result(response)

    # ------------------------------------------------------------------ close
    def close(self, wait: bool = True) -> None:
        """Stop accepting requests; drain the queue, then stop the workers."""
        with self._condition:
            if self._closed:
                return
            self._closed = True
            self._condition.notify_all()
        if wait:
            for worker in self._workers:
                worker.join()

    def __enter__(self) -> "PitexService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
