"""The request lifecycle both serving backends share, and ``PitexService``, the thread backend.

Every request, on either backend, is one :class:`Pending` record that a
:class:`Dispatcher` routes to a :class:`WorkerSlot` (the live worker with
the fewest requests in flight), that :func:`execute_request` answers, and
that :func:`end_request` ends.  :class:`PitexService` runs its workers as
threads: each thread is a slot that is ready at start, never dies and
blocks on its own inbox, answering one request at a time.  Every engine
answers a query on a query-local estimator and builds its shared indexes
once under its own lock (:meth:`PitexEngine.query`), so the workers need no
service lock: several of them answer the same engine concurrently.
Per-request queue wait and execution latency feed the
:class:`ServiceMetrics` accumulators (p50/p95/p99, throughput), which is
what ``pitex serve-replay`` and ``bench_serving`` report.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future
from dataclasses import dataclass, field
from queue import SimpleQueue
from typing import Any, Callable, Dict, Hashable, List, Optional, Tuple

from repro.core.engine import PitexEngine
from repro.core.query import PitexResult
from repro.exceptions import InvalidParameterError
from repro.serve.answers import AnswerCache, answer_key
from repro.obs.clock import monotonic
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
    execute percentiles.  ``worker`` is the id of the process worker that
    ran the engine; it stays ``None`` on the thread backend and for cache
    hits.
    """

    request: QueryRequest
    result: Optional[PitexResult] = None
    error: Optional[str] = None
    queue_seconds: float = 0.0
    execute_seconds: float = 0.0
    cache_hit: bool = False
    worker: Optional[int] = None

    @property
    def ok(self) -> bool:
        """Whether the query produced a result."""
        return self.error is None and self.result is not None

    @property
    def latency_seconds(self) -> float:
        """Total time inside the service (queue wait + execution)."""
        return self.queue_seconds + self.execute_seconds


class ServiceMetrics:
    """Thread-safe request/latency instrumentation for the service.

    Every latency series is recorded here, in the serving process, from the
    finished :class:`QueryResponse` objects; on the process backend
    ``worker_shards`` splits ``execution`` by :attr:`QueryResponse.worker`.
    Only the workers' telemetry shards come from the workers themselves,
    at their shutdown.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.latency = LatencyAccumulator(label="total")
        self.queue_wait = LatencyAccumulator(label="queue")
        self.execution = LatencyAccumulator(label="execute")
        # Answer-cache hits land here instead of `execution`: a microsecond
        # hit averaged into the engine-execute percentiles would make p50
        # meaningless, so the split keeps `execution` engine-work-only.
        # Failed requests land in neither (many never reached an engine and
        # would add 0 s samples); `latency` and `queue_wait` keep them.
        self.answer_hits = LatencyAccumulator(label="answer-hit")
        self.by_group: Dict[str, LatencyAccumulator] = {}
        # Per-worker-process execute series (process backend only), keyed
        # "worker-N" by the response's worker id: a split of `execution`.
        self.worker_shards: Dict[str, LatencyAccumulator] = {}
        # Per-worker-process telemetry shards (process backend): snapshot
        # dicts shipped at worker shutdown, merged by sum/max.
        self.worker_telemetry: Dict[str, dict] = {}
        self.completed = 0
        self.failed = 0
        self._started_monotonic = monotonic()
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
            elif response.ok:
                self.execution.add(response.execute_seconds)
            if response.worker is not None and response.ok:
                label = f"worker-{response.worker}"
                shard = self.worker_shards.get(label)
                if shard is None:
                    shard = self.worker_shards[label] = LatencyAccumulator(label=label)
                shard.add(response.execute_seconds)
            group = response.request.group or "all"
            accumulator = self.by_group.get(group)
            if accumulator is None:
                accumulator = LatencyAccumulator(label=group)
                self.by_group[group] = accumulator
            accumulator.add(response.latency_seconds)

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
            elapsed = monotonic() - self._started_monotonic
            return {
                "completed": self.completed,
                "failed": self.failed,
                "elapsed_seconds": elapsed,
                "throughput_qps": (self.completed / elapsed) if elapsed > 0 else 0.0,
                "latency": self.latency.summary(),
                "queue": self.queue_wait.summary(),
                "execute": self.execution.summary(),
                "answer_hits": self.answer_hits.summary(),
                "groups": {name: acc.summary() for name, acc in sorted(self.by_group.items())},
                "worker_shards": {
                    name: acc.summary() for name, acc in sorted(self.worker_shards.items())
                },
                "telemetry": self._telemetry_locked(),
            }


@dataclass(frozen=True, slots=True)
class Outcome:
    """How one execution ended (its result or ``"TypeName: message"`` error), timed.

    :func:`execute_request` builds it on either backend; a process worker
    sends it back in its reply as is.
    """

    result: Optional[PitexResult] = None
    error: Optional[str] = None
    execute_seconds: float = 0.0
    cache_hit: bool = False


def execute_request(
    engine: PitexEngine,
    request: QueryRequest,
    answer_cache: Optional[AnswerCache] = None,
    **span_fields,
) -> Outcome:
    """Answer ``request`` on ``engine``: both backends' one execution path.

    Times the call and never raises: an exception becomes the outcome's
    ``"TypeName: message"`` error.  The answer cache fronts *frozen*
    engines only: their indexes cannot be rebuilt under the query (and no
    engine's pinned graph version changes), so the answer is a pure function
    of :func:`~repro.serve.answers.answer_key`, and a hit returns it without
    touching the engine -- no ``query.*`` telemetry, no execute span.  The
    engine runs inside the ``execute`` trace span, which carries
    ``span_fields`` (``worker`` on the process backend) after the request's
    own fields.
    """

    def run() -> PitexResult:
        with trace_span(
            "execute",
            engine_key=str(request.engine_key),
            user=request.user,
            method=request.method,
            group=request.group,
            **span_fields,
        ):
            return engine.query(
                user=request.user,
                k=request.k,
                method=request.method,
                exploration=request.exploration,
                epsilon=request.epsilon,
                delta=request.delta,
            )

    started = monotonic()
    try:
        if answer_cache is None or not getattr(engine, "is_frozen", False):
            result, cache_hit = run(), False
        else:
            result, cache_hit = answer_cache.get_or_compute(answer_key(engine, request), run)
    except Exception as exc:
        return Outcome(error=f"{type(exc).__name__}: {exc}", execute_seconds=monotonic() - started)
    return Outcome(result=result, execute_seconds=monotonic() - started, cache_hit=cache_hit)


@dataclass(slots=True)
class Pending:
    """One open request on either backend; ``worker`` is the slot the :class:`Dispatcher` routed it to."""

    request: QueryRequest
    future: "Future[QueryResponse]"
    enqueued_monotonic: float = field(default_factory=monotonic)
    worker: Optional[int] = None


def end_request(metrics: ServiceMetrics, pending: Pending, outcome: Outcome, worker: Optional[int] = None) -> None:
    """End one request: build its response, record it, resolve its future.

    Every ending on both backends comes here, so one rule sets queue wait:
    submit to now, minus execute seconds.  ``worker`` is the process worker
    that sent the outcome (a cache hit names none).  A future cancelled
    before it ended is left alone and recorded nowhere.
    """
    future = pending.future
    if not (future.running() or future.set_running_or_notify_cancel()):
        return
    response = QueryResponse(
        request=pending.request,
        result=outcome.result,
        error=outcome.error,
        queue_seconds=max(0.0, monotonic() - pending.enqueued_monotonic - outcome.execute_seconds),
        execute_seconds=outcome.execute_seconds,
        cache_hit=outcome.cache_hit,
        worker=None if outcome.cache_hit else worker,
    )
    metrics.record(response)
    future.set_result(response)


STARTING, READY, DEAD = "starting", "ready", "dead"


@dataclass(eq=False)
class WorkerSlot:
    """One worker as its service sees it: the service's handles, the :class:`Dispatcher`'s state.

    ``runner`` is the worker's thread or process and ``inbox`` where its
    requests go: a thread's ``SimpleQueue``, or a process's request pipe.
    ``reply_conn`` and ``send_lock`` (the reply pipe, and the lock that
    orders writes to the request pipe) serve the process backend only.
    Only the dispatcher writes ``state`` (starting, ready, dead),
    ``in_flight``, ``fatal`` and ``shard_received``, under its condition.
    """

    runner: Any = None
    inbox: Any = None
    reply_conn: Any = None
    send_lock: Any = field(default_factory=threading.Lock)
    state: str = STARTING
    in_flight: int = 0
    fatal: Optional[str] = None
    shard_received: bool = False


class Dispatcher:
    """Both backends' routing and request accounting, without I/O.

    Holds the worker slots, the pending table and the request ids, and under
    its one condition variable decides where each request runs and which
    requests a dead worker orphans.  It sends nothing, starts no thread and
    reads no clock: the services' ``submit``, their workers or drainer and
    the process start-up wait move the requests and report each event here,
    so every transition can be driven without threads or processes
    (``tests/test_serve_dispatch_model.py``).  Thread slots are ready at
    start and never die; starting, failing and dying happen to process
    slots only.
    """

    def __init__(self, workers: List[WorkerSlot], answer_cache: bool = False) -> None:
        self.workers = workers
        self.answer_cache = answer_cache
        self._condition = threading.Condition()
        self._pending: Dict[int, Pending] = {}
        self._next_request_id = 0
        self._closed = False

    def submit(self, pending: Pending, affinity: int) -> Tuple[int, Optional[str]]:
        """Route and register one request: ``(request_id, None)``, or ``(-1, error)``.

        ``pending.worker`` names the worker; the error is a dead affinity shard's.
        """
        with self._condition:
            if self._closed:
                raise RuntimeError("the service is closed")
            shard = self.workers[affinity]
            if shard.state == DEAD:
                return -1, f"WorkerError: worker {affinity} unavailable: {shard.fatal or 'worker died'}"
            pending.worker = self._route(affinity)
            request_id = self._next_request_id
            self._next_request_id += 1
            self._pending[request_id] = pending
            self.workers[pending.worker].in_flight += 1
            return request_id, None

    def _route(self, affinity: int) -> int:
        """The worker a request whose affinity shard is live runs on.

        Caller holds ``_condition`` (re-entrant, so :meth:`live` may take it
        again).  With per-worker answer caches the
        affinity shard always wins: each fingerprint must keep reaching one
        cache replica.  Otherwise the live worker with the fewest requests in
        flight wins, ties going to the affinity shard, then the lowest id.
        """
        if self.answer_cache:
            return affinity
        return min(self.live(), key=lambda w: (self.workers[w].in_flight, w != affinity, w))

    def release(self, request_id: int) -> Optional[Pending]:
        """Close one open request, whichever way it ended; ``None`` if it already ended."""
        with self._condition:
            pending = self._pending.pop(request_id, None)
            if pending is not None:
                self.workers[pending.worker].in_flight -= 1
            return pending

    def ready(self, worker: int) -> None:
        """The worker built its replica."""
        with self._condition:
            self.workers[worker].state = READY
            self._condition.notify_all()

    def failed(self, worker: int, error: str) -> None:
        """The worker could not build its replica."""
        with self._condition:
            self.workers[worker].fatal = error
            self._condition.notify_all()

    def shard_received(self, worker: int) -> None:
        """The worker shipped its shutdown shard."""
        with self._condition:
            self.workers[worker].shard_received = True

    def died(self, worker: int, exit_code: Optional[int]) -> List[Pending]:
        """The worker is gone: mark it dead and release its open requests, for the caller to end."""
        with self._condition:
            if self.workers[worker].state == STARTING and self.workers[worker].fatal is None:
                self.workers[worker].fatal = f"died during startup (exit code {exit_code})"
            self.workers[worker].state = DEAD
            orphans = [rid for rid, pending in self._pending.items() if pending.worker == worker]
            self.workers[worker].in_flight -= len(orphans)
            self._condition.notify_all()
            return [self._pending.pop(rid) for rid in orphans]

    def live(self) -> List[int]:
        """The workers not known to be dead."""
        with self._condition:
            return [w for w, slot in enumerate(self.workers) if slot.state != DEAD]

    def wait_started(self, timeout: float) -> List[str]:
        """Block until no worker is starting or one failed; the failures (empty: started)."""

        def failures() -> List[str]:
            return [f"worker {w}: {slot.fatal}" for w, slot in enumerate(self.workers) if slot.fatal]

        with self._condition:
            if self._condition.wait_for(lambda: failures() or all(w.state != STARTING for w in self.workers), timeout):
                return failures()
        return [f"startup timed out after {timeout:.0f}s"]

    def close(self) -> bool:
        """Refuse further submits; whether this was the first close."""
        with self._condition:
            first = not self._closed
            self._closed = True
            return first


class PitexService:
    """Thread-pooled PITEX query answering: each worker thread is one :class:`Dispatcher` slot.

    A request goes to the worker with the fewest requests in flight (ties to
    the lowest id) and waits in that worker's inbox; each worker answers its
    inbox in FIFO order, one request at a time, calling the provider once
    per request.  A future cancelled while queued is released unexecuted.

    Parameters
    ----------
    engine_provider:
        Callable mapping an ``engine_key`` to a (warm) engine -- typically
        ``EngineCache.get_or_create`` partially applied, or a plain dict
        lookup.  Called from worker threads; must be thread-safe.
    num_workers:
        Worker threads; every worker can answer the same engine concurrently.
    max_batch:
        Accepted for existing callers; ``1`` (each request runs alone) is
        its only value.
    answer_cache:
        Optional :class:`~repro.serve.answers.AnswerCache` consulted before
        executing requests against *frozen* engines, whose indexes cannot
        be rebuilt under a running query; unfrozen engines always execute.
        Hits skip the engine, the execute trace span and the ``query.*``
        telemetry, and are recorded as ``cache_hit`` responses.  The one
        cache is shared by every worker, so routing ignores it.
    """

    backend = "thread"

    def __init__(
        self,
        engine_provider: Callable[[Hashable], PitexEngine],
        num_workers: int = 2,
        max_batch: int = 1,
        answer_cache: Optional[AnswerCache] = None,
    ) -> None:
        if num_workers <= 0:
            raise InvalidParameterError(f"num_workers must be positive, got {num_workers}")
        if max_batch != 1:
            raise InvalidParameterError(f"max_batch must be 1 (each request runs alone), got {max_batch}")
        self._provider = engine_provider
        self.answer_cache = answer_cache
        self.metrics = ServiceMetrics()
        self._workers = [WorkerSlot(inbox=SimpleQueue(), state=READY) for _ in range(int(num_workers))]
        self._dispatch = Dispatcher(self._workers)
        # Orders each submit's hand-off against close's stop markers, so no
        # accepted request lands in an inbox behind its worker's stop.
        self._handoff_lock = threading.Lock()
        for worker_id, slot in enumerate(self._workers):
            slot.runner = threading.Thread(
                target=self._worker_loop, args=(slot,), name=f"pitex-serve-{worker_id}", daemon=True
            )
            slot.runner.start()

    @classmethod
    def for_engine(
        cls,
        engine: PitexEngine,
        num_workers: int = 1,
        max_batch: int = 1,
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

    def submit(self, request: QueryRequest) -> "Future[QueryResponse]":
        """Queue one request on the least-loaded worker; the future resolves to a :class:`QueryResponse`."""
        pending = Pending(request=request, future=Future())
        with self._handoff_lock:
            request_id, _ = self._dispatch.submit(pending, affinity=0)
            self._workers[pending.worker].inbox.put((request_id, pending))
        return pending.future

    def _worker_loop(self, slot: WorkerSlot) -> None:
        """Answer the slot's inbox in FIFO order until its stop marker (``None``)."""
        while True:
            item = slot.inbox.get()
            if item is None:
                return
            request_id, pending = item
            outcome = self._execute(pending.request) if pending.future.set_running_or_notify_cancel() else None
            self._dispatch.release(request_id)
            if outcome is not None:  # else cancelled while queued: never executed
                end_request(self.metrics, pending, outcome)

    def _execute(self, request: QueryRequest) -> Outcome:
        key = request.engine_key
        try:
            engine = self._provider(key)
        except Exception as exc:
            return Outcome(error=f"engine {key!r} unavailable: {exc}")
        return execute_request(engine, request, self.answer_cache)

    def close(self) -> None:
        """Stop accepting requests; answer everything queued, then stop the workers."""
        with self._handoff_lock:
            if self._dispatch.close():
                for slot in self._workers:
                    slot.inbox.put(None)
        for slot in self._workers:
            slot.runner.join()

    def __enter__(self) -> "PitexService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
