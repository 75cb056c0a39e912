"""Process-sharded serving: one frozen engine replica per worker process.

The thread-pooled :class:`~repro.serve.service.PitexService` proved that
frozen engines answer concurrently *correctly* -- but not *faster*: the
pure-Python index-matching loop serializes behind the GIL (the ``bench_serving``
sweep measured 0.81x "speedup" at 4 threads).  Processes are the right
parallelism unit, and the stateless query path makes them cheap to be
correct about:

* an engine's answer is a pure function of ``(engine seed, query
  fingerprint)`` (:meth:`PitexEngine.query_seed`), so a replica built in
  another process from the same seed and the same bytes returns bitwise the
  same answer -- no cross-process coordination, no shared RNG;
* :class:`~repro.serve.store.IndexStore` already persists every heavy
  structure (CSR graph arrays, probability matrix, index sample arrays) as
  flat numpy arrays, so replicas reconstruct from read-only ``mmap``'d views
  (:meth:`IndexStore.open_mapped` / :meth:`TopicSocialGraph.from_shared_arrays`)
  and the float payload lives in the page cache once, not N times.

:class:`EngineSpec` is the picklable recipe a worker needs (store root +
bundle key + engine/freeze parameters); :func:`build_engine_from_spec` turns
it into a frozen replica; :class:`ProcessShardedService` forks N workers,
shards requests by ``crc32(engine_key | user)`` (stable across processes --
never builtin ``hash()``), speaks a tuple protocol over per-worker pipes, and
merges each worker's :class:`~repro.utils.stats.LatencyAccumulator` shard
into the parent's :class:`~repro.serve.service.ServiceMetrics` on shutdown.

Concurrency contract: the parent object is thread-safe (``submit`` from any
thread; internal state is guarded by one condition variable).  Worker death
-- crash, unpicklable reply, failed replica build -- is detected via pipe
EOF and surfaces as a clean :class:`~repro.exceptions.WorkerError`-tagged
error response on every affected future instead of a hang.  The thread
backend remains the bitwise reference oracle; equivalence is enforced by
``tests/test_serve_process.py`` and the ``bench_serving`` process leg.
"""

from __future__ import annotations

import multiprocessing
import threading
import time
import zlib
from concurrent.futures import Future
from dataclasses import dataclass, field
from multiprocessing import connection
from typing import Dict, List, Optional, Tuple

from repro.core.engine import PitexEngine
from repro.exceptions import InvalidParameterError, StoreError, WorkerError
from repro.obs.telemetry import Telemetry, counter, get_telemetry, install
from repro.obs.trace import (
    TraceRecorder,
    get_recorder,
    install_recorder,
    trace_span,
    tracing_enabled,
)
from repro.serve.answers import DEFAULT_ANSWER_CAPACITY, AnswerCache, answer_key
from repro.serve.service import QueryRequest, QueryResponse, ServiceMetrics
from repro.serve.store import IndexStore
from repro.utils.stats import LatencyAccumulator

RR_METHODS = ("indexest", "indexest+")
DELAYED_METHODS = ("delaymat",)


@dataclass(frozen=True)
class EngineSpec:
    """The picklable recipe for reconstructing one frozen engine replica.

    A spec carries *references* (a store root and a bundle key), never
    arrays: pickling it onto a worker costs bytes, and every heavy structure
    is memory-mapped from the store on the other side.  ``engine_seed`` must
    be the same integer seed the reference engine was built with -- the
    stateless ``query_seed`` derivation then makes every replica answer
    bitwise identically to the thread oracle.
    """

    store_root: str
    bundle_key: str
    engine_seed: int
    epsilon: float = 0.7
    delta: float = 1000.0
    max_samples: Optional[int] = 2000
    index_samples: int = 100
    default_k: int = 3
    kernel: str = "csr"
    methods: Tuple[str, ...] = ("indexest",)
    ks: Tuple[int, ...] = ()
    mmap: bool = True
    # Build the freeze-time per-user tables (repro.index.tables) in every
    # replica; same-seed replicas derive identical tables, so this preserves
    # bitwise equality with the thread oracle.
    precompute_tables: bool = True


def publish_engine_spec(
    store: IndexStore,
    graph,
    model,
    *,
    engine_seed: int,
    index_samples: int,
    methods: Tuple[str, ...],
    ks: Tuple[int, ...] = (),
    epsilon: float = 0.7,
    delta: float = 1000.0,
    max_samples: Optional[int] = 2000,
    default_k: int = 3,
    kernel: str = "csr",
    index_seed=None,
    mmap: bool = True,
    precompute_tables: bool = True,
) -> EngineSpec:
    """Persist everything workers need and return the matching spec.

    Saves the shared graph+model bundle and load-or-builds the offline
    indexes the listed ``methods`` require, so a worker's
    :func:`build_engine_from_spec` is guaranteed to find every entry.
    Idempotent: re-publishing identical content lands on the same store keys.
    """
    entry = store.save_graph_bundle(graph, model)
    lowered = tuple(method.lower() for method in methods)
    if any(method in RR_METHODS for method in lowered):
        store.load_or_build_rr(graph, model, index_samples, seed=index_seed)
    if any(method in DELAYED_METHODS for method in lowered):
        store.load_or_build_delayed(graph, model, index_samples, seed=index_seed)
    return EngineSpec(
        store_root=str(store.root),
        bundle_key=entry.key,
        engine_seed=int(engine_seed),
        epsilon=epsilon,
        delta=delta,
        max_samples=max_samples,
        index_samples=int(index_samples),
        default_k=int(default_k),
        kernel=kernel,
        methods=lowered,
        ks=tuple(int(k) for k in ks),
        mmap=mmap,
        precompute_tables=precompute_tables,
    )


def build_engine_from_spec(spec: EngineSpec) -> PitexEngine:
    """Reconstruct and freeze one engine replica from a spec.

    Runs inside each worker process: the graph/model come back from the
    shared bundle (read-only mmap by default), offline indexes from the same
    store, and the engine is frozen on the spec's methods -- after which the
    replica is a pure function of its inputs and safe to query without locks.
    Raises :class:`StoreError` if a required entry is missing, which the
    worker reports as a fatal startup error instead of half-serving.
    """
    store = IndexStore(spec.store_root)
    graph, model, _ = store.load_graph_bundle(spec.bundle_key, mmap=spec.mmap)
    methods = tuple(method.lower() for method in spec.methods)
    rr_index = None
    delayed_index = None
    if any(method in RR_METHODS for method in methods):
        rr_index = store.load_rr_index(graph, model, spec.index_samples, mmap=spec.mmap)
        if rr_index is None:
            raise StoreError(
                f"no persisted RR index for bundle {spec.bundle_key!r} at "
                f"theta={spec.index_samples} in {spec.store_root!r}"
            )
    if any(method in DELAYED_METHODS for method in methods):
        delayed_index = store.load_delayed_index(
            graph, model, spec.index_samples, mmap=spec.mmap
        )
        if delayed_index is None:
            raise StoreError(
                f"no persisted delayed index for bundle {spec.bundle_key!r} at "
                f"theta={spec.index_samples} in {spec.store_root!r}"
            )
    engine = PitexEngine(
        graph,
        model,
        epsilon=spec.epsilon,
        delta=spec.delta,
        max_samples=spec.max_samples,
        index_samples=spec.index_samples,
        default_k=spec.default_k,
        seed=spec.engine_seed,
        kernel=spec.kernel,
        rr_index=rr_index,
        delayed_index=delayed_index,
    )
    engine.freeze(
        methods=methods, ks=spec.ks or None, precompute_tables=spec.precompute_tables
    )
    return engine


# --------------------------------------------------------------- worker side
def _serve_requests(
    engine: PitexEngine,
    worker_id: int,
    requests,
    replies,
    answer_cache: Optional[AnswerCache] = None,
):
    """Drain the request pipe until EOF/stop; returns the latency shard.

    Factored out of :func:`_worker_main` so the loop is unit-testable
    in-process (the fork-safety tests drive it with plain ``Pipe`` ends).
    An unpicklable result degrades to an error reply; a broken reply pipe
    ends the loop -- the parent sees EOF either way.

    ``answer_cache`` (when given) memoizes frozen answers per worker; the
    by-user request sharding routes every fingerprint to exactly one worker,
    so the per-worker caches behave like one shared cache.  Hits skip the
    engine, the execute span and the shard accumulator (hits must not drag
    the engine-execute percentiles down), and are flagged in the reply tuple.
    """
    shard = LatencyAccumulator(label=f"worker-{worker_id}")
    completed = 0
    failed = 0

    def run_query(request):
        with trace_span(
            "execute",
            engine_key=str(request.engine_key),
            user=request.user,
            method=request.method,
            group=request.group,
            worker=worker_id,
        ):
            return engine.query(
                user=request.user,
                k=request.k,
                method=request.method,
                exploration=request.exploration,
                epsilon=request.epsilon,
                delta=request.delta,
            )

    while True:
        try:
            message = requests.recv()
        except (EOFError, OSError):
            break
        if message[0] == "stop":
            break
        _, request_id, request = message
        started = time.monotonic()
        error: Optional[str] = None
        result = None
        cache_hit = False
        try:
            if answer_cache is not None and getattr(engine, "is_frozen", False):
                key = answer_key(engine, request)
                result, cache_hit = answer_cache.get_or_compute(
                    key, lambda: run_query(request)
                )
            else:
                result = run_query(request)
        except Exception as exc:
            error = f"{type(exc).__name__}: {exc}"
        execute_seconds = time.monotonic() - started
        if not cache_hit:
            shard.add(execute_seconds)
        if error is None:
            completed += 1
        else:
            failed += 1
        try:
            replies.send(
                ("result", worker_id, request_id, error, result, execute_seconds, cache_hit)
            )
        except OSError:
            break  # parent is gone; nothing left to answer to
        except Exception as exc:  # unpicklable result: degrade, don't die
            if error is None:
                completed -= 1
                failed += 1
            try:
                replies.send(
                    (
                        "result",
                        worker_id,
                        request_id,
                        f"WorkerError: worker {worker_id} could not serialize the "
                        f"result ({type(exc).__name__}: {exc})",
                        None,
                        execute_seconds,
                        cache_hit,
                    )
                )
            except (OSError, ValueError):
                break
    return shard, completed, failed


def _worker_main(
    worker_id: int,
    spec: EngineSpec,
    requests,
    replies,
    trace: bool = False,
    answer_cache_capacity: int = 0,
) -> None:
    """Entry point of one worker process: build the replica, then serve.

    Installs a **fresh** telemetry registry (and, with ``trace=True``, a
    fresh trace recorder) before doing any work: a forked child inherits the
    parent's counters, and shipping those back in the shutdown shard would
    double-count them.  The previous registry/recorder are restored on exit
    so the in-process fork-safety tests (which run this function in a thread)
    leave global state untouched.

    ``answer_cache_capacity`` > 0 equips the worker with a per-process
    :class:`~repro.serve.answers.AnswerCache` replica of that capacity;
    0 (the default) serves uncached.
    """
    previous_telemetry = install(Telemetry())
    previous_recorder = install_recorder(TraceRecorder() if trace else None)
    try:
        try:
            engine = build_engine_from_spec(spec)
        except BaseException as exc:
            try:
                replies.send(("fatal", worker_id, f"{type(exc).__name__}: {exc}"))
            except (OSError, ValueError):
                pass
            replies.close()
            return
        try:
            replies.send(("ready", worker_id))
        except (OSError, ValueError):
            replies.close()
            return
        answer_cache = (
            AnswerCache(capacity=answer_cache_capacity) if answer_cache_capacity > 0 else None
        )
        shard, completed, failed = _serve_requests(
            engine, worker_id, requests, replies, answer_cache=answer_cache
        )
        recorder = get_recorder()
        spans = recorder.spans() if recorder is not None else []
        try:
            replies.send(
                (
                    "shard",
                    worker_id,
                    shard,
                    completed,
                    failed,
                    get_telemetry().snapshot(),
                    spans,
                )
            )
        except (OSError, ValueError):
            pass
        replies.close()
    finally:
        install(previous_telemetry)
        install_recorder(previous_recorder)


# --------------------------------------------------------------- parent side
@dataclass
class _ProcPending:
    """One in-flight request on the parent side."""

    request: QueryRequest
    future: "Future[QueryResponse]"
    worker_id: int
    enqueued_monotonic: float = field(default_factory=time.monotonic)


class ProcessShardedService:
    """Fan queries out to N forked frozen-engine replicas, bitwise-safely.

    Mirrors the :class:`~repro.serve.service.PitexService` surface that
    :func:`~repro.serve.replay.replay_stream` consumes (``submit``,
    ``num_workers``, ``backend``, ``metrics``, context manager), so
    the two backends are drop-in interchangeable for replay and benchmarks.

    Parameters
    ----------
    spec:
        The :class:`EngineSpec` every worker reconstructs its replica from
        (see :func:`publish_engine_spec`).
    num_workers:
        Number of worker processes.  Requests are sharded deterministically
        by ``crc32(engine_key | user) % num_workers``, so a given user always
        lands on the same replica -- cache-friendly and reproducible.
    start_method:
        ``multiprocessing`` start method; defaults to ``"fork"`` where
        available (cheap start, inherits nothing mutable that matters --
        replicas rebuild from the store) and the platform default elsewhere.
        ``"spawn"`` works too: the spec is picklable by design.
    startup_timeout:
        Seconds to wait for every worker to report its replica ready;
        a worker that dies or reports a build failure raises
        :class:`~repro.exceptions.WorkerError` from the constructor.
    answer_cache:
        Equip every worker with a per-process
        :class:`~repro.serve.answers.AnswerCache` replica.  The by-user
        sharding sends each fingerprint to exactly one worker, so hit/miss
        totals across the replicas equal a single shared cache's (what the
        cross-backend telemetry gate compares).
    answer_cache_capacity:
        Per-worker cache capacity when ``answer_cache`` is enabled.
    """

    backend = "process"

    def __init__(
        self,
        spec: EngineSpec,
        num_workers: int = 2,
        start_method: Optional[str] = None,
        startup_timeout: float = 300.0,
        answer_cache: bool = False,
        answer_cache_capacity: int = DEFAULT_ANSWER_CAPACITY,
    ) -> None:
        if num_workers <= 0:
            raise InvalidParameterError(f"num_workers must be positive, got {num_workers}")
        if start_method is None:
            available = multiprocessing.get_all_start_methods()
            start_method = "fork" if "fork" in available else multiprocessing.get_start_method()
        context = multiprocessing.get_context(start_method)
        self.spec = spec
        self.start_method = start_method
        self.metrics = ServiceMetrics()
        self._condition = threading.Condition()
        self._send_locks = [threading.Lock() for _ in range(int(num_workers))]
        self._pending: Dict[int, _ProcPending] = {}
        self._next_request_id = 0
        self._closed = False
        self._ready = [False] * int(num_workers)
        self._shard_received = [False] * int(num_workers)
        self._fatal: List[Optional[str]] = [None] * int(num_workers)
        self._request_conns = []
        self._reply_conns = []
        self._processes = []
        for worker_id in range(int(num_workers)):
            request_recv, request_send = context.Pipe(duplex=False)
            reply_recv, reply_send = context.Pipe(duplex=False)
            # Tracing is decided at construction time: workers install their
            # own recorder when the parent has one, and ship spans back in
            # the shutdown shard (works under fork *and* spawn).
            process = context.Process(
                target=_worker_main,
                args=(
                    worker_id,
                    spec,
                    request_recv,
                    reply_send,
                    tracing_enabled(),
                    int(answer_cache_capacity) if answer_cache else 0,
                ),
                name=f"pitex-shard-{worker_id}",
                daemon=True,
            )
            process.start()
            # Parent-side handles of the child's pipe ends must close so the
            # parent sees EOF when (and only when) the child is gone.
            request_recv.close()
            reply_send.close()
            self._request_conns.append(request_send)
            self._reply_conns.append(reply_recv)
            self._processes.append(process)
        self._drainer = threading.Thread(
            target=self._drain_loop, name="pitex-shard-drain", daemon=True
        )
        self._drainer.start()
        self._wait_until_ready(startup_timeout)

    # ------------------------------------------------------------- lifecycle
    def _wait_until_ready(self, timeout: float) -> None:
        deadline = time.monotonic() + timeout
        with self._condition:
            while True:
                failures = [
                    f"worker {worker_id}: {message}"
                    for worker_id, message in enumerate(self._fatal)
                    if message is not None
                ]
                if failures:
                    break
                if all(self._ready):
                    return
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    failures = [f"startup timed out after {timeout:.0f}s"]
                    break
                self._condition.wait(remaining)
        self.close(wait=True)
        raise WorkerError("process backend failed to start: " + "; ".join(failures))

    @property
    def num_workers(self) -> int:
        """Number of worker processes (live or dead)."""
        return len(self._processes)

    def shard_of(self, request: QueryRequest) -> int:
        """Deterministic worker assignment for a request.

        ``crc32`` over a stable label -- builtin ``hash()`` is randomized per
        process (``PYTHONHASHSEED``) and would break the "same user, same
        replica" property across runs.
        """
        token = f"{request.engine_key}|{request.user}".encode()
        return zlib.crc32(token) % self.num_workers

    # ----------------------------------------------------------------- submit
    def submit(self, request: QueryRequest) -> "Future[QueryResponse]":
        """Queue one request on its shard; resolves to a :class:`QueryResponse`.

        A request sharded to a dead worker resolves immediately with a clean
        ``WorkerError`` message instead of hanging.  ``send`` applies natural
        backpressure: when a shard's pipe is full, ``submit`` blocks until
        the worker drains it.
        """
        future: "Future[QueryResponse]" = Future()
        worker_id = self.shard_of(request)
        dead_message: Optional[str] = None
        request_id = -1
        with self._condition:
            if self._closed:
                raise RuntimeError("ProcessShardedService is closed")
            if self._reply_conns[worker_id] is None:
                dead_message = self._fatal[worker_id] or "worker died"
            else:
                request_id = self._next_request_id
                self._next_request_id += 1
                self._pending[request_id] = _ProcPending(
                    request=request, future=future, worker_id=worker_id
                )
        if dead_message is not None:
            self._resolve_error(
                future, request, f"WorkerError: worker {worker_id} unavailable: {dead_message}"
            )
            return future
        try:
            with self._send_locks[worker_id]:
                self._request_conns[worker_id].send(("query", request_id, request))
        except (OSError, ValueError) as exc:
            with self._condition:
                pending = self._pending.pop(request_id, None)
            if pending is not None:
                self._resolve_error(
                    future,
                    request,
                    f"WorkerError: worker {worker_id} pipe broken: {type(exc).__name__}: {exc}",
                )
        return future

    def query(self, user: int, k: Optional[int] = None, method: str = "indexest+", **kwargs):
        """Synchronous convenience wrapper: submit, wait, unwrap or raise."""
        request = QueryRequest(user=user, k=k, method=method, **kwargs)
        response = self.submit(request).result()
        if not response.ok:
            raise WorkerError(f"query failed: {response.error}")
        return response.result

    def _resolve_error(self, future: "Future[QueryResponse]", request: QueryRequest, error: str) -> None:
        if not future.set_running_or_notify_cancel():
            return
        response = QueryResponse(request=request, error=error)
        self.metrics.record(response)
        future.set_result(response)

    # ---------------------------------------------------------------- drainer
    def _drain_loop(self) -> None:
        """Single reader of every reply pipe; EOF means the worker is gone."""
        while True:
            with self._condition:
                live = {
                    conn: worker_id
                    for worker_id, conn in enumerate(self._reply_conns)
                    if conn is not None
                }
            if not live:
                return
            for conn in connection.wait(list(live), timeout=0.5):
                worker_id = live[conn]
                try:
                    message = conn.recv()
                except (EOFError, OSError):
                    self._on_worker_eof(worker_id)
                    continue
                self._on_message(worker_id, message)

    def _on_message(self, worker_id: int, message: tuple) -> None:
        """Apply one worker reply.

        Parent and workers always run the same code, so each reply kind has
        one fixed shape: ``("ready", worker)``, ``("fatal", worker, error)``,
        ``("result", worker, request_id, error, result, execute_seconds,
        cache_hit)`` and ``("shard", worker, shard, completed, failed,
        telemetry_snapshot, spans)``.
        """
        kind = message[0]
        if kind == "ready":
            with self._condition:
                self._ready[worker_id] = True
                self._condition.notify_all()
        elif kind == "fatal":
            with self._condition:
                self._fatal[worker_id] = message[2]
                self._condition.notify_all()
        elif kind == "shard":
            _, _, shard, _, _, telemetry_snapshot, spans = message
            self.metrics.record_worker_shard(shard)
            with self._condition:
                self._shard_received[worker_id] = True
            self.metrics.record_worker_telemetry(shard.label, telemetry_snapshot)
            if spans:
                recorder = get_recorder()
                if recorder is not None:
                    recorder.extend(spans)
        elif kind == "result":
            _, _, request_id, error, result, execute_seconds, cache_hit = message
            with self._condition:
                pending = self._pending.pop(request_id, None)
            if pending is None:
                return  # cancelled or already failed over
            if not pending.future.set_running_or_notify_cancel():
                return
            queue_seconds = max(
                0.0,
                (time.monotonic() - pending.enqueued_monotonic) - execute_seconds,
            )
            response = QueryResponse(
                request=pending.request,
                result=result,
                error=error,
                queue_seconds=queue_seconds,
                execute_seconds=execute_seconds,
                cache_hit=cache_hit,
            )
            self.metrics.record(response)
            pending.future.set_result(response)

    def _on_worker_eof(self, worker_id: int) -> None:
        process = self._processes[worker_id]
        process.join(timeout=5.0)
        exit_code = process.exitcode
        with self._condition:
            conn = self._reply_conns[worker_id]
            if conn is not None:
                conn.close()
            self._reply_conns[worker_id] = None
            if self._fatal[worker_id] is None and not self._ready[worker_id]:
                self._fatal[worker_id] = f"died during startup (exit code {exit_code})"
            if not self._shard_received[worker_id]:
                # The worker is gone without delivering its shutdown shard; a
                # clean close always ships the shard before EOF (single FIFO
                # pipe, single drain thread), so this is a real death.  The
                # lost telemetry cannot be recovered -- count the loss
                # explicitly instead of silently under-reporting.
                counter("worker.deaths")
                if self._ready[worker_id]:
                    counter("worker.shards_lost")
            orphans = [
                (request_id, pending)
                for request_id, pending in self._pending.items()
                if pending.worker_id == worker_id
            ]
            for request_id, _ in orphans:
                del self._pending[request_id]
            self._condition.notify_all()
        for _, pending in orphans:
            self._resolve_error(
                pending.future,
                pending.request,
                f"WorkerError: worker {worker_id} died (exit code {exit_code}) "
                "with this request in flight",
            )

    # ------------------------------------------------------------------ close
    def close(self, wait: bool = True) -> None:
        """Stop accepting requests, drain in-flight work, reap the workers.

        Pipes are FIFO, so every request submitted before ``close`` is
        answered before the worker honors the ``stop`` -- same drain
        semantics as the thread backend.
        """
        with self._condition:
            first = not self._closed
            self._closed = True
        if first:
            for worker_id in range(self.num_workers):
                try:
                    with self._send_locks[worker_id]:
                        self._request_conns[worker_id].send(("stop",))
                        self._request_conns[worker_id].close()
                except (OSError, ValueError):
                    pass
        if not wait:
            return
        for process in self._processes:
            process.join(timeout=60.0)
            if process.is_alive():
                process.terminate()
                process.join(timeout=5.0)
        self._drainer.join(timeout=60.0)

    def __enter__(self) -> "ProcessShardedService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
