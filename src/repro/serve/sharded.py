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
  one raw ``.npy`` file per flat array, so replicas reconstruct from
  read-only ``mmap``'d views of those files
  (:meth:`IndexStore.load_graph_bundle` / :meth:`TopicSocialGraph.from_shared_arrays`)
  and the float payload lives in the page cache once, not N times.

:class:`EngineSpec` is the picklable recipe a worker needs (store root +
bundle key + engine/freeze parameters); :func:`build_engine_from_spec` turns
it into a frozen replica; :class:`ProcessShardedService` forks N workers,
sends each request to the live worker with the fewest requests in flight
(ties go to the user's ``crc32(engine_key | user)`` affinity shard -- stable
across processes, never builtin ``hash()``), speaks typed messages
(:class:`Query`, :class:`Reply`, ...) over per-worker pipes, and ends every
request through :func:`~repro.serve.service.end_request` into the parent's
:class:`~repro.serve.service.ServiceMetrics` (per-worker execute series are
keyed by the worker whose pipe carried the reply); each worker ships only
its telemetry and trace spans at shutdown.  Because every replica answers
bitwise alike, the route can follow load without changing an answer; only
per-worker answer caches pin requests to their affinity shard.

Concurrency contract: the parent object is thread-safe (``submit`` from any
thread).  Routing, in-flight counts, the pending table and orphaning live
in the :class:`~repro.serve.service.Dispatcher` the thread backend uses
too; here its slots are processes, which start, can fail to start and can
die.  It does no I/O, so tests drive it without processes.  Worker death
-- crash, unpicklable reply, failed replica build -- is detected via pipe
EOF and surfaces as a clean :class:`~repro.exceptions.WorkerError`-tagged
error response on every affected future instead of a hang.  The thread
backend remains the bitwise reference oracle; equivalence is enforced by
``tests/test_serve_process.py`` and the ``bench_serving`` process leg.
"""

from __future__ import annotations

import multiprocessing
import threading
import zlib
from concurrent.futures import Future
from dataclasses import dataclass, replace
from multiprocessing import connection
from typing import List, Optional, Tuple

from repro.core.engine import PitexEngine
from repro.exceptions import InvalidParameterError, StoreError, WorkerError
from repro.obs.telemetry import Telemetry, counter, get_telemetry, install
from repro.obs.trace import TraceRecorder, get_recorder, install_recorder, tracing_enabled
from repro.serve.answers import DEFAULT_ANSWER_CAPACITY, AnswerCache
from repro.serve.service import (
    READY,
    Dispatcher,
    Outcome,
    Pending,
    QueryRequest,
    QueryResponse,
    ServiceMetrics,
    WorkerSlot,
    end_request,
    execute_request,
)
from repro.serve.store import IndexStore, seed_tag

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
    methods: Tuple[str, ...] = ("indexest",)
    ks: Tuple[int, ...] = ()
    mmap: bool = True
    # Build the freeze-time per-user tables (repro.index.tables) in every
    # replica; same-seed replicas derive identical tables, so this preserves
    # bitwise equality with the thread oracle.
    precompute_tables: bool = True
    # The integer seed the published indexes were drawn from (None: the
    # build was unseeded); a replica loads no index drawn from another seed.
    index_seed: Optional[int] = None


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
    index_seed=None,
    mmap: bool = True,
    precompute_tables: bool = True,
) -> EngineSpec:
    """Persist everything workers need and return the matching spec.

    Saves the shared graph+model bundle and load-or-builds the offline
    indexes the listed ``methods`` require, so a worker's
    :func:`build_engine_from_spec` is guaranteed to find every entry.
    Everything is published from one ``graph.snapshot()``, so the bundle and
    the indexes name the same version even when a write lands mid-publish.
    Idempotent: re-publishing identical content lands on the same store keys.
    """
    graph = graph.snapshot()
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
        methods=lowered,
        ks=tuple(int(k) for k in ks),
        mmap=mmap,
        precompute_tables=precompute_tables,
        index_seed=seed_tag(index_seed),
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
        rr_index = store.load_rr_index(
            graph, model, spec.index_samples, mmap=spec.mmap, index_seed=spec.index_seed
        )
        if rr_index is None:
            raise StoreError(
                f"no persisted RR index for bundle {spec.bundle_key!r} at "
                f"theta={spec.index_samples}, seed={spec.index_seed} in {spec.store_root!r}"
            )
    if any(method in DELAYED_METHODS for method in methods):
        delayed_index = store.load_delayed_index(
            graph, model, spec.index_samples, mmap=spec.mmap, index_seed=spec.index_seed
        )
        if delayed_index is None:
            raise StoreError(
                f"no persisted delayed index for bundle {spec.bundle_key!r} at "
                f"theta={spec.index_samples}, seed={spec.index_seed} in {spec.store_root!r}"
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
        rr_index=rr_index,
        delayed_index=delayed_index,
    )
    engine.freeze(
        methods=methods, ks=spec.ks or None, precompute_tables=spec.precompute_tables
    )
    return engine


# ------------------------------------------------------------- pipe messages
# One frozen, slotted dataclass per message kind, at module level so every
# start method can pickle it.  Parent and workers always run the same tree,
# so no message carries a version, and no reply names its worker: the parent
# knows the sender from the pipe it read.  ``Stop`` cannot be replaced by
# closing the pipe: under ``fork`` every later worker inherits the earlier
# workers' request ends, so the parent's close alone never gives EOF.
@dataclass(frozen=True, slots=True)
class Query:
    """Parent to worker: run ``request`` and reply under ``request_id``."""

    request_id: int
    request: QueryRequest


@dataclass(frozen=True, slots=True)
class Stop:
    """Parent to worker: no more requests."""


@dataclass(frozen=True, slots=True)
class Ready:
    """Worker to parent: the replica is built and frozen."""


@dataclass(frozen=True, slots=True)
class Fatal:
    """Worker to parent: the replica could not be built; the worker exits."""

    error: str


@dataclass(frozen=True, slots=True)
class Reply:
    """Worker to parent: how the request ``request_id`` ended."""

    request_id: int
    outcome: Outcome


@dataclass(frozen=True, slots=True)
class Shard:
    """Worker to parent, last at a clean shutdown: its telemetry and trace spans."""

    telemetry: dict
    spans: list


# --------------------------------------------------------------- worker side
def _serve_requests(
    engine: PitexEngine,
    worker_id: int,
    requests,
    replies,
    answer_cache: Optional[AnswerCache] = None,
):
    """Drain the request pipe until EOF or :class:`Stop`, replying to each :class:`Query`.

    Factored out of :func:`_worker_main` so the loop is unit-testable
    in-process (the fork-safety tests drive it with plain ``Pipe`` ends).
    An unpicklable result degrades to an error reply; a broken reply pipe
    ends the loop -- the parent sees EOF either way.

    ``answer_cache`` (when given) memoizes frozen answers per worker; the
    parent then routes every request to its affinity shard, so the
    per-worker caches behave like one shared cache.  The outcome flags
    hits, which the parent keeps out of the engine-execute percentiles.
    """
    while True:
        try:
            message = requests.recv()
        except (EOFError, OSError):
            break
        if isinstance(message, Stop):
            break
        outcome = execute_request(engine, message.request, answer_cache, worker=worker_id)
        try:
            replies.send(Reply(message.request_id, outcome))
        except OSError:
            break  # parent is gone; nothing left to answer to
        except Exception as exc:  # unpicklable result: degrade, don't die
            error = f"WorkerError: worker {worker_id} could not serialize the result ({type(exc).__name__}: {exc})"
            try:
                replies.send(Reply(message.request_id, replace(outcome, result=None, error=error)))
            except (OSError, ValueError):
                break


def _worker_main(
    worker_id: int,
    spec: EngineSpec,
    requests,
    replies,
    trace: bool = False,
    answer_cache: bool = False,
) -> None:
    """Entry point of one worker process: build the replica, then serve.

    Installs a **fresh** telemetry registry (and, with ``trace=True``, a
    fresh trace recorder) before doing any work: a forked child inherits the
    parent's counters, and shipping those back in the shutdown shard would
    double-count them.  The previous registry/recorder are restored on exit
    so the in-process fork-safety tests (which run this function in a thread)
    leave global state untouched.

    ``answer_cache=True`` equips the worker with a per-process
    :class:`~repro.serve.answers.AnswerCache` replica of the default
    capacity; the default serves uncached.
    """
    previous_telemetry = install(Telemetry())
    previous_recorder = install_recorder(TraceRecorder() if trace else None)
    try:
        try:
            engine, status = build_engine_from_spec(spec), Ready()
        except BaseException as exc:
            engine, status = None, Fatal(f"{type(exc).__name__}: {exc}")
        try:
            replies.send(status)
        except (OSError, ValueError):
            engine = None  # the parent is gone
        if engine is not None:
            cache = AnswerCache(capacity=DEFAULT_ANSWER_CAPACITY) if answer_cache else None
            _serve_requests(engine, worker_id, requests, replies, answer_cache=cache)
            recorder = get_recorder()
            try:
                replies.send(Shard(get_telemetry().snapshot(), recorder.spans() if recorder is not None else []))
            except (OSError, ValueError):
                pass
        replies.close()
    finally:
        install(previous_telemetry)
        install_recorder(previous_recorder)


# --------------------------------------------------------------- parent side
# Seconds to wait for every worker to report its replica ready.
STARTUP_TIMEOUT = 300.0


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
        Number of worker processes.  Each request has an affinity shard,
        ``crc32(engine_key | user) % num_workers`` (:meth:`shard_of`), and
        runs on the live worker with the fewest requests in flight, ties
        going to the affinity shard, then the lowest id.  Any replica gives
        the same bits, so routing by load never changes an answer.  A
        request whose affinity shard is dead fails with a ``WorkerError``
        response rather than moving to a peer.
    start_method:
        ``multiprocessing`` start method; defaults to ``"fork"`` where
        available (cheap start, inherits nothing mutable that matters --
        replicas rebuild from the store) and the platform default elsewhere.
        ``"spawn"`` works too: the spec is picklable by design.  A worker
        that dies or reports a build failure before every worker is ready
        (or a start-up past :data:`STARTUP_TIMEOUT`) raises
        :class:`~repro.exceptions.WorkerError` from the constructor.
    answer_cache:
        Equip every worker with a per-process
        :class:`~repro.serve.answers.AnswerCache` replica.  Requests then
        always run on their affinity shard, so each fingerprint reaches
        exactly one cache replica and the hit/miss totals across the
        replicas equal a single shared cache's (what the cross-backend
        telemetry gate compares).
    """

    backend = "process"

    def __init__(
        self,
        spec: EngineSpec,
        num_workers: int = 2,
        start_method: Optional[str] = None,
        answer_cache: bool = False,
    ) -> None:
        if num_workers <= 0:
            raise InvalidParameterError(f"num_workers must be positive, got {num_workers}")
        if start_method is None and "fork" in multiprocessing.get_all_start_methods():
            start_method = "fork"
        context = multiprocessing.get_context(start_method)
        self.metrics = ServiceMetrics()
        self._workers: List[WorkerSlot] = []
        for worker_id in range(int(num_workers)):
            request_recv, request_send = context.Pipe(duplex=False)
            reply_recv, reply_send = context.Pipe(duplex=False)
            # Tracing is decided at construction time: workers install their
            # own recorder when the parent has one, and ship spans back in
            # the shutdown shard (works under fork *and* spawn).
            process = context.Process(
                target=_worker_main,
                args=(worker_id, spec, request_recv, reply_send, tracing_enabled(), bool(answer_cache)),
                name=f"pitex-shard-{worker_id}",
                daemon=True,
            )
            process.start()
            # Parent-side handles of the child's pipe ends must close so the
            # parent sees EOF when (and only when) the child is gone.
            request_recv.close()
            reply_send.close()
            self._workers.append(WorkerSlot(runner=process, inbox=request_send, reply_conn=reply_recv))
        self._dispatch = Dispatcher(self._workers, answer_cache=bool(answer_cache))
        self._drainer = threading.Thread(target=self._drain_loop, name="pitex-shard-drain", daemon=True)
        self._drainer.start()
        failures = self._dispatch.wait_started(STARTUP_TIMEOUT)
        if failures:
            self.close()
            raise WorkerError("process backend failed to start: " + "; ".join(failures))

    @property
    def num_workers(self) -> int:
        """Number of worker processes (live or dead)."""
        return len(self._workers)

    def shard_of(self, request: QueryRequest) -> int:
        """The request's affinity shard: the worker its user is planned on.

        ``crc32`` over a stable label -- builtin ``hash()`` is randomized per
        process (``PYTHONHASHSEED``) and would break "same user, same shard"
        across runs.  With ``answer_cache=True`` every request runs here;
        otherwise :meth:`submit` moves it to a less loaded live worker, and
        the affinity shard only breaks ties.  Either way the answer is the
        same, and a dead affinity shard fails the request.
        """
        token = f"{request.engine_key}|{request.user}".encode()
        return zlib.crc32(token) % self.num_workers

    # ----------------------------------------------------------------- submit
    def submit(self, request: QueryRequest) -> "Future[QueryResponse]":
        """Queue one request on a worker; resolves to a :class:`QueryResponse`.

        The request runs on the least-loaded live worker (see
        :meth:`shard_of` for when it stays on its affinity shard).  A request
        whose affinity shard is dead resolves immediately with a clean
        ``WorkerError`` message instead of hanging.  ``send`` applies natural
        backpressure: when a worker's pipe is full, ``submit`` blocks until
        the worker drains it.
        """
        future: "Future[QueryResponse]" = Future()
        pending = Pending(request=request, future=future)
        request_id, error = self._dispatch.submit(pending, self.shard_of(request))
        if error is None:
            slot = self._workers[pending.worker]
            try:
                with slot.send_lock:
                    slot.inbox.send(Query(request_id, request))
            except (OSError, ValueError) as exc:
                if self._dispatch.release(request_id) is not None:
                    error = f"WorkerError: worker {pending.worker} pipe broken: {type(exc).__name__}: {exc}"
        if error is not None:
            end_request(self.metrics, pending, Outcome(error=error))
        return future

    # ---------------------------------------------------------------- drainer
    def _drain_loop(self) -> None:
        """Single reader of every reply pipe; EOF means the worker is gone."""
        while True:
            live = {self._workers[w].reply_conn: w for w in self._dispatch.live()}
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

    def _on_message(self, worker_id: int, message) -> None:
        """Apply one :class:`Reply`, :class:`Ready`, :class:`Fatal` or :class:`Shard` from ``worker_id``.

        The drainer knows the sender from the pipe it read.  A reply to a
        request that already ended is dropped.
        """
        if isinstance(message, Reply):
            pending = self._dispatch.release(message.request_id)
            if pending is not None:
                end_request(self.metrics, pending, message.outcome, worker=worker_id)
        elif isinstance(message, Ready):
            self._dispatch.ready(worker_id)
        elif isinstance(message, Fatal):
            self._dispatch.failed(worker_id, message.error)
        elif isinstance(message, Shard):
            self._dispatch.shard_received(worker_id)
            self.metrics.record_worker_telemetry(f"worker-{worker_id}", message.telemetry)
            recorder = get_recorder()
            if message.spans and recorder is not None:
                recorder.extend(message.spans)

    def _on_worker_eof(self, worker_id: int) -> None:
        slot = self._workers[worker_id]
        slot.runner.join(timeout=5.0)
        exit_code = slot.runner.exitcode
        # Only this thread reports a worker's state and shard, so both read
        # exactly here.  A clean close ships the shard before EOF (one FIFO
        # pipe, one drain thread), so a missing shard is a real death whose
        # telemetry is lost: count it rather than under-report silently.
        if not slot.shard_received:
            counter("worker.deaths")
            if slot.state == READY:
                counter("worker.shards_lost")
        orphans = self._dispatch.died(worker_id, exit_code)
        slot.reply_conn.close()
        error = f"WorkerError: worker {worker_id} died (exit code {exit_code}) with this request in flight"
        for pending in orphans:
            end_request(self.metrics, pending, Outcome(error=error))

    # ------------------------------------------------------------------ close
    def close(self) -> None:
        """Stop accepting requests, drain in-flight work, reap the workers.

        Pipes are FIFO, so every request submitted before ``close`` is
        answered before the worker honors the :class:`Stop` -- same drain
        semantics as the thread backend.
        """
        if self._dispatch.close():
            for slot in self._workers:
                try:
                    with slot.send_lock:
                        slot.inbox.send(Stop())
                        slot.inbox.close()
                except (OSError, ValueError):
                    pass
        for slot in self._workers:
            slot.runner.join(timeout=60.0)
            if slot.runner.is_alive():
                slot.runner.terminate()
                slot.runner.join(timeout=5.0)
        self._drainer.join(timeout=60.0)

    def __enter__(self) -> "ProcessShardedService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
