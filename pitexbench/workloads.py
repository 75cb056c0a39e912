"""The benchmark's three closed-loop workloads and their correctness checks.

Every run of a workload does the same algorithmic work for a given seed and
run length: the read list, the warm-up reads and the inserted edges are drawn
up front from the seed (:func:`make_plan`), the dataset and the engine seed
are fixed, and the list is replayed once, whatever the speed of the machine.
Only the program's public API is used: :mod:`repro.core` engines,
:mod:`repro.serve` services and caches.
"""

from __future__ import annotations

import bisect
import gc
import itertools
import math
import multiprocessing
import pickle
import random
import shutil
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.engine import PitexEngine
from repro.datasets.synthetic import load_dataset
from repro.obs.telemetry import deterministic_counters, get_telemetry
from repro.serve import sharded
from repro.serve.answers import AnswerCache, answer_digest
from repro.serve.cache import EngineCache
from repro.serve.service import DEFAULT_ENGINE_KEY, PitexService, QueryRequest, QueryResponse
from repro.serve.store import IndexStore

from pitexbench.measure import (
    MIN_SAMPLES_BEYOND,
    busy_cpu_seconds,
    peak_rss_mib,
    samples_needed,
    speed_probe,
)

# The dataset and the engine seed are fixed; the workload seed only chooses
# the requests, so set-up does identical work in every run.
DATASET = {"name": "lastfm", "scale": 0.35, "num_tags": 25, "seed": 2017}
ENGINE = {
    "epsilon": 0.7,
    "delta": 1000.0,
    "max_samples": 200,
    "index_samples": 200,
    "default_k": 2,
    "seed": 7,
}
K = 2
MIN_TIMED_READS = samples_needed(0.9, MIN_SAMPLES_BEYOND)  # p90 with 10 beyond it
SPOT_CHECKS = 3
WARMUP_READS = 3
# The timed replay is cut into rounds with a host speed probe between them.
ROUNDS = 20
# The program must be idle while the speed probe runs: the CPU time its other
# threads and workers use during the probes may be at most this share of the
# probes' wall time, or the probe would read the program's own load.
MAX_PROBE_BUSY_SHARE = 0.1


@dataclass(frozen=True)
class Workload:
    """One seeded traffic mix against one service configuration.

    ``reads_per_second`` is a nominal rate: ``--seconds`` times it fixes the
    length of the read list, so the amount of work depends on the arguments
    only, never on how fast the host happens to be.
    """

    name: str
    method: str
    backend: str
    clients: int
    reads_per_second: float
    setups: int
    zipf_s: float = 0.0
    reads_per_write: int = 0
    workers: int = 1

    @property
    def distinct(self) -> bool:
        """Whether every read is a distinct fingerprint (no zipf repeats)."""
        return self.zipf_s == 0.0


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="index-cold",
            method="indexest+",
            backend="thread",
            clients=1,
            reads_per_second=14.0,
            setups=6,
        ),
        Workload(
            name="lazy-proc",
            method="lazy-batched",
            backend="process",
            clients=2,
            workers=2,
            reads_per_second=13.0,
            setups=10,
        ),
        Workload(
            name="zipf-write",
            method="indexest+",
            backend="thread",
            clients=1,
            reads_per_second=11.0,
            setups=8,
            zipf_s=1.2,
            reads_per_write=20,
        ),
    )
}


# ---------------------------------------------------------------- the inputs
@dataclass
class Plan:
    """Everything a run sends, derived from the workload seed alone."""

    workload: Workload
    seed: int
    reads: List[Tuple[str, int]]
    warmup: List[Tuple[str, int]]
    writes: List[Tuple[int, int, List[float]]]

    def write_before(self, index: int) -> Optional[int]:
        """The write issued just before read ``index``, if any."""
        every = self.workload.reads_per_write
        if not every or index == 0 or index % every:
            return None
        return index // every - 1

    def samples(self) -> Dict[str, int]:
        """Sample counts behind each reported figure."""
        return {
            "reads": len(self.reads),
            "writes": len(self.writes),
            "setups": self.workload.setups,
            "warmup_reads": len(self.warmup),
        }


def load_fixed_dataset():
    """The benchmark's dataset: fixed, so only the requests vary with the seed."""
    return load_dataset(
        DATASET["name"],
        scale=DATASET["scale"],
        num_tags=DATASET["num_tags"],
        seed=DATASET["seed"],
    )


def stratified(members: Sequence[int], count: int, rng: random.Random) -> List[int]:
    """``count`` distinct members, one from each equal slice of ``members``.

    The member lists are sorted by out-degree, so every seed draws users of
    the same degree profile; only the individual users change.
    """
    picks = []
    for slot in range(count):
        low = slot * len(members) // count
        high = (slot + 1) * len(members) // count
        picks.append(members[rng.randrange(low, high)])
    return picks


def make_plan(workload: Workload, seed: int, seconds: float, dataset) -> Plan:
    """Draw the run's read list, warm-up reads and inserted edges from ``seed``."""
    rng = random.Random(f"{workload.name}|{seed}")
    groups = dataset.query_workload.groups
    # Every cold start, and every refresh after a write, is timed up to a read
    # of the same user whatever the seed: the median mid-degree user.
    middle = ("mid", groups["mid"][len(groups["mid"]) // 2])
    count = max(MIN_TIMED_READS, round(seconds * workload.reads_per_second))
    writes: List[Tuple[int, int, List[float]]] = []
    if workload.distinct:
        # Population shares: one user from each equal slice of all query
        # users ranked by out-degree, so the groups of Sec. 7.1 (top 1 %,
        # next 9 %, rest) keep their population sizes in the read list.
        ranked = groups["high"] + groups["mid"] + groups["low"]
        if count > len(ranked):
            raise ValueError(f"{count} distinct reads exceed the dataset's {len(ranked)} users")
        group_of = {user: name for name in ("high", "mid", "low") for user in groups[name]}
        reads = [(group_of[user], user) for user in stratified(ranked, count, rng)]
        rng.shuffle(reads)
        used = {user for _, user in reads}
        spare = [user for user in groups["low"] if user not in used]
        warmup = [("low", user) for user in rng.sample(spare, WARMUP_READS - 1)]
    else:
        every = workload.reads_per_write
        reads = zipf_reads(groups, count, every, workload.zipf_s, rng, opener=middle)
        warmup = [("low", user) for user in rng.sample(groups["low"], WARMUP_READS - 1)]
        writes = draw_edges(dataset.graph, groups["low"], (count - 1) // every, rng)
    warmup.insert(0, middle)
    return Plan(workload=workload, seed=seed, reads=reads, warmup=warmup, writes=writes)


def zipf_reads(
    groups: Dict[str, List[int]],
    count: int,
    every: int,
    zipf_s: float,
    rng: random.Random,
    opener: Tuple[str, int],
) -> List[Tuple[str, int]]:
    """Head-skewed reads whose mix is the same for every seed.

    As in ``QueryWorkload.query_stream``, the member at out-degree rank ``r``
    of a group has weight ``1 / (r + 1) ** zipf_s`` and the groups share the
    reads equally.  The draws are stratified per epoch (the ``every`` reads
    between two writes): an epoch opens with the ``opener`` read, and the ``n``
    draws of a group in an epoch take one uniform from each of ``n`` equal
    slices of [0, 1).  The seed moves users within those slices and the
    order of reads, not the shape of the traffic.
    """
    names = ("high", "mid", "low")
    cumulative = {}
    for name in names:
        weights = [1.0 / (rank + 1) ** zipf_s for rank in range(len(groups[name]))]
        total = sum(weights)
        cumulative[name] = [running / total for running in itertools.accumulate(weights)]
    reads: List[Tuple[str, int]] = []
    for start in range(0, count, every):
        size = min(every, count - start)
        order = [names[slot % len(names)] for slot in range(size - 1)]
        rng.shuffle(order)
        ranks = {}
        for name in names:
            draws = order.count(name)
            ranks[name] = [
                bisect.bisect_left(cumulative[name], (slot + rng.random()) / draws)
                for slot in range(draws)
            ]
            rng.shuffle(ranks[name])
        reads.append(opener)
        for name in order:
            rank = min(ranks[name].pop(), len(groups[name]) - 1)
            reads.append((name, groups[name][rank]))
    return reads


def draw_edges(
    graph, members: Sequence[int], count: int, rng: random.Random
) -> List[Tuple[int, int, List[float]]]:
    """``count`` new weak edges between ``members``, each live on two topics.

    The writes exist to exercise the refresh path (version bump, engine
    rebuild, answer-cache epoch roll).  Weak edges between low-degree users
    keep every seed's graph, and so its query costs, close to the original.
    """
    edges: List[Tuple[int, int, List[float]]] = []
    taken = set()
    while len(edges) < count:
        source, target = rng.sample(members, 2)
        if (source, target) in taken or graph.has_edge(source, target):
            continue
        taken.add((source, target))
        probabilities = [0.0] * graph.num_topics
        for topic in rng.sample(range(graph.num_topics), 2):
            probabilities[topic] = round(rng.uniform(0.01, 0.05), 3)
        edges.append((source, target, probabilities))
    return edges


# ----------------------------------------------------------------- set-up
@dataclass
class Deployment:
    """A started service plus what the timed phase needs to drive it."""

    service: object
    engine: Callable[[], Optional[PitexEngine]]
    close: Callable[[], None]
    engine_builds: Callable[[], int] = lambda: 0
    refresh: Callable[[], object] = lambda: None
    answer_cache: Optional[AnswerCache] = None
    worker_start_seconds: float = 0.0


def _engine(graph, model) -> PitexEngine:
    return PitexEngine(graph, model, **ENGINE)


def deploy_thread(workload: Workload, graph, model) -> Deployment:
    """One frozen engine behind a one-thread :class:`PitexService`."""
    engine = _engine(graph, model)
    engine.freeze(methods=(workload.method,), ks=(K,))
    service = PitexService.for_engine(engine, num_workers=1, max_batch=1)

    def close() -> None:
        service.close()
        engine.thaw()

    return Deployment(service=service, engine=lambda: engine, close=close)


def deploy_cached(workload: Workload, graph, model) -> Deployment:
    """:class:`EngineCache` + :class:`AnswerCache` in front of a thread service.

    The first engine is built and frozen here; after a graph mutation the
    writer refreshes it through the same ``EngineCache.get_or_create`` call
    the service makes, which rebuilds and refreezes it.  The factory freezes
    without the per-user tables, which a refresh would otherwise rebuild for
    every user.
    """
    engine_cache = EngineCache(capacity=2, freeze=True, freeze_methods=(workload.method,))
    answers = AnswerCache()
    current: List[PitexEngine] = []
    builds = [0]

    def factory() -> PitexEngine:
        engine = _engine(graph, model)
        # Rebuilding every user's cut table on each write would dominate the
        # refresh; queries derive their own user's table instead.
        engine.freeze(methods=(workload.method,), ks=(K,), precompute_tables=False)
        current[:] = [engine]
        builds[0] += 1
        return engine

    def provider(key):
        return engine_cache.get_or_create(key, factory)

    provider(DEFAULT_ENGINE_KEY)
    service = PitexService(provider, num_workers=1, max_batch=1, answer_cache=answers)

    def close() -> None:
        service.close()
        current[0].thaw()

    return Deployment(
        service=service,
        engine=lambda: current[0],
        close=close,
        engine_builds=lambda: builds[0],
        refresh=lambda: provider(DEFAULT_ENGINE_KEY),
        answer_cache=answers,
    )


def deploy_process(workload: Workload, graph, model, work_dir: Path) -> Deployment:
    """Publish the engine spec to a fresh store and fork the sharded service."""
    store_dir = Path(tempfile.mkdtemp(prefix="store-", dir=work_dir))
    spec = sharded.publish_engine_spec(
        IndexStore(store_dir),
        graph,
        model,
        engine_seed=ENGINE["seed"],
        index_samples=ENGINE["index_samples"],
        methods=(workload.method,),
        ks=(K,),
        epsilon=ENGINE["epsilon"],
        delta=ENGINE["delta"],
        max_samples=ENGINE["max_samples"],
        default_k=ENGINE["default_k"],
    )
    started = time.perf_counter()
    service = sharded.ProcessShardedService(spec, num_workers=workload.workers)
    worker_start = time.perf_counter() - started

    def close() -> None:
        service.close()
        shutil.rmtree(store_dir, ignore_errors=True)

    return Deployment(
        service=service, engine=lambda: None, close=close, worker_start_seconds=worker_start
    )


def deploy(workload: Workload, graph, model, work_dir: Path) -> Deployment:
    """Start the workload's service (what ``setup_s`` times)."""
    if workload.backend == "process":
        return deploy_process(workload, graph, model, work_dir)
    if workload.reads_per_write:
        return deploy_cached(workload, graph, model)
    return deploy_thread(workload, graph, model)


# ------------------------------------------------------------- timed phase
@dataclass
class Phase:
    """What one set-up + timed replay measured and checked.

    Timings are raw seconds.  ``setup_probes`` and ``probes`` hold, for each
    set-up and each round, the mean of the
    :func:`~pitexbench.measure.speed_probe` readings taken just before and
    just after it; the reported figures are scaled to a reference host speed
    with them.
    """

    setup_seconds: List[float] = field(default_factory=list)
    first_read_seconds: List[float] = field(default_factory=list)
    setup_probes: List[float] = field(default_factory=list)
    worker_start_seconds: List[float] = field(default_factory=list)
    latencies: List[Optional[float]] = field(default_factory=list)
    read_rounds: List[int] = field(default_factory=list)
    refresh: List[Tuple[int, float]] = field(default_factory=list)
    round_seconds: List[float] = field(default_factory=list)
    probes: List[float] = field(default_factory=list)
    responses: List[Optional[QueryResponse]] = field(default_factory=list)
    round_windows: List[Tuple[float, float]] = field(default_factory=list)
    probe_seconds: float = 0.0
    probe_busy_seconds: float = 0.0
    reads_failed: int = 0
    writes_attempted: int = 0
    writes_failed: int = 0
    rebuilds: int = 0
    invalidations: int = 0
    counters: Dict[str, int] = field(default_factory=dict)
    digest: str = ""
    rss_mib: float = 0.0
    shard_counts: List[int] = field(default_factory=list)
    problems: List[str] = field(default_factory=list)

    @property
    def completed(self) -> int:
        """Reads that returned an answer."""
        return len(self.responses) - self.reads_failed

    def hits(self) -> int:
        """Reads answered from the answer cache."""
        return sum(1 for response in self.responses if response is not None and response.cache_hit)


def _request(workload: Workload, read: Tuple[str, int]) -> QueryRequest:
    group, user = read
    return QueryRequest(user=user, k=K, method=workload.method, group=group)


def _ask(service, request: QueryRequest) -> Tuple[QueryResponse, float]:
    started = time.perf_counter()
    response = service.submit(request).result()
    return response, time.perf_counter() - started


def idle_probe(phase: Phase) -> float:
    """One :func:`~pitexbench.measure.speed_probe` reading, with an idle check.

    Adds the probe's wall time, and the CPU time the program's other threads
    and worker processes used meanwhile, to the phase; :func:`run_phase`
    fails the run when the program was not idle.
    """
    children = [child.pid for child in multiprocessing.active_children()]
    busy = busy_cpu_seconds(children)
    started = time.perf_counter()
    reading = speed_probe()
    phase.probe_seconds += time.perf_counter() - started
    phase.probe_busy_seconds += busy_cpu_seconds(children) - busy
    return reading


def run_phase(plan: Plan, dataset, work_dir: Path) -> Phase:
    """Cold-start the service ``setups`` times and replay the plan once.

    Read-only workloads spread their cold starts over the run: the rounds
    are split into one segment per set-up, each served by a fresh
    deployment, so set-up samples meet the same host-speed drift as the
    reads.  ``zipf-write`` mutates its graph, so one deployment serves the
    whole replay and its other set-ups are closed right away.  ``dataset``
    must be freshly loaded for the same reason.
    """
    workload = plan.workload
    graph, model = dataset.graph, dataset.model
    phase = Phase(
        responses=[None] * len(plan.reads),
        latencies=[None] * len(plan.reads),
        read_rounds=[0] * len(plan.reads),
    )
    segments = 1 if workload.reads_per_write else workload.setups
    first_serving = workload.setups - segments
    first_request = _request(workload, plan.warmup[0])
    telemetry_before = get_telemetry().counters()
    writes = WriteLog()
    gc.collect()
    probe = idle_probe(phase)
    for setup_index in range(workload.setups):
        gc.collect()
        started = time.perf_counter()
        deployment = deploy(workload, graph, model, work_dir)
        phase.setup_seconds.append(time.perf_counter() - started)
        phase.worker_start_seconds.append(deployment.worker_start_seconds)
        try:
            response, seconds = _ask(deployment.service, first_request)
            phase.first_read_seconds.append(seconds)
            warmups = [response]
            if setup_index == 0:
                for read in plan.warmup[1:]:
                    warmups.append(_ask(deployment.service, _request(workload, read))[0])
            for response in warmups:
                if not response.ok:
                    phase.problems.append(f"warm-up read failed: {response.error}")
            if deployment.answer_cache is not None:
                deployment.answer_cache.clear()
            after = idle_probe(phase)
            phase.setup_probes.append((probe + after) / 2.0)
            probe = after
            if setup_index >= first_serving:
                segment = setup_index - first_serving
                rounds = range(segment * ROUNDS // segments, (segment + 1) * ROUNDS // segments)
                probe = replay(plan, deployment, graph, phase, rounds, probe, writes)
            if setup_index == workload.setups - 1:
                children = [child.pid for child in multiprocessing.active_children()]
                phase.rss_mib = peak_rss_mib(children)
                if writes.marks:
                    writes.mark(deployment)
        finally:
            deployment.close()
        if workload.backend == "process":
            service_counters = deployment.service.metrics.telemetry()["deterministic"]
            for name, value in service_counters.items():
                phase.counters[name] = phase.counters.get(name, 0) + value
    if workload.backend == "thread":
        delta = {
            name: value - telemetry_before.get(name, 0)
            for name, value in get_telemetry().counters().items()
            if value != telemetry_before.get(name, 0)
        }
        phase.counters = deterministic_counters(delta)
    else:
        phase.shard_counts = [0] * workload.workers
        for read in plan.reads:
            phase.shard_counts[deployment.service.shard_of(_request(workload, read))] += 1
    phase.reads_failed = sum(1 for response in phase.responses if not response.ok)
    for response in phase.responses:
        if not response.ok:
            phase.problems.append(f"read of user {response.request.user} failed: {response.error}")
    if workload.reads_per_write:
        check_writes(plan, phase, writes)
    if phase.probe_busy_seconds > MAX_PROBE_BUSY_SHARE * phase.probe_seconds:
        phase.problems.append(
            f"the program used {phase.probe_busy_seconds:.3f} s of CPU during "
            f"{phase.probe_seconds:.3f} s of speed probes; it must be idle between rounds"
        )
    phase.digest = answer_digest(
        response.result if response.ok else None for response in phase.responses
    )
    return phase


@dataclass
class WriteLog:
    """``(engine builds, answer-cache invalidations)`` at each write and at the end."""

    marks: List[Tuple[int, int]] = field(default_factory=list)

    def mark(self, deployment: Deployment) -> None:
        """Record the deployment's build and invalidation counts now."""
        self.marks.append(
            (deployment.engine_builds(), deployment.answer_cache.stats.invalidations)
        )


def replay(
    plan: Plan,
    deployment: Deployment,
    graph,
    phase: Phase,
    rounds: Sequence[int],
    probe: float,
    writes: WriteLog,
) -> float:
    """Replay ``rounds`` of the read list (and writes) with closed-loop clients.

    Each round is a consecutive slice of the list.  The clients drain a
    round, then the host speed is probed while the service is idle; returns
    the last probe reading.
    """
    workload = plan.workload
    service = deployment.service
    reads = plan.reads

    def write(index: int) -> float:
        """Insert one edge and refresh the engine; returns the seconds taken."""
        source, target, probabilities = plan.writes[index]
        started = time.perf_counter()
        phase.writes_attempted += 1
        writes.mark(deployment)
        try:
            deployment.engine().thaw()
            graph.add_edge(source, target, probabilities)
            deployment.refresh()
        except Exception as exc:  # reported as a failed write, never hidden
            phase.writes_failed += 1
            phase.problems.append(f"write {index} failed: {type(exc).__name__}: {exc}")
        return time.perf_counter() - started

    def client(round_index: int, indices: Sequence[int]) -> None:
        for index in indices:
            phase.read_rounds[index] = round_index
            write_index = plan.write_before(index)
            if write_index is not None:
                phase.refresh.append((round_index, write(write_index)))
            response, seconds = _ask(service, _request(workload, reads[index]))
            phase.responses[index] = response
            phase.latencies[index] = seconds if response.ok else math.inf

    for round_index in rounds:
        lo = round_index * len(reads) // ROUNDS
        hi = (round_index + 1) * len(reads) // ROUNDS
        slices = [range(lo + c, hi, workload.clients) for c in range(workload.clients)]
        threads = [
            threading.Thread(target=client, args=(round_index, indices)) for indices in slices[1:]
        ]
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        client(round_index, slices[0])
        for thread in threads:
            thread.join()
        ended = time.perf_counter()
        phase.round_seconds.append(ended - started)
        phase.round_windows.append((started, ended))
        after = idle_probe(phase)
        phase.probes.append((probe + after) / 2.0)
        probe = after
    return probe


def check_writes(plan: Plan, phase: Phase, writes: WriteLog) -> None:
    """Each write costs one rebuild and rolls the answer cache; hits are exact."""
    marks = writes.marks
    for write, (before, after) in enumerate(zip(marks, marks[1:])):
        if after[0] - before[0] != 1:
            phase.problems.append(f"write {write} caused {after[0] - before[0]} rebuilds, not 1")
        if after[1] - before[1] <= 0:
            phase.problems.append(f"write {write} invalidated no cached answers")
    if marks:
        phase.rebuilds = marks[-1][0] - marks[0][0]
        phase.invalidations = marks[-1][1] - marks[0][1]
    filled: Dict[Tuple[int, int], bytes] = {}
    epoch = 0
    for index, response in enumerate(phase.responses):
        if plan.write_before(index) is not None:
            epoch += 1
        if not response.ok:
            continue
        key = (epoch, response.request.user)
        if response.cache_hit:
            if filled.get(key) != pickle.dumps(response.result):
                phase.problems.append(f"read {index}: hit differs from the miss that filled it")
        elif key in filled:
            phase.problems.append(f"read {index}: repeated read in one epoch missed the cache")
        else:
            filled[key] = pickle.dumps(response.result)


def spot_check(plan: Plan, phase: Phase, dataset) -> None:
    """The first process answers equal an in-process frozen engine's, bit for bit."""
    oracle = _engine(dataset.graph, dataset.model)
    oracle.freeze(methods=(plan.workload.method,), ks=(K,))
    try:
        for index in range(min(SPOT_CHECKS, len(plan.reads))):
            _, user = plan.reads[index]
            expected = oracle.query(user, k=K, method=plan.workload.method)
            got = phase.responses[index].result
            if answer_digest([expected]) != answer_digest([got]):
                phase.problems.append(f"process answer for user {user} differs from the oracle")
    finally:
        oracle.thaw()
