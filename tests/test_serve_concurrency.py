"""Concurrency stress / equivalence harness for the stateless query path.

The contract under test (``PitexEngine.query``): a query touches **no shared
mutable state** -- every query runs on a query-local estimator whose RNG root
is derived statelessly from ``(engine seed, query fingerprint)``, and the
shared indexes are built once under the engine's lock and never rebuilt.
``freeze`` only builds everything up front.  If the contract holds, then

(a) any number of concurrent threads hammering one engine return answers
    *bitwise identical* to a single-threaded oracle replay, and
(b) the served latency distribution stays sane (p99 >= p95 >= p50 > 0).

The stress tests are barrier-synchronized so all workers enter the query loop
together (maximizing interleaving even under the GIL), and every thread runs
the *full* query plan so each (user, method) pair is answered concurrently by
several threads at once -- the strongest aliasing the serving layer can see.

The hypothesis property tests pin the statelessness of the RNG derivation
itself: answers are independent of arrival order, and fingerprints/seeds are
pure functions of the query configuration.
"""

import sys
import threading
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.engine import METHODS, PitexEngine
from repro.datasets.synthetic import load_dataset
from repro.exceptions import EngineFrozenError, IndexError_, ReadOnlyGraphError
from repro.index.delayed import DelayedMaterializationIndex
from repro.index.rr_index import RRGraphIndex
from repro.serve.answers import answer_digest
from repro.serve.replay import replay_stream
from repro.serve.service import PitexService, QueryRequest

STRESS_METHODS = ("indexest", "indexest+", "delaymat", "lazy")
NUM_THREADS = 4


@pytest.fixture(scope="module")
def dataset():
    return load_dataset("lastfm", scale=0.08, seed=11)


@pytest.fixture(scope="module")
def frozen_engine(dataset):
    engine = PitexEngine(
        dataset.graph, dataset.model, max_samples=40, index_samples=50, default_k=2, seed=7
    )
    return engine.freeze(methods=STRESS_METHODS)


@pytest.fixture(scope="module")
def query_plan(dataset):
    """(user, method) pairs covering every stress method on several users."""
    users = dataset.workload("mid", 3) + dataset.workload("low", 1)
    return [(user, method) for user in users for method in STRESS_METHODS]


def run_plan(engine, plan):
    """Answer the whole plan serially; return the bitwise-comparable facets."""
    results = []
    for user, method in plan:
        result = engine.query(user=user, k=2, method=method)
        results.append(
            (
                user,
                method,
                result.tag_ids,
                result.spread,
                result.evaluated_tag_sets,
                result.pruned_tag_sets,
                result.samples_drawn,
                result.edges_visited,
            )
        )
    return results


# --------------------------------------------------------------- stress tests
def test_concurrent_stress_bitwise_matches_serial_oracle(frozen_engine, query_plan):
    """N threads x the full plan == the single-threaded oracle, bit for bit."""
    oracle = run_plan(frozen_engine, query_plan)

    barrier = threading.Barrier(NUM_THREADS)
    outcomes = [None] * NUM_THREADS

    def worker(slot):
        barrier.wait()  # all threads enter the query loop together
        try:
            outcomes[slot] = run_plan(frozen_engine, query_plan)
        except Exception as exc:  # pragma: no cover - failure reporting only
            outcomes[slot] = exc

    threads = [threading.Thread(target=worker, args=(slot,)) for slot in range(NUM_THREADS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    for slot, outcome in enumerate(outcomes):
        assert not isinstance(outcome, Exception), f"thread {slot} raised: {outcome!r}"
        assert outcome == oracle, f"thread {slot} diverged from the serial oracle"


def test_service_parallel_replay_matches_oracle_with_sane_tails(
    dataset, frozen_engine, query_plan
):
    """A 4-worker lock-free service replay == the oracle, with sane latency."""
    stream = dataset.query_workload.query_stream(24, seed=13)
    oracle = {
        user: frozen_engine.query(user=user, k=2, method="indexest+").spread
        for user in {user for _, user in stream}
    }

    with PitexService.for_engine(frozen_engine, num_workers=4) as service:
        report = replay_stream(service, stream, method="indexest+", k=2)

    assert report.failures == 0
    assert report.num_workers == 4
    assert report.backend == "thread"
    for response in report.responses:
        assert response.ok
        assert response.result.spread == oracle[response.request.user]

    # (b) latency sanity: a real distribution, ordered tails, sub-second p95
    # for 24 tiny index-backed queries even on a loaded CI box.
    p50 = report.overall.percentile(50.0)
    p95 = report.overall.percentile(95.0)
    p99 = report.overall.percentile(99.0)
    assert 0.0 < p50 <= p95 <= p99
    assert p95 < 30.0


def test_service_keeps_serial_path_for_unfrozen_engines(dataset):
    """An unfrozen engine is served by every worker and matches its serial answers."""
    engine = PitexEngine(
        dataset.graph, dataset.model, max_samples=40, index_samples=50, default_k=2, seed=7
    )
    stream = dataset.query_workload.query_stream(6, seed=5)
    with PitexService.for_engine(engine, num_workers=2) as service:
        report = replay_stream(service, stream, method="indexest", k=2)
    assert report.failures == 0
    assert report.num_workers == 2
    assert report.backend == "thread"
    assert not engine.is_frozen
    for response in report.responses:
        assert response.ok
        serial = engine.query(user=response.request.user, k=2, method="indexest")
        assert answer_digest([response.result]) == answer_digest([serial])


def test_mixed_frozen_and_unfrozen_engines_coexist(dataset):
    """One service, two keys: a frozen engine next to an unfrozen one."""
    frozen = PitexEngine(
        dataset.graph, dataset.model, max_samples=40, index_samples=50, default_k=2, seed=3
    ).freeze(methods=["indexest"])
    unfrozen = PitexEngine(
        dataset.graph, dataset.model, max_samples=40, index_samples=50, default_k=2, seed=3
    )
    engines = {"frozen": frozen, "unfrozen": unfrozen}
    user = dataset.workload("mid", 1)[0]
    with PitexService(engines.__getitem__, num_workers=3) as service:
        futures = [
            service.submit(QueryRequest(user=user, k=2, method="indexest", engine_key=key))
            for key in ("frozen", "unfrozen", "frozen", "unfrozen", "frozen")
        ]
        responses = [future.result() for future in futures]
    assert all(response.ok for response in responses)
    # Identical seeds and the same query-local path: both engines agree.
    assert len({response.result.spread for response in responses}) == 1


def test_frozen_and_unfrozen_engines_give_equal_answers(dataset):
    """One service, two keys: a frozen and an unfrozen same-seed engine agree.

    Both answer on the same query-local path, so every method -- including
    ``delaymat`` (frozen without its per-user tables, which change answers)
    and ``lazy-batched`` -- gives the same answer digest on both engines.
    """

    def make_engine():
        return PitexEngine(
            dataset.graph, dataset.model, max_samples=40, index_samples=50, default_k=2, seed=3
        )

    engines = {
        "frozen": make_engine().freeze(methods=METHODS, precompute_tables=False),
        "unfrozen": make_engine(),
    }
    users = dataset.workload("mid", 2)
    plan = [(user, method) for method in METHODS for user in users]
    with PitexService(engines.__getitem__, num_workers=3) as service:
        futures = {
            key: [
                service.submit(QueryRequest(user=user, k=2, method=method, engine_key=key))
                for user, method in plan
            ]
            for key in engines
        }
        responses = {key: [future.result() for future in futures[key]] for key in engines}
    for key in engines:
        assert all(response.ok for response in responses[key]), key
    for position, (user, method) in enumerate(plan):
        frozen = responses["frozen"][position].result
        unfrozen = responses["unfrozen"][position].result
        assert answer_digest([frozen]) == answer_digest([unfrozen]), (user, method)


def test_concurrent_first_queries_build_each_index_once(dataset, monkeypatch):
    """8 threads racing the first queries of an unfrozen engine build each index once.

    The builds are slowed down so every thread reaches the lazy index
    property while the first build is still running; the engine's build
    lock must make the rest wait for it and reuse its index.
    """
    methods = ("indexest", "indexest+", "delaymat")
    users = dataset.workload("mid", 2)
    plan = [(user, method) for user in users for method in methods]

    def make_engine():
        return PitexEngine(
            dataset.graph, dataset.model, max_samples=40, index_samples=50, default_k=2, seed=4
        )

    oracle_engine = make_engine().freeze(methods=methods, precompute_tables=False)
    oracle = [
        answer_digest([oracle_engine.query(user=user, k=2, method=method)]) for user, method in plan
    ]

    builds = []
    for cls in (RRGraphIndex, DelayedMaterializationIndex):
        original = cls.build

        def slow_build(self, original=original):
            builds.append(type(self).__name__)
            time.sleep(0.05)
            return original(self)

        monkeypatch.setattr(cls, "build", slow_build)

    engine = make_engine()
    num_threads = 8
    barrier = threading.Barrier(num_threads)
    outcomes = [None] * num_threads

    def worker(slot):
        # Each thread starts at a different method, so both builds race.
        order = plan[slot % len(plan) :] + plan[: slot % len(plan)]
        barrier.wait()
        try:
            digests = {
                (user, method): answer_digest([engine.query(user=user, k=2, method=method)])
                for user, method in order
            }
            outcomes[slot] = [digests[entry] for entry in plan]
        except Exception as exc:  # pragma: no cover - failure reporting only
            outcomes[slot] = exc

    threads = [threading.Thread(target=worker, args=(slot,)) for slot in range(num_threads)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    for slot, outcome in enumerate(outcomes):
        assert not isinstance(outcome, Exception), f"thread {slot} raised: {outcome!r}"
        assert outcome == oracle, f"thread {slot} diverged from the frozen oracle"
    assert sorted(builds) == ["DelayedMaterializationIndex", "RRGraphIndex"]


def test_frozen_engine_rejects_unwarmed_methods_without_guard_trips(dataset):
    """Unwarmed-method queries raise up front.

    A mis-routed request is a caller error; the outcome must not depend on
    whether the method happens to need an offline index.  ``k`` /
    ``epsilon`` / ``delta`` overrides, by contrast, serve fine: the
    query-local estimator derives its budget and RNG statelessly from the
    request, so no warmed structure depends on them.
    """
    engine = PitexEngine(
        dataset.graph, dataset.model, max_samples=40, index_samples=40, default_k=2, seed=9
    ).freeze(methods=["indexest"])
    user = dataset.workload("mid", 1)[0]
    with pytest.raises(EngineFrozenError):  # unwarmed index-backed method
        engine.query(user=user, k=2, method="delaymat")
    with pytest.raises(EngineFrozenError):  # unwarmed sampling method (no index)
        engine.query(user=user, k=2, method="lazy")
    with pytest.raises(EngineFrozenError):
        engine.estimate_influence(user, [0, 1], method="lazy")

    # Warmed method with arbitrary accuracy/k overrides: served statelessly
    # and reproducibly.
    first = engine.query(user=user, k=3, method="indexest", epsilon=0.3)
    second = engine.query(user=user, k=3, method="indexest", epsilon=0.3)
    assert (first.tag_ids, first.spread) == (second.tag_ids, second.spread)
    assert engine.estimate_influence(user, [0, 1], method="indexest").value >= 1.0


# ------------------------------------------------------ lifecycle behaviour
def test_guard_trips_on_post_freeze_mutation(dataset):
    """What a frozen engine refuses: graph writes, index rebuilds, unwarmed methods."""
    source = dataset.graph.copy()
    engine = PitexEngine(
        source, dataset.model, max_samples=40, index_samples=40, default_k=2, seed=5
    )
    engine.freeze(methods=["indexest", "lazy"])
    graph = engine.graph
    before = engine.query(user=0, k=2, method="lazy")

    with pytest.raises(ReadOnlyGraphError):  # the pinned snapshot
        graph.add_edge(0, graph.num_vertices - 1, [0.1] * graph.num_topics)
    with pytest.raises(IndexError_):  # an index builds once
        engine.rr_index.build()
    with pytest.raises(EngineFrozenError):  # unwarmed method
        engine.estimator("mc", epsilon=0.5)

    # A write lands on the source graph; the frozen engine keeps its version.
    source.add_edge(0, source.num_vertices - 1, [0.1] * source.num_topics)
    assert engine.graph is graph and graph.version == source.version - 1
    after = engine.query(user=0, k=2, method="lazy")
    assert answer_digest([after]) == answer_digest([before])

    engine.thaw()
    assert engine.query(user=0, k=2, method="lazy").tag_ids


def test_freeze_is_idempotent_and_validates_arguments(dataset):
    engine = PitexEngine(
        dataset.graph, dataset.model, max_samples=40, index_samples=40, default_k=2, seed=5
    )
    with pytest.raises(Exception):
        engine.freeze(methods=["bogus"])
    engine.freeze(methods=["indexest"])
    assert engine.freeze(methods=["indexest"]) is engine  # covered -> no-op
    assert engine.frozen_methods == ("indexest",)
    assert "frozen" in engine.describe()
    # Warming *more* while frozen would mutate shared state: refuse loudly
    # instead of silently ignoring the arguments.
    with pytest.raises(EngineFrozenError):
        engine.freeze(methods=["delaymat"])
    with pytest.raises(EngineFrozenError):
        engine.freeze(methods=["indexest"], ks=[5])
    engine.thaw()
    engine.freeze(methods=["indexest", "delaymat"], ks=[2, 5])
    assert engine.frozen_methods == ("indexest", "delaymat")


def test_refreeze_rejects_a_different_precompute_tables(dataset):
    """Per-user tables change delaymat answers, so a re-freeze must match them."""
    engine = PitexEngine(
        dataset.graph, dataset.model, max_samples=40, index_samples=40, default_k=2, seed=5
    )
    engine.freeze(methods=["delaymat"], precompute_tables=False)
    assert engine.frozen_user_tables is None
    assert engine.freeze(methods=["delaymat"], precompute_tables=False) is engine
    with pytest.raises(EngineFrozenError):
        engine.freeze(methods=["delaymat"])  # default precompute_tables=True
    engine.thaw()
    engine.freeze(methods=["delaymat"])
    assert engine.frozen_user_tables is not None
    assert engine.freeze(methods=["delaymat"]) is engine
    with pytest.raises(EngineFrozenError):
        engine.freeze(methods=["delaymat"], precompute_tables=False)


# ------------------------------------------------------ snapshot isolation
ISOLATION_METHODS = ("indexest+", "lazy-batched")
ISOLATION_PARAMS = dict(max_samples=40, index_samples=50, default_k=2, seed=7)


def test_readers_finish_on_their_pinned_version_while_writes_land(dataset):
    """Readers racing writes answer exactly as a single-threaded oracle at their engine's version.

    Three reader threads alternate between one thawed engine and the engines
    an :class:`EngineCache` serves, while a writer adds edges to the source
    graph and refreshes the cache after each.  No request may raise, and
    every answer must equal an oracle engine built on a copy of the graph
    version the answering engine pinned.
    """
    from repro.serve.cache import EngineCache

    source = dataset.graph.copy()
    users = dataset.workload("mid", 2) + dataset.workload("low", 1)
    low = dataset.workload("low", 6)
    writes = [
        (s, t) for s in low for t in low if s != t and not source.has_edge(s, t)
    ][:8]
    thawed = PitexEngine(source, dataset.model, **ISOLATION_PARAMS)
    thawed.freeze(methods=ISOLATION_METHODS).thaw()
    cache = EngineCache(capacity=2, freeze=True, freeze_methods=ISOLATION_METHODS)

    def served():
        return cache.get_or_create(
            "k", lambda: PitexEngine(source, dataset.model, **ISOLATION_PARAMS)
        )

    served()
    barrier = threading.Barrier(4)
    writing = threading.Event()
    writing.set()
    answers, errors = [], []

    def reader(slot):
        barrier.wait()
        count = 0
        while count < 6 or (writing.is_set() and count < 40):
            user = users[(slot + count) % len(users)]
            method = ISOLATION_METHODS[count % len(ISOLATION_METHODS)]
            try:
                engine = thawed if count % 2 == 0 else served()
                result = engine.query(user=user, k=2, method=method)
                answers.append((engine.graph, user, method, answer_digest([result])))
            except Exception as exc:  # every failure is reported below
                errors.append(f"{type(exc).__name__}: {exc}")
            count += 1

    def writer():
        barrier.wait()
        try:
            for source_vertex, target in writes:
                time.sleep(0.02)
                source.add_edge(source_vertex, target, [0.02] * source.num_topics)
                served()
        except Exception as exc:
            errors.append(f"write: {type(exc).__name__}: {exc}")
        finally:
            writing.clear()

    threads = [threading.Thread(target=reader, args=(slot,)) for slot in range(3)]
    threads.append(threading.Thread(target=writer))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, mid-query and mid-write
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert source.version == thawed.graph.version + len(writes)
    oracles, expected = {}, {}
    for pinned, user, method, digest in answers:
        if id(pinned) not in oracles:
            oracles[id(pinned)] = PitexEngine(pinned.copy(), dataset.model, **ISOLATION_PARAMS)
        key = (id(pinned), user, method)
        if key not in expected:
            expected[key] = answer_digest([oracles[id(pinned)].query(user=user, k=2, method=method)])
        assert digest == expected[key], (pinned.version, user, method)
    assert len(oracles) > 2  # the readers saw several versions


# --------------------------------------------- stateless derivation properties
@pytest.fixture(scope="module")
def canonical_answers(frozen_engine, query_plan):
    """The oracle answers for the first 8 plan entries, computed once."""
    plan = query_plan[:8]
    return plan, dict(zip(plan, [row[2:] for row in run_plan(frozen_engine, plan)]))


@settings(
    max_examples=6,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(order=st.permutations(list(range(8))))
def test_answers_are_independent_of_arrival_order(frozen_engine, canonical_answers, order):
    """Replaying any permutation of the plan yields the canonical answers.

    This is the property the stateless ``(seed, query_fingerprint)`` RNG
    derivation buys: with one shared stream per estimator, earlier queries
    would shift the stream consumed by later ones, so *order* would change
    answers; with a query-local stream it cannot.
    """
    plan, canonical = canonical_answers
    permuted = [plan[i] for i in order]
    replay = dict(zip(permuted, [row[2:] for row in run_plan(frozen_engine, permuted)]))
    assert replay == canonical


@settings(max_examples=25, deadline=None)
@given(
    user=st.integers(min_value=0, max_value=10**6),
    k=st.integers(min_value=1, max_value=6),
    epsilon=st.floats(min_value=0.05, max_value=0.95, allow_nan=False),
)
def test_query_seed_is_a_pure_function_of_the_query(dataset, user, k, epsilon):
    """Same configuration -> same seed, across engines with the same root seed."""
    first = PitexEngine(dataset.graph, dataset.model, index_samples=40, seed=99)
    second = PitexEngine(dataset.graph, dataset.model, index_samples=40, seed=99)
    args = (user, "indexest+", k, epsilon, 1000.0)
    assert first.query_seed(*args) == first.query_seed(*args)
    assert first.query_seed(*args) == second.query_seed(*args)
    assert first.query_fingerprint(*args) == second.query_fingerprint(*args)
    # Distinct configurations get distinct fingerprints.
    assert first.query_fingerprint(*args) != first.query_fingerprint(
        user + 1, "indexest+", k, epsilon, 1000.0
    )
    assert first.query_fingerprint(*args) != first.query_fingerprint(
        user, "delaymat", k, epsilon, 1000.0
    )
