"""Model-based tests of the serving caches against a plain-dict LRU.

Hypothesis drives :class:`~repro.serve.answers.AnswerCache` and
:class:`~repro.serve.cache.EngineCache` through random sequences of
computes, hits, capacity evictions, graph-version bumps, epoch rolls,
failing computes and clears.  After every step the cache must agree with
:class:`LRUModel` -- a dict kept in recency order plus the one accounting
rule -- on the key order, on ``stats`` and on the telemetry counters.  One
rule releases N threads at once on a fresh key: one compute, one miss and
N - 1 hits, whatever the interleaving.
"""

import pickle
import sys
import threading
import time
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.obs.telemetry import Telemetry, get_telemetry, install
from repro.serve.answers import AnswerCache
from repro.serve.cache import EngineCache

MACHINE_SETTINGS = settings(
    max_examples=40,
    stateful_step_count=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

_MISS = object()


class LRUModel:
    """The caches' contract, written the obvious way over a plain dict."""

    def __init__(self, capacity, prefix):
        self.capacity = capacity
        self.prefix = prefix
        self.entries = {}  # key -> (value, num_bytes), LRU first
        self.stats = {
            "hits": 0,
            "misses": 0,
            "evictions": 0,
            "invalidations": 0,
            "bytes_cached": 0,
            "single_flight_waits": 0,
        }
        self.telemetry = {}

    def _send(self, event, amount=1):
        name = f"{self.prefix}.{event}"
        self.telemetry[name] = self.telemetry.get(name, 0) + amount

    def hit(self, key):
        """The resident value for ``key`` (made most recent, counted), or ``_MISS``."""
        if key not in self.entries:
            return _MISS
        self.entries[key] = self.entries.pop(key)
        self.stats["hits"] += 1
        self._send("hit")
        return self.entries[key][0]

    def miss(self):
        self.stats["misses"] += 1
        self._send("miss")

    def insert(self, key, value, num_bytes=0):
        replaced = self.entries.pop(key, None)
        self.entries[key] = (value, num_bytes)
        self.stats["bytes_cached"] += num_bytes
        if num_bytes:
            self._send("bytes", num_bytes)
        if replaced is not None:
            self.stats["bytes_cached"] -= replaced[1]
            return
        while len(self.entries) > self.capacity:
            oldest = next(iter(self.entries))
            self.stats["bytes_cached"] -= self.entries.pop(oldest)[1]
            self.stats["evictions"] += 1
            self._send("eviction")

    def drop(self, keys):
        for key in keys:
            self.stats["bytes_cached"] -= self.entries.pop(key)[1]
        if keys:
            self.stats["invalidations"] += len(keys)
            self._send("invalidation", len(keys))

    def check(self, cache):
        assert cache.keys() == list(self.entries)
        assert len(cache) == len(self.entries)
        assert cache.stats.as_dict() == self.stats
        assert get_telemetry().counters() == self.telemetry


def _boom():
    raise RuntimeError("compute failed")


class _CacheMachine(RuleBasedStateMachine):
    """Shared rules: clear, the concurrent fresh-key rule and the invariant."""

    def __init__(self):
        super().__init__()
        self.previous_telemetry = install(Telemetry())
        self.fresh = 0

    def teardown(self):
        install(self.previous_telemetry)

    @invariant()
    def cache_agrees_with_model(self):
        self.model.check(self.cache)

    @rule()
    def clear(self):
        self.cache.clear()
        self.model.drop(list(self.model.entries))

    @rule(threads=st.integers(min_value=2, max_value=4))
    def concurrent_misses_on_a_fresh_key(self, threads):
        key, value = self.fresh_key()
        computes = []
        barrier = threading.Barrier(threads)
        outcomes = [None] * threads

        def compute():
            computes.append(1)
            time.sleep(0.005)  # hold the gate while the other callers arrive
            return value

        def caller(slot):
            barrier.wait()
            outcomes[slot] = self.lookup(key, compute)

        workers = [threading.Thread(target=caller, args=(slot,)) for slot in range(threads)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often inside the cache's critical sections
        try:
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=10.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert len(computes) == 1
        assert all(outcome is value for outcome in outcomes)
        self.expect_compute(key, value)
        for _ in range(threads - 1):
            assert self.model.hit(key) is value
        waits = self.cache.stats.single_flight_waits - self.model.stats["single_flight_waits"]
        assert 0 <= waits <= threads - 1  # scheduling decides, never telemetry
        self.model.stats["single_flight_waits"] += waits


class AnswerCacheMachine(_CacheMachine):
    """:class:`AnswerCache` with two engine keys whose epochs roll."""

    def __init__(self):
        super().__init__()
        self.cache = AnswerCache(capacity=3)
        self.model = LRUModel(3, "answer_cache")
        self.current = {"e": (1, "m"), "f": (1, "m")}  # epoch each engine serves
        self.observed = {}  # epoch the cache last saw per engine key

    def key(self, engine_key, fingerprint):
        version, model_hash = self.current[engine_key]
        return (engine_key, version, model_hash, fingerprint)

    def fresh_key(self):
        self.fresh += 1
        key = self.key("e", f"fresh-{self.fresh}")
        self.observe(key)
        return key, repr(key)

    def lookup(self, key, compute):
        return self.cache.get_or_compute(key, compute)[0]

    def observe(self, key):
        """The epoch sweep: a new epoch drops its engine key's older entries."""
        engine_key, epoch = key[0], (key[1], key[2])
        known = self.observed.get(engine_key)
        self.observed[engine_key] = epoch
        if known is not None and known != epoch:
            stale = [k for k in self.model.entries if k[0] == engine_key and k[1:3] != epoch]
            self.model.drop(stale)

    def expect_compute(self, key, value):
        """A compute of ``key`` ran: one miss, inserted only if its epoch is live."""
        self.model.miss()
        if self.observed.get(key[0]) == key[1:3]:
            self.model.insert(key, value, num_bytes=len(pickle.dumps(value)))

    def expect(self, key):
        """What ``get_or_compute(key, lambda: repr(key))`` must return."""
        self.observe(key)
        cached = self.model.hit(key)
        if cached is not _MISS:
            return cached, True
        self.expect_compute(key, repr(key))
        return repr(key), False

    @rule(engine_key=st.sampled_from("ef"), fingerprint=st.sampled_from("abcd"))
    def compute(self, engine_key, fingerprint):
        key = self.key(engine_key, fingerprint)
        assert self.cache.get_or_compute(key, lambda: repr(key)) == self.expect(key)

    @precondition(lambda self: self.model.entries)
    @rule(data=st.data())
    def hit(self, data):
        key = data.draw(st.sampled_from(sorted(self.model.entries)))
        self.observe(key)
        assert self.cache.get_or_compute(key, _boom) == (self.model.hit(key), True)

    @rule(engine_key=st.sampled_from("ef"), graph_changed=st.booleans())
    def roll_epoch(self, engine_key, graph_changed):
        version, model_hash = self.current[engine_key]
        if graph_changed:
            self.current[engine_key] = (version + 1, model_hash)
        else:
            self.current[engine_key] = (version, model_hash + "'")

    @rule(engine_key=st.sampled_from("ef"), fingerprint=st.sampled_from("abcd"))
    def failing_compute(self, engine_key, fingerprint):
        key = self.key(engine_key, fingerprint)
        self.observe(key)
        cached = self.model.hit(key)
        if cached is not _MISS:
            assert self.cache.get_or_compute(key, _boom) == (cached, True)
            return
        with pytest.raises(RuntimeError):
            self.cache.get_or_compute(key, _boom)
        self.model.miss()  # the failed caller's miss is recorded, nothing cached

    @rule(engine_key=st.sampled_from("ef"), outer=st.sampled_from("ab"), inner=st.sampled_from("cd"))
    def epoch_rolls_during_compute(self, engine_key, outer, inner):
        outer_key = self.key(engine_key, outer)

        def compute():
            self.roll_epoch(engine_key, graph_changed=True)
            inner_key = self.key(engine_key, inner)
            inner_result = self.cache.get_or_compute(inner_key, lambda: repr(inner_key))
            assert inner_result == (repr(inner_key), False)
            return repr(outer_key)

        self.observe(outer_key)
        cached = self.model.hit(outer_key)
        if cached is not _MISS:
            assert self.cache.get_or_compute(outer_key, compute) == (cached, True)
            return
        self.model.miss()
        assert self.cache.get_or_compute(outer_key, compute) == (repr(outer_key), False)
        inner_key = self.key(engine_key, inner)
        self.observe(inner_key)
        self.expect_compute(inner_key, repr(inner_key))
        assert outer_key[1:3] != self.observed[engine_key]  # so the outer result is dropped


class EngineCacheMachine(_CacheMachine):
    """:class:`EngineCache` over stub engines whose source graphs can take writes."""

    def __init__(self):
        super().__init__()
        self.cache = EngineCache(capacity=2, freeze=False)
        self.model = LRUModel(2, "engine_cache")

    @staticmethod
    def new_engine():
        return SimpleNamespace(
            graph=SimpleNamespace(version=0),
            source_graph=SimpleNamespace(version=0),
            is_frozen=False,
        )

    def fresh_key(self):
        self.fresh += 1
        return f"fresh-{self.fresh}", self.new_engine()

    def lookup(self, key, compute):
        return self.cache.get_or_create(key, compute)

    def drop_if_stale(self, key):
        entry = self.model.entries.get(key)
        if entry is not None and entry[0].source_graph.version != entry[0].graph.version:
            self.model.drop([key])

    def expect_compute(self, key, engine):
        self.model.miss()
        self.model.insert(key, engine)

    @rule(key=st.sampled_from("abc"))
    def get_or_create(self, key):
        built = self.new_engine()
        engine = self.cache.get_or_create(key, lambda: built)
        self.drop_if_stale(key)
        cached = self.model.hit(key)
        if cached is _MISS:
            self.expect_compute(key, built)
            cached = built
        assert engine is cached

    @rule(key=st.sampled_from("abc"))
    def get(self, key):
        engine = self.cache.get(key)
        self.drop_if_stale(key)
        cached = self.model.hit(key)
        if cached is _MISS:
            self.model.miss()
            cached = None
        assert engine is cached

    @rule(key=st.sampled_from("abc"))
    def put(self, key):
        engine = self.new_engine()
        self.cache.put(key, engine)
        self.model.insert(key, engine)

    @rule(key=st.sampled_from("abc"))
    def invalidate(self, key):
        resident = key in self.model.entries
        assert self.cache.invalidate(key) == resident
        self.model.drop([key] if resident else [])

    @precondition(lambda self: self.model.entries)
    @rule(data=st.data())
    def bump_graph_version(self, data):
        key = data.draw(st.sampled_from(sorted(self.model.entries)))
        self.model.entries[key][0].source_graph.version += 1  # a write to its source graph

    @rule(key=st.sampled_from("abc"))
    def failing_factory(self, key):
        self.drop_if_stale(key)
        cached = self.model.hit(key)
        if cached is not _MISS:
            assert self.cache.get_or_create(key, _boom) is cached
            return
        with pytest.raises(RuntimeError):
            self.cache.get_or_create(key, _boom)
        self.model.miss()


TestAnswerCacheModel = AnswerCacheMachine.TestCase
TestAnswerCacheModel.settings = MACHINE_SETTINGS
TestEngineCacheModel = EngineCacheMachine.TestCase
TestEngineCacheModel.settings = MACHINE_SETTINGS
