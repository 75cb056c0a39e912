"""Tests for the observability subsystem (src/repro/obs).

Covers the three obs primitives in isolation -- the counter/gauge registry
with its sum/max merge algebra, the trace recorder with its JSONL output and
its disabled fast path, and the clock seam -- plus the merge-semantics
satellite: shard merging must be commutative and lossless, so the process
backend's telemetry cannot depend on worker shutdown order.
"""

from __future__ import annotations

import json
import threading

from repro.obs.clock import DEFAULT_CLOCK, Clock, monotonic, wall_clock
from repro.obs.telemetry import (
    DETERMINISTIC_PREFIXES,
    Telemetry,
    counter,
    deterministic_counters,
    gauge,
    get_telemetry,
    install,
    merge_snapshots,
)
from repro.obs.trace import (
    TraceRecorder,
    get_recorder,
    install_recorder,
    trace_span,
    tracing_enabled,
)


class ScriptedClock(Clock):
    """A clock replaying a fixed sequence of monotonic readings."""

    def __init__(self, readings):
        self._readings = list(readings)

    def monotonic(self):
        return self._readings.pop(0)


# --------------------------------------------------------------------------
# Telemetry registry
# --------------------------------------------------------------------------


class TestTelemetry:
    def test_counter_accumulates_and_returns_total(self):
        telemetry = Telemetry()
        assert telemetry.counter("a") == 1
        assert telemetry.counter("a", 4) == 5
        assert telemetry.counters() == {"a": 5}

    def test_gauge_stores_latest_value(self):
        telemetry = Telemetry()
        telemetry.gauge("depth", 3.0)
        assert telemetry.gauge("depth", 1.5) == 1.5
        assert telemetry.gauges() == {"depth": 1.5}

    def test_snapshot_is_a_decoupled_copy(self):
        telemetry = Telemetry()
        telemetry.counter("a")
        snapshot = telemetry.snapshot()
        telemetry.counter("a")
        assert snapshot == {"counters": {"a": 1}, "gauges": {}}

    def test_merge_sums_counters_and_maxes_gauges(self):
        telemetry = Telemetry()
        telemetry.counter("a", 2)
        telemetry.gauge("peak", 5.0)
        telemetry.merge({"counters": {"a": 3, "b": 1}, "gauges": {"peak": 2.0, "other": 7.0}})
        assert telemetry.counters() == {"a": 5, "b": 1}
        assert telemetry.gauges() == {"peak": 5.0, "other": 7.0}

    def test_merge_is_commutative(self):
        shards = [
            {"counters": {"a": 1, "b": 2}, "gauges": {"g": 1.0}},
            {"counters": {"b": 3, "c": 4}, "gauges": {"g": 9.0}},
            {"counters": {"a": 10}, "gauges": {"h": 0.5}},
        ]
        forward = merge_snapshots(*shards)
        backward = merge_snapshots(*reversed(shards))
        assert forward == backward
        assert forward["counters"] == {"a": 11, "b": 5, "c": 4}
        assert forward["gauges"] == {"g": 9.0, "h": 0.5}

    def test_merge_is_lossless_over_a_dropped_shard(self):
        # Satellite (c): losing a shard must change exactly that shard's
        # contribution -- the surviving shards still merge to their own sum.
        survivors = [{"counters": {"q": 5}}, {"counters": {"q": 7}}]
        lost = {"counters": {"q": 11}}
        with_all = merge_snapshots(*survivors, lost)
        without = merge_snapshots(*survivors)
        assert with_all["counters"]["q"] - without["counters"]["q"] == 11

    def test_reset_clears_everything(self):
        telemetry = Telemetry()
        telemetry.counter("a")
        telemetry.gauge("g", 1.0)
        telemetry.reset()
        assert telemetry.snapshot() == {"counters": {}, "gauges": {}}

    def test_concurrent_increments_are_exact(self):
        telemetry = Telemetry()
        threads = [
            threading.Thread(target=lambda: [telemetry.counter("n") for _ in range(500)])
            for _ in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert telemetry.counters()["n"] == 4000

    def test_deterministic_counters_filters_and_sorts(self):
        counters = {
            "query.count": 3,
            "engine_cache.hit": 2,
            "worker.deaths": 1,
            "store.load_or_build.built": 1,
            "estimator.lazy.samples": 9,
            "answer_cache.hit": 0,
        }
        filtered = deterministic_counters(counters)
        assert list(filtered) == sorted(filtered)
        assert set(filtered) == {
            "query.count",
            "engine_cache.hit",
            "estimator.lazy.samples",
            "answer_cache.hit",
        }
        assert all(name.startswith(DETERMINISTIC_PREFIXES) for name in filtered)

    def test_install_swaps_and_restores_the_active_registry(self):
        fresh = Telemetry()
        previous = install(fresh)
        try:
            counter("swapped", 2)
            gauge("swapped.gauge", 1.0)
            assert get_telemetry() is fresh
            assert fresh.counters() == {"swapped": 2}
            assert previous.counters().get("swapped") is None
        finally:
            assert install(previous) is fresh
        assert get_telemetry() is previous


# --------------------------------------------------------------------------
# Trace spans
# --------------------------------------------------------------------------


class TestTrace:
    def test_span_records_duration_and_fields(self):
        recorder = TraceRecorder(clock=ScriptedClock([10.0, 10.25]))
        previous = install_recorder(recorder)
        try:
            with trace_span("execute", user=7, method="lazy"):
                pass
        finally:
            install_recorder(previous)
        (span,) = recorder.spans()
        assert span == {"span": "execute", "seconds": 0.25, "user": 7, "method": "lazy"}

    def test_span_records_even_when_the_body_raises(self):
        recorder = TraceRecorder(clock=ScriptedClock([1.0, 3.0]))
        previous = install_recorder(recorder)
        try:
            try:
                with trace_span("boom"):
                    raise ValueError("expected")
            except ValueError:
                pass
        finally:
            install_recorder(previous)
        assert recorder.spans()[0]["seconds"] == 2.0

    def test_disabled_tracing_is_a_shared_noop(self):
        assert get_recorder() is None
        assert not tracing_enabled()
        first = trace_span("a", x=1)
        second = trace_span("b")
        assert first is second  # the shared null singleton: no allocation
        with first:
            pass

    def test_install_recorder_returns_previous(self):
        recorder = TraceRecorder()
        assert install_recorder(recorder) is None
        assert tracing_enabled()
        assert install_recorder(None) is recorder
        assert not tracing_enabled()

    def test_extend_merges_worker_span_shards(self):
        recorder = TraceRecorder()
        recorder.record({"span": "parent", "seconds": 0.1})
        recorder.extend([{"span": "worker", "seconds": 0.2, "worker": 1}])
        assert [span["span"] for span in recorder.spans()] == ["parent", "worker"]

    def test_write_jsonl_round_trips(self, tmp_path):
        recorder = TraceRecorder(clock=ScriptedClock([0.0, 1.0, 1.0, 1.5]))
        previous = install_recorder(recorder)
        try:
            with trace_span("first", user=1):
                pass
            with trace_span("second", user=2):
                pass
        finally:
            install_recorder(previous)
        path = tmp_path / "trace.jsonl"
        assert recorder.write_jsonl(path) == 2
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert [line["span"] for line in lines] == ["first", "second"]
        assert lines[0]["seconds"] == 1.0 and lines[1]["seconds"] == 0.5


# --------------------------------------------------------------------------
# Clock seam
# --------------------------------------------------------------------------


class TestClock:
    def test_monotonic_never_decreases(self):
        readings = [monotonic() for _ in range(5)]
        assert readings == sorted(readings)
        assert DEFAULT_CLOCK.monotonic() >= readings[-1]

    def test_wall_clock_is_a_plausible_unix_timestamp(self):
        stamp = wall_clock()
        assert stamp > 1_500_000_000  # after 2017: a real epoch reading

    def test_clock_is_substitutable(self):
        clock = ScriptedClock([1.0, 2.5])
        assert clock.monotonic() == 1.0
        assert clock.monotonic() == 2.5
