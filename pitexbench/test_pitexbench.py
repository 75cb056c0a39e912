"""Tests of the benchmark's own helpers (no engine, no service: they run in ms)."""

import json
import math
import threading
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import pytest

from pitexbench import run
from pitexbench.layers import LayerStack, LayerTracer, merge_records, query_self_sum
from pitexbench.measure import (
    busy_cpu_seconds,
    check_metric_name,
    compare_runs,
    median,
    percentile,
    samples_needed,
    stat_cpu_ticks,
)

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


# ------------------------------------------------------------ percentile rule
def test_p90_needs_ten_samples_beyond_it():
    assert samples_needed(0.9) == 100
    assert samples_needed(0.5) == 20
    assert samples_needed(0.99) == 1000
    with pytest.raises(ValueError, match="needs 100 samples"):
        percentile([1.0] * 99, 0.9)
    assert percentile([1.0] * 100, 0.9) == 1.0


def test_percentile_interpolates_between_ranks():
    values = [float(v) for v in range(1, 101)]
    assert percentile(values, 0.5) == pytest.approx(50.5)
    assert percentile(values, 0.9) == pytest.approx(90.1)
    assert median([3.0, 1.0, 2.0]) == 2.0
    assert median([4.0, 1.0, 2.0, 3.0]) == 2.5


def test_failed_reads_count_as_missing_the_limit():
    values = [1.0] * 89 + [math.inf] * 11
    assert percentile(values, 0.9) == math.inf
    assert percentile(values, 0.5) == 1.0


# ----------------------------------------------------------- self-time stack
def test_self_time_subtracts_children_and_sums_to_the_root():
    stack = LayerStack()
    stack.enter("core.query", 0.0)
    stack.enter("core.explore", 1.0)
    stack.enter("index.match", 2.0)
    assert stack.exit(5.0) is None  # match: 3 self
    assert stack.exit(6.0) is None  # explore: 5 elapsed, 2 self
    stack.enter("topics.prob", 7.0)
    assert stack.exit(8.0) is None  # prob: 1 self
    record = stack.exit(10.0)  # query: 10 elapsed, 10 - 5 - 1 = 4 self
    layers = record["layers"]
    assert record["root"] == "core.query" and record["seconds"] == 10.0
    assert layers["index.match"] == [1, 3.0, 3.0]
    assert layers["core.explore"] == [1, 2.0, 5.0]
    assert layers["topics.prob"] == [1, 1.0, 1.0]
    assert layers["core.query"] == [1, 4.0, 10.0]
    assert sum(slot[1] for slot in layers.values()) == pytest.approx(10.0)
    assert stack.totals == {} and stack.frames == []


def test_nested_same_layer_counts_inclusive_time_once():
    stack = LayerStack()
    stack.enter("topics.prob", 0.0)
    stack.enter("topics.prob", 1.0)
    stack.exit(2.0)
    record = stack.exit(4.0)
    assert record["layers"]["topics.prob"] == [2, 4.0, 4.0]


def test_exit_can_rename_the_layer():
    stack = LayerStack()
    stack.enter("serve.answer_cache", 0.0)
    record = stack.exit(0.5, rename="serve.answer_cache.hit")
    assert record["root"] == "serve.answer_cache.hit"
    assert record["layers"] == {"serve.answer_cache.hit": [1, 0.5, 0.5]}


def test_query_self_sum_covers_only_records_with_queries():
    records = [
        {"layers": {"core.query": [2, 1.0, 6.0], "index.match": [9, 5.0, 5.0]}},
        {"layers": {"serve.answer_cache.hit": [1, 0.1, 0.1]}},
        {"layers": {"core.freeze": [1, 2.0, 3.0], "index.build": [1, 1.0, 1.0]}},
    ]
    assert query_self_sum(records) == (6.0, 6.0)
    assert merge_records(records)["core.freeze"] == [1, 2.0, 3.0]


class _Layered:
    def outer(self):
        return self.inner() + 1

    def inner(self):
        return 1


def test_tracer_wraps_per_thread_and_restores():
    original = _Layered.__dict__["outer"]
    records = []
    targets = [(_Layered, "outer", "a", None), (_Layered, "inner", "b", None)]
    with LayerTracer(targets, records.append):
        assert _Layered().outer() == 2
        worker = threading.Thread(target=_Layered().inner)
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()
    assert _Layered.__dict__["outer"] is original
    assert sorted(record["root"] for record in records) == ["a", "b"]
    outer = next(record for record in records if record["root"] == "a")
    assert set(outer["layers"]) == {"a", "b"}
    assert outer["layers"]["a"][2] == pytest.approx(outer["seconds"])


# -------------------------------------------------------------- metric names
@pytest.mark.parametrize("name", ["setup_s", "core.query_ms", "serve.answer_cache.hit_rate", "p-9"])
def test_valid_metric_names(name):
    assert check_metric_name(name) == name


@pytest.mark.parametrize("name", ["", ".dot", "has space", "slash/x", "a" * 65, "µs"])
def test_invalid_metric_names(name):
    with pytest.raises(ValueError):
        check_metric_name(name)


def test_benchmark_json_lists_exactly_the_reported_metrics():
    spec = json.loads(BENCHMARK_JSON.read_text())
    end_to_end = {entry["name"]: entry["unit"] for entry in spec["end_to_end"]}
    per_layer = {entry["name"]: entry["unit"] for entry in spec["per_layer"]}
    assert end_to_end == run.END_TO_END
    assert per_layer == run.PER_LAYER
    for name in list(end_to_end) + list(per_layer) + [w["name"] for w in spec["workloads"]]:
        check_metric_name(name)
    assert all(0 < entry["bound"] <= 0.25 for entry in spec["end_to_end"])


# ------------------------------------------------------------ read mix
def test_distinct_reads_follow_population_group_shares():
    from pitexbench.workloads import WORKLOADS, make_plan

    groups = {"high": list(range(4)), "mid": list(range(4, 40)), "low": list(range(40, 400))}
    dataset = SimpleNamespace(query_workload=SimpleNamespace(groups=groups))
    for seed in (1, 2):
        plan = make_plan(WORKLOADS["index-cold"], seed, 10, dataset)
        users = [user for _, user in plan.reads]
        assert len(set(users)) == len(users) == 140
        # 140 of 400 users: 1.4 high, 12.6 mid, 126 low.
        counts = Counter(group for group, _ in plan.reads)
        assert abs(counts["high"] - 1.4) <= 1 and abs(counts["mid"] - 12.6) <= 1
        for group, user in plan.reads:
            assert group == ("high" if user < 4 else "mid" if user < 40 else "low")


# ------------------------------------------------------- probe idle check
def test_stat_cpu_ticks_reads_utime_plus_stime():
    fields = ["S"] + [str(n) for n in range(4, 14)] + ["70", "5"] + ["0"] * 30
    assert stat_cpu_ticks("1234 (py thon) (x) " + " ".join(fields)) == 75


def test_busy_cpu_seconds_sees_other_threads_only():
    stop = threading.Event()

    def spin():
        while not stop.is_set():
            sum(range(1000))

    before = busy_cpu_seconds()
    spinner = threading.Thread(target=spin)
    spinner.start()
    try:
        stop.wait(0.3)
        during = busy_cpu_seconds()
    finally:
        stop.set()
        spinner.join(timeout=10)
    assert during - before > 0.0
    own = busy_cpu_seconds()
    sum(range(3_000_000))  # the calling thread's work is not counted
    assert busy_cpu_seconds() - own < 0.05


# ------------------------------------------------------ digest/counter check
def test_compare_runs_reports_every_difference():
    reference = {"answers_digest": "ab" * 32, "counters": {"query.count": 3, "x": 1}}
    assert compare_runs(reference, dict(reference), "same") == []
    changed = {"answers_digest": "cd" * 32, "counters": {"query.count": 4, "y": 2}}
    problems = compare_runs(reference, changed, "rerun")
    assert len(problems) == 4
    assert problems[0].startswith("rerun: answers_digest")
    assert any("query.count = 4 != 3" in line for line in problems)
    assert any("counter x = None != 1" in line for line in problems)
    assert any("counter y = 2 != None" in line for line in problems)
