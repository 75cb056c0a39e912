"""The benchmark ledger (``tools/bench_ledger.py``): probe gate and run records.

A base probe and a change probe of one workload and seed must agree on the
answers digest and on every deterministic counter; any disagreement is
recorded in the ledger and makes it exit non-zero.  Every run keeps
pitexbench's raw timing line next to its scaled metrics.
"""

import importlib.util
import json
import os
import shutil
import subprocess

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_ledger():
    path = os.path.join(REPO_ROOT, "tools", "bench_ledger.py")
    spec = importlib.util.spec_from_file_location("bench_ledger", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def probe(digest="daa4c0fdb0c9fa6c", **counters):
    return {"answers_digest": digest, "counters": {"answer_cache.hit": 3, **counters}}


def test_probe_mismatches_name_every_difference():
    ledger = load_ledger()
    assert ledger.probe_mismatches(probe(), probe()) == []
    found = ledger.probe_mismatches(probe(), probe("0000000000000000", **{"engine_cache.miss": 1}))
    assert found == [
        "answers digest daa4c0fdb0c9fa6c -> 0000000000000000",
        "counter engine_cache.miss: None -> 1",
    ]


def run_ledger(tmp_path, monkeypatch, probes):
    ledger = load_ledger()
    trees = {}
    for side in ("base", "change"):
        trees[side] = tmp_path / side
        trees[side].mkdir()
        shutil.copy(os.path.join(REPO_ROOT, "BENCHMARK.json"), trees[side])
    monkeypatch.setattr(ledger, "route_probe", lambda tree, *args: probes[tree.name])
    out = tmp_path / "ledger.json"
    argv = ["--base", str(trees["base"]), "--change", str(trees["change"])]
    argv += ["--workload", "zipf-write", "--pairs", "0", "--probe-seed", "1", "--out", str(out)]
    return ledger.main(argv), json.loads(out.read_text())["workloads"]["zipf-write"]


def test_ledger_fails_when_probe_counters_differ(tmp_path, monkeypatch):
    status, entry = run_ledger(
        tmp_path, monkeypatch, {"base": probe(), "change": probe(**{"answer_cache.hit": 4})}
    )
    assert status == 1
    assert entry["probe_mismatches"] == ["seed 1: counter answer_cache.hit: 3 -> 4"]
    assert entry["route_probe"]["change"][0]["counters"] == {"answer_cache.hit": 4}


def test_ledger_passes_when_probes_agree(tmp_path, monkeypatch):
    status, entry = run_ledger(tmp_path, monkeypatch, {"base": probe(), "change": probe()})
    assert status == 0
    assert "probe_mismatches" not in entry


def fake_run(stdout):
    def run(command, **kwargs):
        return subprocess.CompletedProcess(command, 0, stdout=stdout, stderr="")

    return run


def bench_stdout(trace):
    """What ``pitexbench/run.py`` prints: stamp, report, [raw line], result."""
    metric = {"latency_p50_ms": {"value": 12.5, "unit": "ms"}}
    lines = [json.dumps({"stamp": {"seed": 3}}), "workload index-cold  seed 3  trace 0"]
    lines.append("  untraced: reads 5 attempted / 0 failed, answers_digest 36b32d19eb2682eb")
    if not trace:
        raw = {"unscaled": {"latency_p50_ms": {"value": 11.0, "unit": "ms"}}}
        raw.update(probe_ms_median=41.5, probe_busy_share=0.01)
        lines.append(json.dumps(raw))
    lines.append(json.dumps({"correct": True, "attempted": 5, "failed": 0, "metrics": metric}))
    return "\n".join(lines) + "\n"


def test_runs_keep_the_raw_timing_line(tmp_path, monkeypatch):
    ledger = load_ledger()
    monkeypatch.setattr(ledger.subprocess, "run", fake_run(bench_stdout(trace=0)))
    run = ledger.run_benchmark(tmp_path, "index-cold", 3, 15.0, 0)
    assert run["metrics"] == {"latency_p50_ms": 12.5}
    assert run["answers_digest"] == "36b32d19eb2682eb"
    assert run["raw"] == {
        "unscaled": {"latency_p50_ms": 11.0},
        "probe_ms_median": 41.5,
        "probe_busy_share": 0.01,
    }
    # A traced run prints no raw line; the ledger records that as null.
    monkeypatch.setattr(ledger.subprocess, "run", fake_run(bench_stdout(trace=1)))
    assert ledger.run_benchmark(tmp_path, "index-cold", 3, 15.0, 1)["raw"] is None
