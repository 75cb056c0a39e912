"""The benchmark ledger (``tools/bench_ledger.py``): probe gate and run records.

A base probe and a change probe of one workload and seed must agree on the
answers digest and on every deterministic counter; any disagreement is
recorded in the ledger and makes it exit non-zero.  Every run keeps
pitexbench's raw timing line next to its scaled metrics.  ``--compare``
diffs two sides of ledgers: medians and quartiles per metric with each
side's run count, the second side's seed-matched pair wins on end-to-end
metrics, flags for moves beyond the ``BENCHMARK.json`` bounds, errors for
digest and counter differences.
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


def _run(digest, p50, rss=60.0):
    metrics = {"latency_p50_ms": p50, "peak_rss_mb": rss}
    return {"answers_digest": digest, "metrics": metrics}


def _ledger(base_runs, change_runs, base_probe=None, change_probe=None):
    pairs = [
        {"seed": 71 + index, "base": base, "change": change}
        for index, (base, change) in enumerate(zip(base_runs, change_runs))
    ]
    traced = {"seed": 1, "seconds": 15.0, "base": _run("aa", 30.0), "change": _run("aa", 20.0)}
    traced["base"]["metrics"] = {"topics.prob_ms": 7.0}
    traced["change"]["metrics"] = {"topics.prob_ms": 3.5}
    entry = {"run_seconds": 15.0, "pairs": pairs, "traced": [traced]}
    if base_probe is not None:
        entry["route_probe"] = {
            "base": [{"seed": 1, "seconds": 3.0, **base_probe}],
            "change": [{"seed": 1, "seconds": 3.0, **change_probe}],
        }
    return {"workloads": {"index-cold": entry}}


def test_compare_diffs_medians_and_flags_moves_beyond_the_bounds():
    ledger = load_ledger()
    declared = json.loads(open(os.path.join(REPO_ROOT, "BENCHMARK.json")).read())
    base = [_run("d1", p50) for p50 in (14.0, 15.0, 16.0, 17.0)]
    change = [_run("d1", p50, rss=64.0) for p50 in (10.0, 11.0, 12.0, 13.0)]
    entry = _ledger(base, change, probe(), probe())
    report = ledger.compare_sides(
        ledger.ledger_sides(entry, "base"), ledger.ledger_sides(entry, "change"), declared
    )
    rows = {(row["kind"], row["metric"]): row for row in report["metrics"]}
    p50 = rows[("runs", "latency_p50_ms")]
    assert (p50["a"]["median"], p50["b"]["median"]) == (15.5, 11.5)
    assert p50["a"]["iqr"] == 1.5 and p50["relative_change"] == (11.5 - 15.5) / 15.5
    assert rows[("traced", "topics.prob_ms")]["relative_change"] == -0.5
    # Run counts per side; pair wins on end-to-end rows only.
    assert (p50["a"]["n"], p50["b"]["n"], p50["wins"], p50["pairs"]) == (4, 4, 4, 4)
    assert rows[("traced", "topics.prob_ms")]["b"]["n"] == 1
    assert "wins" not in rows[("traced", "topics.prob_ms")]
    # Equal peak RSS in every pair but a higher one: no wins.
    assert (rows[("runs", "peak_rss_mb")]["wins"], rows[("runs", "peak_rss_mb")]["pairs"]) == (0, 4)
    # +6.7 % peak RSS is beyond its 5 % bound; the latency gain is not a flag.
    assert report["flags"] == ["index-cold peak_rss_mb: median 60 -> 64, worse than the 5% bound"]
    assert report["errors"] == []


def test_compare_reports_digest_and_counter_differences_as_errors(tmp_path):
    ledger = load_ledger()
    runs = [_run("d1", 15.0), _run("d2", 15.0)]
    changed = [_run("d1", 15.0), _run("ff", 15.0)]
    entry = _ledger(runs, changed, probe(), probe(**{"estimator.indexest+.samples": 9}))
    path = tmp_path / "one.json"
    path.write_text(json.dumps(entry))
    assert ledger.main(["--compare", str(path)]) == 1
    report = ledger.compare_sides(
        ledger.ledger_sides(entry, "base"),
        ledger.ledger_sides(entry, "change"),
        json.loads(open(os.path.join(REPO_ROOT, "BENCHMARK.json")).read()),
    )
    assert report["errors"] == [
        "index-cold runs seed 72: answers digest d2 -> ff",
        "index-cold probes seed 1: counter estimator.indexest+.samples: None -> 9",
    ]
    # Two ledgers: the change side of each, matched by workload, seed and length.
    other = tmp_path / "two.json"
    other.write_text(json.dumps(_ledger(runs, runs, probe(), probe(**{"estimator.indexest+.samples": 9}))))
    assert ledger.main(["--compare", str(path), str(other)]) == 1
    same = tmp_path / "same.json"
    same.write_text(json.dumps(_ledger(runs, changed, probe(), probe(**{"estimator.indexest+.samples": 9}))))
    assert ledger.main(["--compare", str(path), str(same)]) == 0
    assert ledger.main(["--compare", str(path), str(same), str(other)]) == 2


def test_pair_wins_match_seeds_and_leave_ties_to_neither_side():
    ledger = load_ledger()

    def runs(*values, seconds=15.0):
        return [
            {"seed": 71 + index, "seconds": seconds, "metrics": {"setup_s": value}}
            for index, value in enumerate(values)
        ]

    base = runs(0.07, 0.07, 0.07, 0.07)
    # Lower wins; the tie (seed 73) and the loss (seed 74) are not wins.
    assert ledger.pair_wins(base, runs(0.06, 0.05, 0.07, 0.08), "setup_s", "lower") == (2, 4)
    assert ledger.pair_wins(base, runs(0.06, 0.05, 0.07, 0.08), "setup_s", "higher") == (1, 4)
    # Runs of another length or an unmatched seed are no pairs.
    assert ledger.pair_wins(base, runs(0.06, seconds=5.0), "setup_s", "lower") == (0, 0)
    assert ledger.pair_wins(base[:1], runs(0.06, 0.05), "setup_s", "lower") == (1, 1)


def test_compare_prints_run_counts_and_pair_wins(tmp_path, capsys):
    ledger = load_ledger()
    base = [_run("d1", p50) for p50 in (14.0, 15.0, 16.0)]
    change = [_run("d1", p50) for p50 in (13.0, 15.0, 17.0)]
    path = tmp_path / "one.json"
    path.write_text(json.dumps(_ledger(base, change)))
    assert ledger.main(["--compare", str(path)]) == 0
    lines = {line.split()[1]: line for line in capsys.readouterr().out.splitlines()}
    assert " n=3 -> " in lines["latency_p50_ms"]
    assert lines["latency_p50_ms"].endswith("wins 1/3")
    assert " n=1 -> " in lines["topics.prob_ms"] and lines["topics.prob_ms"].endswith("n=1 -50.0%")
