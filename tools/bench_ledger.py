"""Benchmark ledger: pitexbench runs of two source trees, paired and summarized.

Runs ``pitexbench/run.py`` from a *base* tree (usually a clone of the parent
commit) and a *change* tree, one pair per seed, alternating which side runs
first, and writes one JSON ledger with the run stamps, every pair's
end-to-end metrics, each side's median and quartiles, and the answer
digests.  Both trees run their own committed benchmark code, so the two
sides use identical settings only when ``pitexbench/`` is unchanged between
them; the ledger records each side's source digest to show it.

Usage, from the repository root::

    python3 tools/bench_ledger.py --base ../parent --change . \\
        --workload lazy-proc --pairs 10 --first-seed 71 --seconds 15 \\
        --traced-seed 1 --probe-seed 1 --out BENCH_<n>.json

``--workload`` may repeat.  Each ``--traced-seed`` (it may repeat) adds one
``--trace 1`` run per side, the first side alternating, for per-layer
metrics and digests; ``--traced-seconds`` sets their length.  Each
``--probe-seed`` adds one route probe per side: the untraced phase replayed
through the tree's own ``pitexbench.workloads``, reporting the queue-wait
percentiles of ``QueryResponse.queue_seconds``, on the process backend
each worker's execute count (warm-up reads included), and the phase's
deterministic counters.  A base and a change probe of the same workload and
seed must agree on the answers digest and on every deterministic counter;
each disagreement is listed under ``probe_mismatches`` and makes the ledger
exit non-zero.

An existing ``--out`` file is extended, not replaced: pairs, traced runs
and probes are appended, and the summary covers every recorded pair.
Every run also keeps, under ``raw``, pitexbench's unscaled end-to-end
metrics and the speed-probe readings behind the scaling (``null`` for
traced runs, which print no such line).
A pair counts as a win for the change when its value is strictly better in
the direction ``BENCHMARK.json`` declares.

``--compare A [B]`` runs nothing.  With one ledger it compares that
ledger's base side with its change side; with two it compares the change
side of ``A`` with the change side of ``B``.  Workload by workload it
prints each end-to-end metric's median and quartiles on both sides (untraced
runs) and each per-layer metric's (traced runs), with each side's run count
(``n=``), so a layer figure read off one traced run shows as ``n=1``.  An
end-to-end row also counts the seed-matched pairs (same seed and length)
that the second side wins, strictly better in the declared direction; a
tie is a win for neither side.  It flags an end-to-end
median that got worse by more than its ``BENCHMARK.json`` bound.  Runs of
the same workload, seed and length must agree on the answers digest, and
route probes also on every deterministic counter; any difference is an
error and makes the command exit 1.  Bound flags do not change the exit
status: across two ledgers they may only show a host that changed speed.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
from pathlib import Path

DIGEST_LINE = re.compile(r"^\s+untraced: .* answers_digest ([0-9a-f]+)", re.MULTILINE)


def quartiles(values):
    """``(q1, median, q3)`` of ``values`` with inclusive interpolation."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def _child_env():
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)  # each tree imports its own src/
    return env


def run_benchmark(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One ``pitexbench/run.py`` run inside ``tree``, parsed."""
    command = [sys.executable, "pitexbench/run.py", "--workload", workload, "--trace", str(trace)]
    command += ["--seed", str(seed), "--seconds", str(seconds)]
    done = subprocess.run(
        command, cwd=tree, env=_child_env(), capture_output=True, text=True, check=False
    )
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{tree}: pitexbench printed nothing\n{done.stderr}")
    result = json.loads(lines[-1])
    stamp = json.loads(lines[0])["stamp"]
    digest = DIGEST_LINE.search(done.stdout)
    return {
        "stamp": stamp,
        "exit_code": done.returncode,
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "answers_digest": digest.group(1) if digest else None,
        "metrics": {name: entry["value"] for name, entry in result["metrics"].items()},
        "raw": raw_timings(lines[1:-1]),
        "checks_failed": [line for line in lines if line.startswith("CHECK FAILED")],
    }


def raw_timings(lines) -> dict:
    """The run's ``{"unscaled": ...}`` line: raw host timings and speed-probe readings.

    Returns ``{"unscaled": {metric: value}, "probe_ms_median": ...,
    "probe_busy_share": ...}``, or ``None`` when the run printed no such
    line (``pitexbench/run.py`` prints it for untraced runs only).
    """
    for line in lines:
        if line.startswith('{"unscaled"'):
            raw = json.loads(line)
            raw["unscaled"] = {name: entry["value"] for name, entry in raw["unscaled"].items()}
            return raw
    return None


def route_probe(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """Run :func:`probe_main` inside ``tree`` through this file."""
    command = [sys.executable, str(Path(__file__).resolve()), "--probe", "--workload", workload]
    command += ["--first-seed", str(seed), "--seconds", str(seconds)]
    done = subprocess.run(
        command, cwd=tree, env=_child_env(), capture_output=True, text=True, check=True
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def probe_main(args) -> int:
    """Replay one untraced phase from the current tree and report routing."""
    root = Path.cwd()
    sys.path[:0] = [str(root / "src"), str(root)]
    from pitexbench import workloads

    deployments = []
    deploy = workloads.deploy

    def recording_deploy(*deploy_args, **deploy_kwargs):
        deployment = deploy(*deploy_args, **deploy_kwargs)
        deployments.append(deployment)
        return deployment

    workloads.deploy = recording_deploy
    dataset = workloads.load_fixed_dataset()
    workload = workloads.WORKLOADS[args.workload[0]]
    plan = workloads.make_plan(workload, args.first_seed, args.seconds, dataset)
    work_dir = root / ".pitexbench-work"
    work_dir.mkdir(exist_ok=True)
    phase = workloads.run_phase(plan, dataset, work_dir)
    waits = [1000.0 * response.queue_seconds for response in phase.responses if response]
    executes = {}
    for deployment in deployments:
        shards = deployment.service.metrics.snapshot().get("worker_shards", {})
        for label, summary in shards.items():
            executes[label] = executes.get(label, 0) + summary["count"]
    deciles = statistics.quantiles(waits, n=10, method="inclusive")
    report = {
        "reads": len(waits),
        "queue_ms_p50": statistics.median(waits),
        "queue_ms_p90": deciles[8],
        "worker_executes": dict(sorted(executes.items())),
        "answers_digest": phase.digest[:16],
        "counters": phase.counters,
        "problems": phase.problems,
    }
    print(json.dumps(report))
    return 0


def probe_mismatches(base: dict, change: dict) -> list:
    """What two probes of one workload and seed disagree on, as messages."""
    mismatches = []
    if base["answers_digest"] != change["answers_digest"]:
        mismatches.append(
            f"answers digest {base['answers_digest']} -> {change['answers_digest']}"
        )
    for name in sorted(set(base["counters"]) | set(change["counters"])):
        before, after = base["counters"].get(name), change["counters"].get(name)
        if before != after:
            mismatches.append(f"counter {name}: {before} -> {after}")
    return mismatches


def summarize(pairs, metrics):
    """Per metric: each side's median and quartiles, and the change's pair wins."""
    summary = {}
    for metric in metrics:
        name, better = metric["name"], metric["better"]
        sides = {}
        for side in ("base", "change"):
            q1, median, q3 = quartiles([pair[side]["metrics"][name] for pair in pairs])
            sides[side] = {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}
        sign = 1.0 if better == "higher" else -1.0
        gains = [
            sign * (pair["change"]["metrics"][name] - pair["base"]["metrics"][name])
            for pair in pairs
        ]
        base_median = sides["base"]["median"]
        median_gain = sign * (sides["change"]["median"] - base_median)
        summary[name] = {
            **sides,
            "better": better,
            "bound": metric["bound"],
            "change_wins": sum(1 for gain in gains if gain > 0),
            "change_losses": sum(1 for gain in gains if gain < 0),
            "relative_median_change": (
                (sides["change"]["median"] - base_median) / base_median if base_median else 0.0
            ),
            "median_gain_exceeds_base_iqr": median_gain > sides["base"]["iqr"],
            "worse_beyond_bound": -median_gain > metric["bound"] * abs(base_median),
        }
    return summary


def _unseeded(stamp):
    return {key: value for key, value in stamp.items() if key != "seed"}


def alternate(seeds):
    """``(seed, order)`` per run, the side that goes first alternating."""
    for index, seed in enumerate(seeds):
        yield seed, ("base", "change") if index % 2 == 0 else ("change", "base")


def ledger_main(args) -> int:
    """Run what the arguments ask for and merge it into the ledger file."""
    trees = {"base": Path(args.base).resolve(), "change": Path(args.change).resolve()}
    declared = json.loads((trees["change"] / "BENCHMARK.json").read_text())
    out = Path(args.out)
    ledger = json.loads(out.read_text()) if out.is_file() else {"workloads": {}}
    seeds = range(args.first_seed, args.first_seed + args.pairs)
    failed = False
    for workload in args.workload:
        entry = ledger["workloads"].setdefault(workload, {})
        pairs = []
        for seed, order in alternate(seeds):
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = run_benchmark(trees[side], workload, seed, args.seconds, 0)
                print(f"{workload} seed {seed} {side}: {pair[side]['metrics']}", file=sys.stderr)
            pairs.append(pair)
        if pairs:
            stamps = {side: pairs[0][side]["stamp"] for side in trees}
            recorded = entry.setdefault("stamps", stamps)
            if any(_unseeded(recorded[side]) != _unseeded(stamps[side]) for side in trees):
                raise SystemExit(f"{workload}: the runs differ from the ledger's earlier pairs")
            for pair in pairs:
                for side in trees:
                    del pair[side]["stamp"]
            entry["run_seconds"] = args.seconds
            entry.setdefault("pairs", []).extend(pairs)
            entry["summary"] = summarize(entry["pairs"], declared["end_to_end"])
        traced_seconds = args.traced_seconds or args.seconds
        traced = []
        for seed, order in alternate(args.traced_seed):
            run = {"seed": seed, "seconds": traced_seconds, "first": order[0]}
            for side in order:
                run[side] = run_benchmark(trees[side], workload, seed, traced_seconds, 1)
            traced.append(run)
        entry.setdefault("traced", []).extend(traced)
        for seed in args.probe_seed:
            probes = entry.setdefault("route_probe", {"base": [], "change": []})
            ran = {}
            for side in trees:
                ran[side] = route_probe(trees[side], workload, seed, args.seconds)
                probes[side].append({"seed": seed, "seconds": args.seconds, **ran[side]})
            for mismatch in probe_mismatches(ran["base"], ran["change"]):
                failed = True
                entry.setdefault("probe_mismatches", []).append(f"seed {seed}: {mismatch}")
                print(f"{workload} probe seed {seed}: {mismatch}", file=sys.stderr)
    out.write_text(json.dumps(ledger, indent=1, sort_keys=True) + "\n")
    return 1 if failed else 0


def ledger_sides(ledger: dict, side: str) -> dict:
    """Per workload, one side's untraced runs, traced runs and route probes.

    Every run carries its ``seed`` and ``seconds``, so runs of two ledgers
    can be matched.
    """
    sides = {}
    for workload, entry in ledger["workloads"].items():
        seconds = entry.get("run_seconds")
        sides[workload] = {
            "runs": [{**pair[side], "seed": pair["seed"], "seconds": seconds} for pair in entry.get("pairs", [])],
            "traced": [
                {**run[side], "seed": run["seed"], "seconds": run["seconds"]} for run in entry.get("traced", [])
            ],
            "probes": list(entry.get("route_probe", {}).get(side, [])),
        }
    return sides


def _spread(values):
    q1, median, q3 = quartiles(values)
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1, "n": len(values)}


def pair_wins(a_runs, b_runs, name, better):
    """``(wins, pairs)``: how many runs of ``b`` beat the ``a`` run of the same seed and length.

    A win is strictly better in the ``better`` direction; a tie counts for
    neither side.  ``pairs`` counts the seed-matched runs that carry ``name``.
    """
    matched = {(run["seed"], run["seconds"]): run["metrics"] for run in a_runs}
    sign = 1.0 if better == "higher" else -1.0
    wins = pairs = 0
    for run in b_runs:
        other = matched.get((run["seed"], run["seconds"]), {})
        if name in other and name in run["metrics"]:
            pairs += 1
            wins += sign * (run["metrics"][name] - other[name]) > 0
    return wins, pairs


def compare_sides(a: dict, b: dict, declared: dict) -> dict:
    """Diff two :func:`ledger_sides` results: ``{"metrics", "flags", "errors"}``.

    ``metrics`` holds one row per workload and metric present on both sides
    (each side's spread with its run count ``n``; end-to-end rows also
    ``wins`` and ``pairs`` from :func:`pair_wins`); ``flags`` names each end-to-end median worse than its bound allows;
    ``errors`` names each answers digest or probe counter that differs
    between runs of the same workload, seed and length.
    """
    report = {"metrics": [], "flags": [], "errors": []}
    for workload in sorted(set(a) & set(b)):
        for kind, metrics in (("runs", declared["end_to_end"]), ("traced", declared["per_layer"])):
            for metric in metrics:
                name = metric["name"]
                before = [run["metrics"][name] for run in a[workload][kind] if name in run["metrics"]]
                after = [run["metrics"][name] for run in b[workload][kind] if name in run["metrics"]]
                if not before or not after:
                    continue
                row = {"workload": workload, "metric": name, "kind": kind}
                row.update(a=_spread(before), b=_spread(after))
                base_median = row["a"]["median"]
                change = row["b"]["median"] - base_median
                row["relative_change"] = change / base_median if base_median else 0.0
                if kind == "runs":
                    row["wins"], row["pairs"] = pair_wins(
                        a[workload][kind], b[workload][kind], name, metric["better"]
                    )
                report["metrics"].append(row)
                worse = change if metric["better"] == "lower" else -change
                if kind == "runs" and worse > metric["bound"] * abs(base_median):
                    report["flags"].append(
                        f"{workload} {name}: median {base_median:.4g} -> {row['b']['median']:.4g}, "
                        f"worse than the {metric['bound']:.0%} bound"
                    )
        for kind in ("runs", "traced", "probes"):
            matched = {(run["seed"], run["seconds"]): run for run in a[workload][kind]}
            for run in b[workload][kind]:
                other = matched.get((run["seed"], run["seconds"]))
                if other is None:
                    continue
                where = f"{workload} {kind} seed {run['seed']}"
                if kind == "probes":
                    messages = probe_mismatches(other, run)
                elif other["answers_digest"] != run["answers_digest"]:
                    messages = [f"answers digest {other['answers_digest']} -> {run['answers_digest']}"]
                else:
                    messages = []
                report["errors"].extend(f"{where}: {message}" for message in messages)
    return report


def compare_main(paths) -> int:
    """Print the diff of one ledger's two sides, or of two ledgers' change sides."""
    ledgers = [json.loads(Path(path).read_text()) for path in paths]
    if len(ledgers) == 1:
        a, b = ledger_sides(ledgers[0], "base"), ledger_sides(ledgers[0], "change")
    else:
        a, b = ledger_sides(ledgers[0], "change"), ledger_sides(ledgers[1], "change")
    declared = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    report = compare_sides(a, b, declared)
    for row in report["metrics"]:
        before, after = row["a"], row["b"]
        wins = f" wins {row['wins']}/{row['pairs']}" if "wins" in row else ""
        print(
            f"{row['workload']:<11} {row['metric']:<34} {before['median']:>10.4g} "
            f"[{before['q1']:.4g}-{before['q3']:.4g}] n={before['n']} -> {after['median']:>10.4g} "
            f"[{after['q1']:.4g}-{after['q3']:.4g}] n={after['n']} {row['relative_change']:+.1%}{wins}"
        )
    for flag in report["flags"]:
        print(f"FLAG {flag}")
    for error in report["errors"]:
        print(f"ERROR {error}")
    return 1 if report["errors"] else 0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    # Internal: the route probe runs this file again inside each tree.
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--base", help="source tree of the comparison side")
    parser.add_argument("--change", default=".", help="source tree of the change")
    parser.add_argument("--workload", action="append", default=[])
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--traced-seed", type=int, action="append", default=[])
    parser.add_argument("--traced-seconds", type=float, help="run length of traced runs")
    parser.add_argument("--probe-seed", type=int, action="append", default=[])
    parser.add_argument("--out")
    parser.add_argument("--compare", nargs="+", metavar="LEDGER", help="diff one ledger's sides, or two ledgers")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.probe:
        return probe_main(args)
    if args.compare:
        if len(args.compare) > 2:
            print("bench_ledger: --compare takes one or two ledgers", file=sys.stderr)
            return 2
        return compare_main(args.compare)
    if not (args.base and args.workload and args.out):
        print("bench_ledger: --base, --workload and --out are required", file=sys.stderr)
        return 2
    return ledger_main(args)


if __name__ == "__main__":
    sys.exit(main())
