"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 pitexbench/run.py --workload index-cold --seed 1 --seconds 15 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the workload
untraced and then traced, checks that both gave the same answers and
counters, and prints the per-layer metrics.  The last line of standard output
is one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  The
exit code is 0 only when every correctness check passed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK_DIR = ROOT / ".pitexbench-work"

END_TO_END = {
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "throughput_qps": "queries/s",
    "answer_spread": "vertices",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
    "refresh_p50_ms": "ms",
}

PER_LAYER = {
    "core.query_ms": "ms",
    "core.engine_self_ms": "ms",
    "core.explore_self_ms": "ms",
    "core.tag_sets_evaluated": "count",
    "core.prune_ratio": "ratio",
    "core.freeze_s": "s",
    "topics.prob_ms": "ms",
    "index.match_ms": "ms",
    "index.match_calls": "count",
    "index.edges_visited": "count",
    "index.build_s": "s",
    "index.tables_s": "s",
    "sampling.estimate_ms": "ms",
    "sampling.kernel_ms": "ms",
    "sampling.samples": "count",
    "sampling.edges_visited": "count",
    "serve.answer_cache.hit_rate": "ratio",
    "serve.answer_cache.lookups": "count",
    "serve.answer_cache.hit_ms": "ms",
    "serve.answer_cache.invalidations": "count",
    "serve.engine_rebuilds": "count",
    "serve.wait_ms_p50": "ms",
    "serve.shard_imbalance": "ratio",
    "serve.publish_s": "s",
    "serve.worker_start_s": "s",
    "graph.add_edge_ms": "ms",
    "trace.overhead": "ratio",
}

# What :func:`pitexbench.measure.speed_probe` reads on the reference host (the
# 2-core VM the bounds were measured on); timings are scaled to that speed.
REFERENCE_PROBE_SECONDS = 0.0085
# The program slows more than the probe when the host is loaded: between a
# quiet and a loaded ten-run set on the reference host, raw timings moved as
# the probe's ratio to the power 1.1 (lazy-proc) to 1.45 (index-cold set-up).
SPEED_EXPONENT = 1.25

INDEX_METHODS = ("indexest", "indexest+", "delaymat")
SAMPLING_METHODS = ("mc", "rr", "lazy", "lazy-batched")
# Nesting check: the query-path self times must add up to the queries' own
# time, which fails when a wrapped non-query layer runs inside a query.
MAX_SELF_TIME_GAP = 0.03
# Coverage check: the share of query time no wrapped layer below
# ``PitexEngine.query`` accounts for (``core.engine_self_ms / core.query_ms``).
MAX_UNATTRIBUTED_SHARE = 0.03


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def scaled(phase, reference: float) -> dict:
    """The phase's timings in seconds, scaled to the reference host speed.

    Each set-up and each round is multiplied by ``reference`` over the mean
    speed-probe reading around it, to the power :data:`SPEED_EXPONENT`; a
    ``reference`` of 0 leaves raw timings.
    """

    def factors(probes):
        return [(reference / probe) ** SPEED_EXPONENT if reference else 1.0 for probe in probes]

    rounds = factors(phase.probes)
    setups = factors(phase.setup_probes)
    return {
        "latencies": [
            seconds * rounds[round_index]
            for seconds, round_index in zip(phase.latencies, phase.read_rounds)
        ],
        "wall": sum(seconds * factor for seconds, factor in zip(phase.round_seconds, rounds)),
        "setup": [seconds * factor for seconds, factor in zip(phase.setup_seconds, setups)],
        "first_read": [
            seconds * factor for seconds, factor in zip(phase.first_read_seconds, setups)
        ],
        "refresh": [seconds * rounds[round_index] for round_index, seconds in phase.refresh],
    }


def end_to_end_metrics(phase, reference: float) -> dict:
    from pitexbench.measure import median, percentile

    times = scaled(phase, reference)
    answers = [response.result for response in phase.responses if response.ok]
    values = {
        "latency_p50_ms": 1000.0 * percentile(times["latencies"], 0.5),
        "latency_p90_ms": 1000.0 * percentile(times["latencies"], 0.9),
        "throughput_qps": phase.completed / times["wall"],
        "answer_spread": statistics.fmean(result.spread for result in answers),
        "peak_rss_mb": phase.rss_mib,
        "setup_s": median(times["setup"]),
        "refresh_p50_ms": 1000.0 * median(times["refresh"] or times["first_read"]),
    }
    return {name: {"value": values[name], "unit": END_TO_END[name]} for name in END_TO_END}


def layer_metrics(plan, untraced, traced, spans, problems) -> dict:
    from pitexbench.layers import SPAN_NAME, merge_records, query_self_sum
    from pitexbench.measure import median

    records = [span for span in spans if span.get("span") == SPAN_NAME]
    timed = [
        record
        for record in records
        if any(start <= record["ended"] <= end for start, end in traced.round_windows)
    ]
    every = merge_records(records)
    during = merge_records(timed)
    zero = [0, 0.0, 0.0]
    executed = during.get("core.query", zero)[0]
    freezes = every.get("core.freeze", zero)[0]

    def per_query_ms(layer: str, column: int = 1) -> float:
        return 1000.0 * during.get(layer, zero)[column] / executed if executed else 0.0

    def per_freeze_s(layer: str) -> float:
        return every.get(layer, zero)[1] / freezes if freezes else 0.0

    def per_call_s(merged, layer: str, column: int = 1) -> float:
        slot = merged.get(layer, zero)
        return slot[column] / slot[0] if slot[0] else 0.0

    method = plan.workload.method
    counters = traced.counters
    executed_results = [
        response.result for response in traced.responses if response.ok and not response.cache_hit
    ]
    evaluated = sum(result.evaluated_tag_sets for result in executed_results)
    pruned = sum(result.pruned_tag_sets for result in executed_results)
    self_sum, inclusive = query_self_sum(timed)
    gap = abs(self_sum - inclusive) / inclusive if inclusive else 0.0
    if gap > MAX_SELF_TIME_GAP:
        problems.append(f"layer self times sum to {self_sum:.4f}s, queries took {inclusive:.4f}s")
    unattributed = during.get("core.query", zero)[1] / inclusive if inclusive else 0.0
    if unattributed > MAX_UNATTRIBUTED_SHARE:
        problems.append(
            f"{unattributed:.1%} of query time is in no wrapped layer "
            f"(limit {MAX_UNATTRIBUTED_SHARE:.0%})"
        )
    if executed != len(executed_results):
        problems.append(f"traced {executed} engine queries, expected {len(executed_results)}")
    cached = bool(plan.workload.reads_per_write)
    shards = traced.shard_counts
    values = {
        "core.query_ms": per_query_ms("core.query", column=2),
        "core.engine_self_ms": per_query_ms("core.query"),
        "core.explore_self_ms": per_query_ms("core.explore"),
        "core.tag_sets_evaluated": evaluated,
        "core.prune_ratio": pruned / (pruned + evaluated) if pruned + evaluated else 0.0,
        "core.freeze_s": per_freeze_s("core.freeze"),
        "topics.prob_ms": per_query_ms("topics.prob"),
        "index.match_ms": per_query_ms("index.match"),
        "index.match_calls": during.get("index.match", zero)[0],
        "index.edges_visited": (
            counters.get(f"query.{method}.edges_visited", 0) if method in INDEX_METHODS else 0
        ),
        "index.build_s": per_freeze_s("index.build"),
        "index.tables_s": per_freeze_s("index.tables"),
        "sampling.estimate_ms": per_query_ms("sampling.estimate"),
        "sampling.kernel_ms": per_query_ms("sampling.kernel"),
        "sampling.samples": (
            counters.get(f"query.{method}.samples", 0) if method in SAMPLING_METHODS else 0
        ),
        "sampling.edges_visited": (
            counters.get(f"query.{method}.edges_visited", 0) if method in SAMPLING_METHODS else 0
        ),
        "serve.answer_cache.hit_rate": traced.hits() / len(traced.responses) if cached else 0.0,
        "serve.answer_cache.lookups": len(traced.responses) if cached else 0,
        "serve.answer_cache.hit_ms": 1000.0 * per_call_s(during, "serve.answer_cache.hit", 2),
        "serve.answer_cache.invalidations": traced.invalidations,
        "serve.engine_rebuilds": traced.rebuilds,
        "serve.wait_ms_p50": 1000.0
        * median([response.queue_seconds for response in traced.responses]),
        "serve.shard_imbalance": max(shards) * len(shards) / sum(shards) - 1.0 if shards else 0.0,
        "serve.publish_s": per_call_s(every, "serve.publish"),
        "serve.worker_start_s": median(traced.worker_start_seconds),
        "graph.add_edge_ms": 1000.0 * per_call_s(every, "graph.add_edge"),
        "trace.overhead": 1.0
        - (traced.completed / scaled(traced, REFERENCE_PROBE_SECONDS)["wall"])
        / (untraced.completed / scaled(untraced, REFERENCE_PROBE_SECONDS)["wall"]),
    }
    return {name: {"value": values[name], "unit": PER_LAYER[name]} for name in PER_LAYER}


def check_repeat(plan, phase, source_digest: str) -> list:
    """Compare answers and counters with an earlier run of the same seed, if any."""
    from pitexbench.measure import compare_runs

    state = WORK_DIR / "state"
    state.mkdir(parents=True, exist_ok=True)
    path = state / (
        f"{plan.workload.name}-seed{plan.seed}-reads{len(plan.reads)}-{source_digest[:16]}.json"
    )
    current = {"answers_digest": phase.digest, "counters": phase.counters}
    if path.is_file():
        return compare_runs(json.loads(path.read_text()), current, "repeat of this seed")
    path.write_text(json.dumps(current, sort_keys=True))
    return []


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: the program's sources are missing under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from repro.obs.trace import TraceRecorder, install_recorder

    from pitexbench.layers import LayerTracer, emit_span, layer_targets
    from pitexbench.measure import check_metric_name, compare_runs, format_metrics, run_stamp
    from pitexbench.workloads import WORKLOADS, load_fixed_dataset, make_plan, run_phase, spot_check

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    for name in list(END_TO_END) + list(PER_LAYER):
        check_metric_name(name)
    workload = WORKLOADS[args.workload]
    WORK_DIR.mkdir(exist_ok=True)
    dataset = load_fixed_dataset()
    plan = make_plan(workload, args.seed, args.seconds, dataset)
    stamp = run_stamp(ROOT, workload.name, args.seed, plan.samples())
    print(json.dumps({"stamp": stamp}, sort_keys=True))

    untraced = run_phase(plan, dataset, WORK_DIR)
    if workload.backend == "process":
        spot_check(plan, untraced, dataset)
    problems = list(untraced.problems)
    problems += check_repeat(plan, untraced, stamp["source_digest"])
    phases = [untraced]
    if args.trace:
        fresh = load_fixed_dataset()
        recorder = TraceRecorder()
        previous = install_recorder(recorder)
        try:
            with LayerTracer(layer_targets(), emit_span):
                traced = run_phase(plan, fresh, WORK_DIR)
        finally:
            install_recorder(previous)
        phases.append(traced)
        problems += traced.problems
        problems += compare_runs(
            {"answers_digest": untraced.digest, "counters": untraced.counters},
            {"answers_digest": traced.digest, "counters": traced.counters},
            "traced vs untraced",
        )
        metrics = layer_metrics(plan, untraced, traced, recorder.spans(), problems)
    else:
        metrics = end_to_end_metrics(untraced, REFERENCE_PROBE_SECONDS)

    attempted = sum(len(phase.responses) + phase.writes_attempted for phase in phases)
    failed = sum(phase.reads_failed + phase.writes_failed for phase in phases)
    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}")
    for phase, label in zip(phases, ("untraced", "traced")):
        print(
            f"  {label}: reads {len(phase.responses)} attempted / {phase.reads_failed} failed, "
            f"writes {phase.writes_attempted} attempted / {phase.writes_failed} failed, "
            f"cache hits {phase.hits()}, answers_digest {phase.digest[:16]}"
        )
    print("\n".join(format_metrics(metrics)))
    if not args.trace:
        unscaled = end_to_end_metrics(untraced, 0.0)
        print("  unscaled (raw host timings):")
        print("\n".join(format_metrics(unscaled)))
        # The result line's keys are fixed, so the raw figures and the probe
        # readings behind the scaling go on the line before it.
        print(json.dumps({
            "unscaled": unscaled,
            "probe_ms_median": 1000.0 * statistics.median(untraced.probes),
            "probe_busy_share": untraced.probe_busy_seconds / untraced.probe_seconds,
        }))
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    correct = not problems
    print(
        json.dumps(
            {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
