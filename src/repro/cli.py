"""Command-line interface.

Four sub-commands are provided::

    pitex query --dataset lastfm --group mid --k 3 --method indexest+
    pitex bench --experiment fig7 --preset smoke
    pitex index-build --dataset lastfm --scale 0.2 --store ./pitex-store
    pitex serve-replay --dataset lastfm --scale 0.2 --store ./pitex-store --num-queries 50

``query`` answers a handful of PITEX queries on a synthetic dataset and prints
the selected tag sets; ``bench`` runs one (or all) of the table/figure drivers
and prints the reproduced rows; ``index-build`` builds the offline indexes and
persists them into an :class:`~repro.serve.store.IndexStore`; ``serve-replay``
answers a seeded query stream through the concurrent
:class:`~repro.serve.service.PitexService` (warm-starting from the store when
it holds a matching index) and prints the latency/throughput table.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.bench.config import BenchmarkConfig
from repro.bench.experiments import EXPERIMENTS
from repro.bench.harness import BenchmarkHarness
from repro.bench.reporting import format_table
from repro.core.engine import METHODS, PitexEngine, resolved_kernel
from repro.datasets.profiles import profile_names
from repro.datasets.synthetic import load_dataset
from repro.sampling.instrumentation import EstimatorInstrumentation

INDEX_METHODS_RR = ("indexest", "indexest+")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pitex",
        description="PITEX reproduction: personalized social influential tags exploration",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    query = subparsers.add_parser("query", help="answer PITEX queries on a synthetic dataset")
    query.add_argument("--dataset", choices=profile_names(), default="lastfm")
    query.add_argument("--scale", type=float, default=0.3, help="dataset scale factor")
    query.add_argument("--group", choices=("high", "mid", "low"), default="mid")
    query.add_argument("--num-queries", type=int, default=3)
    query.add_argument("--k", type=int, default=3)
    query.add_argument("--method", choices=METHODS, default="indexest+")
    query.add_argument("--kernel", choices=("batched", "csr", "dict"), default="csr",
                       help="sampling kernel: multi-instance batched event queue, "
                            "vectorized CSR (default), or per-edge dict reference")
    query.add_argument("--epsilon", type=float, default=0.7)
    query.add_argument("--delta", type=float, default=1000.0)
    query.add_argument("--max-samples", type=int, default=300)
    query.add_argument("--index-samples", type=int, default=800)
    query.add_argument("--seed", type=int, default=2017)
    query.add_argument("--json", action="store_true", help="emit one JSON document instead of text")

    bench = subparsers.add_parser("bench", help="run table/figure reproduction experiments")
    bench.add_argument(
        "--experiment",
        choices=sorted(EXPERIMENTS) + ["all"],
        default="all",
        help="which table/figure to reproduce",
    )
    bench.add_argument("--preset", choices=("smoke", "default", "full"), default="smoke")
    bench.add_argument("--seed", type=int, default=None)

    build = subparsers.add_parser(
        "index-build", help="build the offline indexes and persist them to an index store"
    )
    build.add_argument("--dataset", choices=profile_names(), default="lastfm")
    build.add_argument("--scale", type=float, default=0.2)
    build.add_argument("--index-samples", type=int, default=250)
    build.add_argument("--seed", type=int, default=2017)
    build.add_argument("--store", default="./pitex-store", help="index store directory")
    build.add_argument(
        "--kind",
        choices=("rr-graphs", "delaymat", "both"),
        default="both",
        help="which offline index to build and persist",
    )
    build.add_argument("--json", action="store_true", help="emit one JSON document instead of text")

    replay = subparsers.add_parser(
        "serve-replay",
        help="replay a seeded query workload through the concurrent serving layer",
    )
    replay.add_argument("--dataset", choices=profile_names(), default="lastfm")
    replay.add_argument("--scale", type=float, default=0.2)
    replay.add_argument("--num-queries", type=int, default=50)
    replay.add_argument("--k", type=int, default=2)
    replay.add_argument("--method", choices=METHODS, default="indexest")
    replay.add_argument("--epsilon", type=float, default=0.7)
    replay.add_argument("--delta", type=float, default=1000.0)
    replay.add_argument("--max-samples", type=int, default=100)
    replay.add_argument("--index-samples", type=int, default=250)
    replay.add_argument("--seed", type=int, default=2017)
    replay.add_argument("--stream-seed", type=int, default=None,
                        help="seed of the query stream (defaults to --seed)")
    replay.add_argument("--store", default=None,
                        help="index store directory for the warm start (omit to build in-process)")
    replay.add_argument("--workers", type=int, default=2)
    replay.add_argument("--max-batch", type=int, default=8)
    replay.add_argument(
        "--backend",
        choices=("thread", "process"),
        default="thread",
        help="serving backend: a thread pool over one shared engine "
             "(reference oracle), or one frozen engine replica per worker "
             "process reconstructed from mmap'd store arrays (requires "
             "--store; implies --freeze; escapes the GIL)",
    )
    replay.add_argument(
        "--freeze",
        action="store_true",
        help="freeze the engine before serving: build the served method's "
             "indexes and per-user tables up front and make the graph and "
             "indexes read-only (always on for --backend process)",
    )
    replay.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="record one structured span per executed query and write them "
             "as JSON Lines to PATH (works on both backends; process workers "
             "ship their spans back at shutdown)",
    )
    replay.add_argument(
        "--answer-cache",
        action=argparse.BooleanOptionalAction,
        default=False,
        help="memoize frozen answers by query fingerprint "
             "(repro.serve.answers.AnswerCache): repeat queries return the "
             "byte-identical cached result without touching the engine "
             "(implies --freeze on the thread backend; per-worker replica "
             "caches on the process backend)",
    )
    replay.add_argument(
        "--zipf-s",
        type=float,
        default=0.0,
        help="Zipf exponent for the within-group user draw of the query "
             "stream: higher values concentrate repeat traffic on head "
             "users, which is how warm-cache legs dial their hit rate "
             "(0 keeps the historical uniform draw)",
    )
    replay.add_argument(
        "--repeat",
        type=int,
        default=1,
        metavar="N",
        help="replay the same query stream N times through one open service "
             "(the answer cache persists across passes, so pass 2+ measures "
             "the warm path); the JSON document reports the final pass plus "
             "a per-pass \"passes\" list of hit rates and answer digests",
    )
    replay.add_argument("--json", action="store_true", help="emit one JSON document instead of text")
    return parser


def _run_query(args: argparse.Namespace) -> int:
    dataset = load_dataset(args.dataset, scale=args.scale, seed=args.seed)
    engine = PitexEngine(
        dataset.graph,
        dataset.model,
        epsilon=args.epsilon,
        delta=args.delta,
        max_samples=args.max_samples,
        index_samples=args.index_samples,
        default_k=args.k,
        seed=args.seed,
        kernel=args.kernel,
    )
    users = dataset.workload(args.group, args.num_queries)
    if not args.json:
        # Text mode streams one line per query as it completes.
        print(f"dataset: {dataset.describe()}")
        for user in users:
            print(engine.query(user=user, k=args.k, method=args.method).describe())
        return 0
    results = [engine.query(user=user, k=args.k, method=args.method) for user in users]
    instrumentation = EstimatorInstrumentation()
    for result in results:
        instrumentation.record_query_result(
            result.method, result.edges_visited, result.samples_drawn
        )
    document = {
        "dataset": dataset.describe(),
        "method": args.method,
        "kernel": resolved_kernel(args.method, args.kernel),
        "k": args.k,
        "counters": instrumentation.as_dict(),
        "results": [
            {
                "user": result.query.user,
                "tag_ids": list(result.tag_ids),
                "tags": list(result.tags),
                "spread": result.spread,
                "evaluated_tag_sets": result.evaluated_tag_sets,
                "pruned_tag_sets": result.pruned_tag_sets,
                "edges_visited": result.edges_visited,
                "samples_drawn": result.samples_drawn,
                "elapsed_seconds": result.elapsed_seconds,
            }
            for result in results
        ],
    }
    print(json.dumps(document, indent=2))
    return 0


def _run_bench(args: argparse.Namespace) -> int:
    config = BenchmarkConfig.preset(args.preset)
    if args.seed is not None:
        config = config.with_overrides(seed=args.seed)
    harness = BenchmarkHarness(config)
    names = sorted(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    for name in names:
        driver = EXPERIMENTS[name]
        result = driver(harness)
        print(format_table(result))
        print()
    return 0


def _run_index_build(args: argparse.Namespace) -> int:
    from repro.serve.store import IndexStore

    dataset = load_dataset(args.dataset, scale=args.scale, seed=args.seed)
    store = IndexStore(args.store)
    graph, model = dataset.graph, dataset.model
    built = []
    if args.kind in ("rr-graphs", "both"):
        index, loaded, seconds = store.load_or_build_rr(
            graph, model, args.index_samples, seed=args.seed
        )
        built.append(("rr-graphs", loaded, seconds, index.memory_bytes()))
    if args.kind in ("delaymat", "both"):
        index, loaded, seconds = store.load_or_build_delayed(
            graph, model, args.index_samples, seed=args.seed
        )
        built.append(("delaymat", loaded, seconds, index.memory_bytes()))
    if args.json:
        print(
            json.dumps(
                {
                    "dataset": args.dataset,
                    "scale": args.scale,
                    "index_samples": args.index_samples,
                    "store": str(store.root),
                    "graph_fingerprint": graph.fingerprint(),
                    "indexes": [
                        {"kind": kind, "loaded": loaded, "seconds": seconds, "memory_bytes": size}
                        for kind, loaded, seconds, size in built
                    ],
                },
                indent=2,
            )
        )
        return 0
    print(f"dataset: {dataset.describe()}")
    print(f"store:   {store.root}  (graph fingerprint {graph.fingerprint()[:16]})")
    for kind, loaded, seconds, size in built:
        action = "loaded from store" if loaded else "built and persisted"
        print(f"{kind}: {action} in {seconds:.3f}s ({size / 1e6:.2f} MB in memory)")
    return 0


def _run_serve_replay(args: argparse.Namespace) -> int:
    from repro.obs.trace import TraceRecorder, install_recorder
    from repro.serve.answers import AnswerCache
    from repro.serve.replay import replay_stream
    from repro.serve.service import PitexService
    from repro.serve.sharded import ProcessShardedService, publish_engine_spec
    from repro.serve.store import IndexStore

    if args.backend == "process" and args.store is None:
        print("serve-replay: --backend process requires --store (workers "
              "reconstruct replicas from the persisted arrays)", file=sys.stderr)
        return 2
    if args.repeat < 1:
        print(f"serve-replay: --repeat must be at least 1, got {args.repeat}", file=sys.stderr)
        return 2
    dataset = load_dataset(args.dataset, scale=args.scale, seed=args.seed)
    graph, model = dataset.graph, dataset.model
    rr_index = delayed_index = None
    index_info = []
    if args.store is not None:
        store = IndexStore(args.store)
        if args.method in INDEX_METHODS_RR:
            rr_index, loaded, seconds = store.load_or_build_rr(
                graph, model, args.index_samples, seed=args.seed
            )
            index_info.append(("rr-graphs", loaded, seconds))
        elif args.method == "delaymat":
            delayed_index, loaded, seconds = store.load_or_build_delayed(
                graph, model, args.index_samples, seed=args.seed
            )
            index_info.append(("delaymat", loaded, seconds))
    stream_seed = args.stream_seed if args.stream_seed is not None else args.seed
    stream = dataset.query_workload.query_stream(
        args.num_queries, seed=stream_seed, zipf_s=args.zipf_s
    )
    recorder = previous_recorder = None
    if args.trace:
        recorder = TraceRecorder()
        previous_recorder = install_recorder(recorder)
    try:
        if args.backend == "process":
            # One frozen replica per worker process, rebuilt from the store's
            # mmap'd arrays; bitwise-equal to the thread backend by the
            # stateless (seed, query fingerprint) derivation.  Freezing is
            # implicit.
            spec = publish_engine_spec(
                store,
                graph,
                model,
                engine_seed=args.seed,
                index_samples=args.index_samples,
                methods=(args.method,),
                ks=(args.k,),
                epsilon=args.epsilon,
                delta=args.delta,
                max_samples=args.max_samples,
                default_k=args.k,
                index_seed=args.seed,
            )
            with ProcessShardedService(
                spec, num_workers=args.workers, answer_cache=args.answer_cache
            ) as service:
                reports = [
                    replay_stream(service, stream, method=args.method, k=args.k)
                    for _ in range(args.repeat)
                ]
        else:
            engine = PitexEngine(
                graph,
                model,
                epsilon=args.epsilon,
                delta=args.delta,
                max_samples=args.max_samples,
                index_samples=args.index_samples,
                default_k=args.k,
                seed=args.seed,
                rr_index=rr_index,
                delayed_index=delayed_index,
            )
            if args.freeze or args.answer_cache:
                # Warm only the served method.  The answer cache only fronts
                # frozen engines (whose graph cannot change under a query),
                # so --answer-cache implies --freeze here.
                engine.freeze(methods=[args.method], ks=[args.k])
            answer_cache = AnswerCache() if args.answer_cache else None
            with PitexService.for_engine(
                engine,
                num_workers=args.workers,
                max_batch=args.max_batch,
                answer_cache=answer_cache,
            ) as service:
                reports = [
                    replay_stream(service, stream, method=args.method, k=args.k)
                    for _ in range(args.repeat)
                ]
        # The final pass is the main document; earlier passes survive as the
        # per-pass summaries below (cold pass 1 vs warm pass 2+).
        report = reports[-1]
        # Worker telemetry/span shards only arrive at close (the with-block
        # exit), so the totals -- and the trace file -- are read afterwards.
        report.telemetry = service.metrics.telemetry()
        document_metrics = service.metrics.snapshot()
    finally:
        if recorder is not None:
            install_recorder(previous_recorder)
    passes = [
        {
            "pass": number,
            "hits": pass_report.cache_hits,
            "hit_rate": pass_report.hit_rate,
            "failures": pass_report.failures,
            "wall_seconds": pass_report.wall_seconds,
            "answers_digest": pass_report.answers_digest,
        }
        for number, pass_report in enumerate(reports, start=1)
    ]
    trace_info = None
    if recorder is not None:
        trace_info = {"path": args.trace, "spans": recorder.write_jsonl(args.trace)}
    total_failures = sum(pass_report.failures for pass_report in reports)
    if args.json:
        document = report.to_json()
        document["dataset"] = args.dataset
        document["scale"] = args.scale
        document["indexes"] = [
            {"kind": kind, "loaded": loaded, "seconds": seconds}
            for kind, loaded, seconds in index_info
        ]
        document["passes"] = passes
        document["service"] = document_metrics
        if trace_info is not None:
            document["trace"] = trace_info
        print(json.dumps(document, indent=2))
    else:
        print(f"dataset: {dataset.describe()}")
        for kind, loaded, seconds in index_info:
            action = "loaded from store" if loaded else "built and persisted"
            print(f"{kind}: {action} in {seconds:.3f}s")
        print(format_table(report.to_result()))
        if args.answer_cache or args.repeat > 1:
            for entry in passes:
                print(
                    f"pass {entry['pass']}: hit_rate={entry['hit_rate']:.3f} "
                    f"digest={entry['answers_digest'][:16]}"
                )
        if trace_info is not None:
            print(f"trace: {trace_info['spans']} spans -> {trace_info['path']}")
    return 0 if total_failures == 0 else 1


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point (also exposed as the ``pitex`` console script)."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "query":
        return _run_query(args)
    if args.command == "bench":
        return _run_bench(args)
    if args.command == "index-build":
        return _run_index_build(args)
    if args.command == "serve-replay":
        return _run_serve_replay(args)
    parser.error(f"unknown command {args.command!r}")
    return 2


if __name__ == "__main__":  # pragma: no cover - manual invocation
    sys.exit(main())
