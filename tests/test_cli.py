"""Tests for the command-line interface."""

import pytest

from repro.cli import main


def test_cli_requires_a_command(capsys):
    with pytest.raises(SystemExit):
        main([])


def test_cli_query_runs_and_prints_results(capsys):
    exit_code = main(
        [
            "query",
            "--dataset",
            "lastfm",
            "--scale",
            "0.1",
            "--group",
            "mid",
            "--num-queries",
            "1",
            "--k",
            "2",
            "--method",
            "lazy",
            "--max-samples",
            "60",
            "--index-samples",
            "100",
            "--seed",
            "5",
        ]
    )
    captured = capsys.readouterr()
    assert exit_code == 0
    assert "dataset: lastfm" in captured.out
    assert "best 2-tag set" in captured.out


def test_cli_query_rejects_unknown_method():
    with pytest.raises(SystemExit):
        main(["query", "--method", "magic"])


def test_cli_bench_single_experiment(capsys):
    exit_code = main(["bench", "--experiment", "table2", "--preset", "smoke", "--seed", "7"])
    captured = capsys.readouterr()
    assert exit_code == 0
    assert "table2" in captured.out
    assert "lastfm" in captured.out


def test_cli_bench_rejects_unknown_experiment():
    with pytest.raises(SystemExit):
        main(["bench", "--experiment", "fig99"])


QUERY_SMOKE_ARGS = [
    "query",
    "--dataset", "lastfm",
    "--scale", "0.08",
    "--group", "mid",
    "--num-queries", "1",
    "--k", "2",
    "--method", "lazy",
    "--max-samples", "40",
    "--index-samples", "60",
    "--seed", "5",
]


def test_cli_query_kernel_flag_accepts_dict(capsys):
    exit_code = main(QUERY_SMOKE_ARGS + ["--kernel", "dict"])
    captured = capsys.readouterr()
    assert exit_code == 0
    assert "best 2-tag set" in captured.out


def test_cli_query_json_output_is_parseable(capsys):
    import json

    exit_code = main(QUERY_SMOKE_ARGS + ["--json"])
    captured = capsys.readouterr()
    assert exit_code == 0
    document = json.loads(captured.out)
    assert document["method"] == "lazy"
    assert document["kernel"] == "csr"
    assert len(document["results"]) == 1
    result = document["results"][0]
    assert len(result["tag_ids"]) == 2
    assert result["spread"] >= 1.0
    # Per-method edge-visit counters (Fig. 13 instrumentation) ride along.
    counters = document["counters"]
    (method_key,) = counters.keys()
    assert "lazy" in method_key
    assert counters[method_key]["queries"] == 1
    assert counters[method_key]["edge_visits"] == result["edges_visited"]
    assert counters[method_key]["samples"] == result["samples_drawn"] > 0


def test_cli_query_batched_kernel_and_method(capsys):
    import json

    exit_code = main(QUERY_SMOKE_ARGS + ["--kernel", "batched", "--json"])
    captured = capsys.readouterr()
    assert exit_code == 0
    document = json.loads(captured.out)
    assert document["kernel"] == "batched"
    assert document["results"][0]["spread"] >= 1.0

    args = [a if a != "lazy" else "lazy-batched" for a in QUERY_SMOKE_ARGS]
    exit_code = main(args + ["--json"])
    captured = capsys.readouterr()
    assert exit_code == 0
    document = json.loads(captured.out)
    # The lazy-batched method always reports the batched kernel, whatever the
    # engine-wide --kernel flag says.
    assert document["method"] == "lazy-batched"
    assert document["kernel"] == "batched"
    counters = document["counters"]
    assert any("lazy-batched" in key for key in counters)


def test_cli_query_rejects_unknown_kernel():
    with pytest.raises(SystemExit):
        main(["query", "--kernel", "sparse"])


def test_cli_index_build_then_serve_replay_warm_start(capsys, tmp_path):
    import json

    store = str(tmp_path / "store")
    common = [
        "--dataset", "lastfm",
        "--scale", "0.08",
        "--index-samples", "60",
        "--seed", "11",
        "--store", store,
    ]
    exit_code = main(["index-build", *common, "--kind", "rr-graphs", "--json"])
    captured = capsys.readouterr()
    assert exit_code == 0
    build_doc = json.loads(captured.out)
    assert build_doc["indexes"] == [
        {
            "kind": "rr-graphs",
            "loaded": False,
            "seconds": build_doc["indexes"][0]["seconds"],
            "memory_bytes": build_doc["indexes"][0]["memory_bytes"],
        }
    ]

    exit_code = main(
        [
            "serve-replay",
            *common,
            "--num-queries", "6",
            "--k", "2",
            "--method", "indexest",
            "--max-samples", "40",
            "--workers", "2",
            "--json",
        ]
    )
    captured = capsys.readouterr()
    assert exit_code == 0
    replay_doc = json.loads(captured.out)
    assert replay_doc["indexes"] == [
        {"kind": "rr-graphs", "loaded": True, "seconds": replay_doc["indexes"][0]["seconds"]}
    ]
    assert replay_doc["num_queries"] == 6
    assert replay_doc["failures"] == 0
    assert replay_doc["overall"]["count"] == 6
    assert replay_doc["service"]["completed"] == 6


def test_cli_serve_replay_freeze_answers_like_unfrozen(capsys):
    import json

    documents = {}
    for flags in ([], ["--freeze"]):
        exit_code = main(
            [
                "serve-replay",
                "--dataset", "lastfm",
                "--scale", "0.08",
                "--index-samples", "60",
                "--seed", "11",
                "--num-queries", "6",
                "--k", "2",
                "--method", "indexest+",
                "--max-samples", "40",
                "--workers", "4",
                *flags,
                "--json",
            ]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        documents[bool(flags)] = json.loads(captured.out)
    for document in documents.values():
        assert document["failures"] == 0
        assert document["backend"] == "thread"
        assert document["num_workers"] == 4
        assert document["overall"]["count"] == 6
    # One query path: freezing builds up front but never changes an answer.
    digests = {frozen: doc["answer_cache"]["answers_digest"] for frozen, doc in documents.items()}
    assert digests[True] == digests[False]


def test_cli_serve_replay_without_store_builds_in_process(capsys):
    exit_code = main(
        [
            "serve-replay",
            "--dataset", "lastfm",
            "--scale", "0.08",
            "--index-samples", "60",
            "--seed", "11",
            "--num-queries", "4",
            "--k", "2",
            "--method", "lazy",
            "--max-samples", "40",
        ]
    )
    captured = capsys.readouterr()
    assert exit_code == 0
    assert "workload replay" in captured.out
    assert "qps" in captured.out
