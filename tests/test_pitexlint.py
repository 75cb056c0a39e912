"""Tests for the pitexlint static invariant checker (tools/pitexlint).

Three layers of coverage:

1. the fixture corpus -- every rule fires on its ``fixtures/bad/`` file and
   stays quiet on its ``fixtures/good/`` counterpart (suppressed findings
   allowed, unsuppressed ones not);
2. rule/suppression semantics on inline scratch sources, including the
   acceptance criterion that reintroducing the PR 4 ``hash()``-salted
   seeding pattern is flagged;
3. the real tree: ``src tests benchmarks`` must lint clean (exit 0), which is
   the same invariant the CI ``pitexlint`` job enforces.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
TOOLS_DIR = REPO_ROOT / "tools"
if str(TOOLS_DIR) not in sys.path:  # tests run with PYTHONPATH=src only
    sys.path.insert(0, str(TOOLS_DIR))

from pitexlint.cli import main  # noqa: E402
from pitexlint.core import lint_file, lint_paths, lint_source  # noqa: E402
from pitexlint.registry import RULES  # noqa: E402

FIXTURES = TOOLS_DIR / "pitexlint" / "fixtures"
BAD = FIXTURES / "bad"
GOOD = FIXTURES / "good"

# fixture file -> the rule it must fire (and the only rule it may fire)
BAD_EXPECTATIONS = {
    "det001_direct_rng.py": "DET001",
    "det002_stdlib_random.py": "DET002",
    "det003_hash_salted_seed.py": "DET003",
    "det004_wall_clock.py": "DET004",
    "lck001_unlocked_write.py": "LCK001",
    "obs001_direct_timer.py": "OBS001",
    "obs001_monotonic_in_serve.py": "OBS001",
    "sup001_bad_pragmas.py": "SUP001",
    "parse001_syntax_error.py": "PARSE001",
}


def unsuppressed(findings):
    return [finding for finding in findings if not finding.suppressed]


# --------------------------------------------------------------------------
# 1. Fixture corpus
# --------------------------------------------------------------------------


def test_every_rule_has_a_bad_fixture():
    assert set(BAD_EXPECTATIONS.values()) == set(RULES)


def test_fixture_corpus_is_complete_on_disk():
    assert sorted(p.name for p in BAD.glob("*.py")) == sorted(BAD_EXPECTATIONS)
    assert len(list(GOOD.glob("*.py"))) >= len(RULES)


@pytest.mark.parametrize("name,rule", sorted(BAD_EXPECTATIONS.items()))
def test_bad_fixture_fires(name, rule):
    findings = unsuppressed(lint_file(BAD / name, root=REPO_ROOT))
    assert findings, f"{name} produced no findings"
    assert {finding.rule for finding in findings} == {rule}
    for finding in findings:
        assert finding.file.endswith(f"fixtures/bad/{name}")
        assert finding.line >= 1


@pytest.mark.parametrize("path", sorted(GOOD.glob("*.py")), ids=lambda p: p.name)
def test_good_fixture_is_quiet(path):
    findings = lint_file(path, root=REPO_ROOT)
    assert unsuppressed(findings) == []


def test_good_suppression_fixture_records_reasons():
    findings = lint_file(GOOD / "sup001_wellformed_pragma.py", root=REPO_ROOT)
    suppressed = [finding for finding in findings if finding.suppressed]
    assert len(suppressed) == 2  # same-line and standalone line-above pragmas
    assert all(finding.rule == "DET002" and finding.reason for finding in suppressed)


# --------------------------------------------------------------------------
# 2. Rule and suppression semantics on scratch sources
# --------------------------------------------------------------------------


def lint_scratch(source, scope_path="src/repro/sampling/scratch.py"):
    return lint_source(source, "scratch.py", scope_path=scope_path)


def test_pr4_hash_salted_seeding_pattern_is_flagged():
    # Acceptance criterion: the exact PR 4 regression shape must fire DET003.
    source = (
        "def stream_seed(base_seed, label):\n"
        "    return (base_seed ^ hash(label)) & 0xFFFFFFFFFFFFFFFF\n"
    )
    findings = lint_scratch(source)
    assert [finding.rule for finding in findings] == ["DET003"]


def test_rules_scope_to_library_paths():
    source = "import random\n\n\ndef jitter():\n    return random.random()\n"
    assert lint_scratch(source, scope_path="tests/test_scratch.py") == []
    assert lint_scratch(source, scope_path="benchmarks/bench_scratch.py") == []
    assert [f.rule for f in lint_scratch(source, scope_path="src/repro/utils/scratch.py")] == ["DET002"]


def test_path_pragma_overrides_scope():
    source = (
        "# pitexlint: path=src/repro/sampling/virtual.py\n"
        "import numpy as np\n\n\n"
        "def draw():\n"
        "    return np.random.default_rng()\n"
    )
    findings = lint_source(source, "tools/anywhere/scratch.py")
    assert [finding.rule for finding in findings] == ["DET001"]


def test_wall_clock_scoped_to_compute_core_and_serving():
    source = "import time\n\n\ndef stamp():\n    return time.time()\n"
    assert [f.rule for f in lint_scratch(source, "src/repro/index/scratch.py")] == ["DET004"]
    # The serving layer joined the wall-clock scope when the obs subsystem
    # landed: store.py's manifest timestamps route through wall_clock() now,
    # so a raw time.time() there is a finding, not an allowlisted exception.
    assert [f.rule for f in lint_scratch(source, "src/repro/serve/store.py")] == ["DET004"]
    # The single sanctioned wall-clock home stays quiet.
    assert lint_scratch(source, "src/repro/obs/clock.py") == []
    # utils/ is in determinism scope but not in the wall-clock scope.
    assert lint_scratch(source, "src/repro/utils/scratch.py") == []


def test_obs001_perf_counter_scoped_to_serving_and_core():
    source = "import time\n\n\ndef measure():\n    return time.perf_counter()\n"
    for scoped in (
        "src/repro/serve/scratch.py",
        "src/repro/core/scratch.py",
        "src/repro/index/scratch.py",
    ):
        assert [f.rule for f in lint_scratch(source, scoped)] == ["OBS001"]
    # The sanctioned timing home and the layers that do no timing of their
    # own are outside the OBS001 scope.
    for exempt in (
        "src/repro/obs/clock.py",
        "src/repro/utils/scratch.py",
        "src/repro/sampling/scratch.py",
        "benchmarks/bench_scratch.py",
    ):
        assert lint_scratch(source, exempt) == []
    # from-import aliases are caught too.
    aliased = "from time import perf_counter as tick\n\n\ndef measure():\n    return tick()\n"
    assert [f.rule for f in lint_scratch(aliased, "src/repro/serve/scratch.py")] == ["OBS001"]


def test_obs001_monotonic_scoped_to_serving():
    """Serving-layer durations read obs.clock; core/ and index/ may still read time.monotonic()."""
    called = "import time\n\n\ndef age(t0):\n    return time.monotonic() - t0\n"
    passed = "import time\nfrom dataclasses import field\n\nstamp = field(default_factory=time.monotonic)\n"
    aliased = "from time import monotonic as now\n\n\ndef age(t0):\n    return now() - t0\n"
    for source in (called, passed, aliased):
        assert [f.rule for f in lint_scratch(source, "src/repro/serve/scratch.py")] == ["OBS001"]
        for exempt in ("src/repro/core/scratch.py", "src/repro/index/scratch.py", "src/repro/utils/scratch.py"):
            assert lint_scratch(source, exempt) == []
    # The obs clock's own monotonic() is the sanctioned seam.
    sanctioned = "from repro.obs.clock import monotonic\n\n\ndef age(t0):\n    return monotonic() - t0\n"
    assert lint_scratch(sanctioned, "src/repro/serve/scratch.py") == []
    # A deadline that a scripted test clock must not stall keeps time.monotonic() under a pragma.
    deadline = "import time\n\n\ndef deadline(timeout):\n    return time.monotonic() + timeout  {pragma}\n"
    findings = lint_scratch(deadline.format(pragma="# pitexlint: ignore[OBS001] -- a deadline"), "src/repro/serve/s.py")
    assert [(f.rule, f.suppressed) for f in findings] == [("OBS001", True)]


def test_same_line_suppression_requires_reason():
    offending = "import random\n\n\ndef f():\n    return random.random()  {pragma}\n"
    good = lint_scratch(offending.format(pragma="# pitexlint: ignore[DET002] -- scratch justification"))
    assert [f.rule for f in unsuppressed(good)] == []
    assert [(f.rule, f.suppressed, f.reason) for f in good] == [("DET002", True, "scratch justification")]
    bad = lint_scratch(offending.format(pragma="# pitexlint: ignore[DET002]"))
    assert sorted(f.rule for f in unsuppressed(bad)) == ["DET002", "SUP001"]


def test_standalone_pragma_covers_next_line_only():
    source = (
        "import random\n\n\n"
        "def f():\n"
        "    # pitexlint: ignore[DET002] -- first draw is justified scratch\n"
        "    a = random.random()\n"
        "    b = random.random()\n"
        "    return a + b\n"
    )
    findings = lint_scratch(source)
    assert [(f.line, f.suppressed) for f in findings] == [(6, True), (7, False)]


def test_trailing_pragma_does_not_leak_to_next_line():
    source = (
        "import random\n\n\n"
        "def f():\n"
        "    a = random.random()  # pitexlint: ignore[DET002] -- this line only\n"
        "    b = random.random()\n"
        "    return a + b\n"
    )
    findings = lint_scratch(source)
    assert [(f.line, f.suppressed) for f in findings] == [(5, True), (6, False)]


def test_suppression_only_matches_named_rules():
    source = (
        "import random\n\n\n"
        "def f():\n"
        "    return random.random()  # pitexlint: ignore[DET001] -- names the wrong rule\n"
    )
    findings = lint_scratch(source)
    assert [(f.rule, f.suppressed) for f in findings] == [("DET002", False)]


def test_sup001_cannot_be_suppressed():
    source = (
        "# pitexlint: ignore[*] -- blanket attempt\n"
        "X = 1  # pitexlint: ignore[DET002]\n"
    )
    findings = lint_scratch(source)
    assert [(f.rule, f.suppressed) for f in findings] == [("SUP001", False)]


def test_pragma_inside_string_literal_is_inert():
    source = 'DOC = "# pitexlint: ignore[DET002]"\n'
    assert lint_scratch(source) == []


def test_lck001_requires_lock_ownership():
    unlocked = (
        "class Scratch:\n"
        "    def bump(self):\n"
        "        self.count = 1\n"
    )
    assert lint_scratch(unlocked, "src/repro/serve/scratch.py") == []
    owning = (
        "import threading\n\n\n"
        "class Scratch:\n"
        "    def __init__(self):\n"
        "        self._lock = threading.Lock()\n"
        "        self.count = 0\n\n"
        "    def bump(self):\n"
        "        self.count += 1\n"
    )
    assert [f.rule for f in lint_scratch(owning, "src/repro/serve/scratch.py")] == ["LCK001"]
    locked = owning.replace("        self.count += 1", "        with self._lock:\n            self.count += 1")
    assert lint_scratch(locked, "src/repro/serve/scratch.py") == []


# --------------------------------------------------------------------------
# 3. The real tree, the report, and the CLI
# --------------------------------------------------------------------------


def test_real_tree_lints_clean():
    report = lint_paths(
        [REPO_ROOT / "src", REPO_ROOT / "tests", REPO_ROOT / "benchmarks"], root=REPO_ROOT
    )
    assert report.files_scanned > 50
    rendered = "\n".join(finding.render() for finding in report.findings)
    assert report.exit_code == 0, f"tree has unsuppressed findings:\n{rendered}"
    # The two GIL-atomic serve-layer writes stay visible as justified suppressions.
    assert all(finding.reason for finding in report.suppressed)


def test_json_report_shape():
    report = lint_paths([BAD], root=REPO_ROOT)
    payload = report.as_dict()
    assert payload["tool"] == "pitexlint"
    assert payload["files_scanned"] == len(BAD_EXPECTATIONS)
    assert payload["summary"]["findings"] == len(payload["findings"]) > 0
    assert set(payload["summary"]["by_rule"]) == set(RULES)
    first = payload["findings"][0]
    assert set(first) == {"file", "line", "col", "rule", "message", "suppressed", "reason"}


def test_cli_exit_codes_and_output(tmp_path, capsys):
    assert main([str(GOOD)]) == 0
    out = capsys.readouterr().out
    assert "0 finding(s)" in out and "2 suppressed" in out

    report_path = tmp_path / "report.json"
    assert main([str(BAD), "--json", str(report_path)]) == 1
    out = capsys.readouterr().out
    assert f"{len(BAD_EXPECTATIONS)} files" in out
    payload = json.loads(report_path.read_text())
    assert payload["summary"]["findings"] > 0

    assert main([str(tmp_path / "missing_dir")]) == 2
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule in RULES:
        assert rule in out


def test_findings_render_as_file_line_col_rule():
    findings = unsuppressed(lint_file(BAD / "det001_direct_rng.py", root=REPO_ROOT))
    line = findings[0].render()
    prefix, rest = line.split(" ", 1)
    file_part, line_part, col_part, _ = prefix.split(":")
    assert file_part.endswith(".py") and int(line_part) >= 1 and int(col_part) >= 0
    assert rest.startswith("DET001 ")
