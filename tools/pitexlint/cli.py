"""Command-line front-end: ``python -m pitexlint [paths...]``.

Exit codes: 0 -- clean (suppressed findings allowed), 1 -- at least one
unsuppressed finding, 2 -- usage error.  ``--json FILE`` writes the full
machine-readable report (CI uploads it as a workflow artifact next to the
bench JSONs).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

from pitexlint.core import lint_paths
from pitexlint.registry import RULES

DEFAULT_PATHS = ("src", "tests", "benchmarks")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pitexlint",
        description=(
            "AST-based invariant checks for the PITEX reproduction: "
            "determinism (DET*), lock discipline (LCK*), observability (OBS*)."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=list(DEFAULT_PATHS),
        help=f"files or directories to lint (default: {' '.join(DEFAULT_PATHS)})",
    )
    parser.add_argument(
        "--json",
        metavar="FILE",
        default=None,
        help="also write a machine-readable report to FILE",
    )
    parser.add_argument(
        "--show-suppressed",
        action="store_true",
        help="print suppressed findings (with their reasons) after the active ones",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print every rule code with its description and exit",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.list_rules:
        for code, description in sorted(RULES.items()):
            print(f"{code}  {description}")
        return 0
    missing = [p for p in args.paths if not Path(p).exists()]
    if missing:
        print(f"pitexlint: path(s) not found: {', '.join(missing)}", file=sys.stderr)
        return 2
    report = lint_paths(args.paths)
    for finding in report.findings:
        print(finding.render())
    if args.show_suppressed:
        for finding in report.suppressed:
            print(f"{finding.render()} [suppressed: {finding.reason}]")
    summary = (
        f"pitexlint: {report.files_scanned} files, "
        f"{len(report.findings)} finding(s), {len(report.suppressed)} suppressed"
    )
    print(summary)
    if args.json:
        Path(args.json).write_text(json.dumps(report.as_dict(), indent=2) + "\n")
    return report.exit_code


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
