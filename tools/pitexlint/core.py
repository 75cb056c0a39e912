"""Linter core: source model, suppression pragmas, runner and report.

The flow is deliberately small: a :class:`SourceModule` wraps one parsed file
(its AST, its comment pragmas, and the *effective path* used for rule
scoping), each rule module contributes a ``check(module)`` generator of
:class:`Finding` objects, and :func:`lint_source` applies the inline
suppressions before handing back the result.

Suppression pragma grammar (a comment on the offending line, or a standalone
comment on the line directly above it)::

    # pitexlint: ignore[RULE1,RULE2] -- why this exception is sound

The reason after ``--`` is **mandatory**: a suppression without one (or
naming an unknown rule) is itself reported as ``SUP001``.  Fixture files may
also carry ``# pitexlint: path=src/repro/...`` to override the path used for
rule scoping, which is how ``tools/pitexlint/fixtures/`` exercises rules
whose scope is limited to the library tree.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional

from pitexlint.registry import RULES

_PRAGMA_RE = re.compile(r"#\s*pitexlint\s*:\s*(?P<body>.*)$")
_IGNORE_RE = re.compile(
    r"^ignore\s*\[(?P<rules>[^\]]*)\]\s*(?:--\s*(?P<reason>.*\S))?\s*$"
)
_PATH_RE = re.compile(r"^path\s*=\s*(?P<path>\S+)\s*$")


@dataclass
class Finding:
    """One rule violation at a source location."""

    file: str
    line: int
    col: int
    rule: str
    message: str
    suppressed: bool = False
    reason: str = ""

    def render(self) -> str:
        """The canonical ``file:line:col: RULE message`` line."""
        return f"{self.file}:{self.line}:{self.col}: {self.rule} {self.message}"

    def as_dict(self) -> dict:
        """JSON-friendly form (used by the ``--json`` report)."""
        return {
            "file": self.file,
            "line": self.line,
            "col": self.col,
            "rule": self.rule,
            "message": self.message,
            "suppressed": self.suppressed,
            "reason": self.reason,
        }


@dataclass
class _Suppression:
    line: int
    rules: frozenset
    reason: str
    standalone: bool = False  # comment-only line: also covers the next line


class SourceModule:
    """One parsed source file plus its pragmas and effective scoping path."""

    def __init__(self, text: str, display_path: str, scope_path: Optional[str] = None) -> None:
        self.text = text
        self.display_path = display_path
        self.tree: Optional[ast.AST] = None
        self.parse_error: Optional[Finding] = None
        self.pragma_findings: List[Finding] = []
        self.suppressions: Dict[int, _Suppression] = {}
        self._pragma_path: Optional[str] = None
        self._read_pragmas()
        # Effective path for scope matching: explicit override, then the
        # in-file pragma (fixtures), then the file's repo-relative path.
        self.scope_path = scope_path or self._pragma_path or display_path
        try:
            self.tree = ast.parse(text)
        except SyntaxError as exc:
            self.parse_error = Finding(
                file=display_path,
                line=exc.lineno or 1,
                col=(exc.offset or 1) - 1,
                rule="PARSE001",
                message=f"{RULES['PARSE001']}: {exc.msg}",
            )

    # ------------------------------------------------------------- pragmas
    def _read_pragmas(self) -> None:
        """Collect pitexlint pragmas from the file's comment tokens.

        Tokenizing (instead of regex-scanning raw lines) keeps pragma-shaped
        text inside string literals and docstrings inert.
        """
        try:
            tokens = list(tokenize.generate_tokens(io.StringIO(self.text).readline))
        except (tokenize.TokenError, IndentationError, SyntaxError):
            return  # the ast.parse error will be reported instead
        for token in tokens:
            if token.type != tokenize.COMMENT:
                continue
            match = _PRAGMA_RE.search(token.string)
            if not match:
                continue
            standalone = token.line[: token.start[1]].strip() == ""
            self._parse_pragma(match.group("body").strip(), token.start[0], standalone)

    def _parse_pragma(self, body: str, line: int, standalone: bool = False) -> None:
        path_match = _PATH_RE.match(body)
        if path_match:
            if self._pragma_path is None:
                self._pragma_path = path_match.group("path")
            return
        ignore_match = _IGNORE_RE.match(body)
        if not ignore_match:
            self._bad_pragma(line, f"unrecognized pragma {body!r}")
            return
        rules = frozenset(
            rule.strip() for rule in ignore_match.group("rules").split(",") if rule.strip()
        )
        reason = (ignore_match.group("reason") or "").strip()
        unknown = sorted(rule for rule in rules if rule != "*" and rule not in RULES)
        if not rules:
            self._bad_pragma(line, "ignore[] names no rules")
            return
        if unknown:
            self._bad_pragma(line, f"unknown rule(s) {', '.join(unknown)}")
            return
        if not reason:
            self._bad_pragma(
                line,
                f"ignore[{','.join(sorted(rules))}] has no reason; append "
                "`-- <why this exception is sound>`",
            )
            return
        self.suppressions[line] = _Suppression(
            line=line, rules=rules, reason=reason, standalone=standalone
        )

    def _bad_pragma(self, line: int, detail: str) -> None:
        self.pragma_findings.append(
            Finding(
                file=self.display_path,
                line=line,
                col=0,
                rule="SUP001",
                message=f"{RULES['SUP001']}: {detail}",
            )
        )

    # -------------------------------------------------------------- helpers
    @property
    def lines(self) -> List[str]:
        return self.text.splitlines()

    def suppression_for(self, finding: Finding) -> Optional[_Suppression]:
        candidates = [self.suppressions.get(finding.line)]
        above = self.suppressions.get(finding.line - 1)
        if above is not None and above.standalone:
            candidates.append(above)
        for suppression in candidates:
            if suppression and ("*" in suppression.rules or finding.rule in suppression.rules):
                return suppression
        return None


@dataclass
class LintReport:
    """Everything one lint run produced, ready for text or JSON output."""

    paths: List[str] = field(default_factory=list)
    files_scanned: int = 0
    findings: List[Finding] = field(default_factory=list)
    suppressed: List[Finding] = field(default_factory=list)

    @property
    def exit_code(self) -> int:
        return 1 if self.findings else 0

    def as_dict(self) -> dict:
        from pitexlint import __version__

        return {
            "tool": "pitexlint",
            "version": __version__,
            "paths": self.paths,
            "files_scanned": self.files_scanned,
            "summary": {
                "findings": len(self.findings),
                "suppressed": len(self.suppressed),
                "by_rule": self._by_rule(),
            },
            "findings": [finding.as_dict() for finding in self.findings],
            "suppressed": [finding.as_dict() for finding in self.suppressed],
        }

    def _by_rule(self) -> dict:
        counts: Dict[str, int] = {}
        for finding in self.findings:
            counts[finding.rule] = counts.get(finding.rule, 0) + 1
        return dict(sorted(counts.items()))


def _rule_checkers():
    # Imported lazily: the rule modules import Finding from here.
    from pitexlint import determinism, lock_discipline, observability

    return (determinism.check, lock_discipline.check, observability.check)


def lint_source(
    text: str, display_path: str, scope_path: Optional[str] = None
) -> List[Finding]:
    """Lint one source blob; returns findings (suppressed ones marked)."""
    module = SourceModule(text, display_path, scope_path)
    if module.parse_error is not None:
        return [module.parse_error]
    raw: List[Finding] = list(module.pragma_findings)
    for checker in _rule_checkers():
        raw.extend(checker(module))
    for finding in raw:
        if finding.rule in ("SUP001", "PARSE001"):
            continue  # pragma problems cannot suppress themselves
        suppression = module.suppression_for(finding)
        if suppression is not None:
            finding.suppressed = True
            finding.reason = suppression.reason
    raw.sort(key=lambda f: (f.file, f.line, f.col, f.rule))
    return raw


def lint_file(path, root: Optional[Path] = None) -> List[Finding]:
    """Lint one file; ``root`` anchors the repo-relative display path."""
    path = Path(path)
    root = Path(root) if root is not None else Path.cwd()
    try:
        display = path.resolve().relative_to(root.resolve()).as_posix()
    except ValueError:
        display = path.as_posix()
    return lint_source(path.read_text(encoding="utf-8"), display)


def iter_python_files(paths: Iterable) -> Iterator[Path]:
    """Expand files/directories into .py files, skipping cache/hidden dirs."""
    for entry in paths:
        entry = Path(entry)
        if entry.is_dir():
            for candidate in sorted(entry.rglob("*.py")):
                parts = candidate.parts
                if any(part == "__pycache__" or part.startswith(".") for part in parts):
                    continue
                yield candidate
        elif entry.suffix == ".py":
            yield entry


def lint_paths(paths: Iterable, root: Optional[Path] = None) -> LintReport:
    """Lint every .py file under ``paths`` and fold results into a report."""
    report = LintReport(paths=[str(p) for p in paths])
    for path in iter_python_files(paths):
        report.files_scanned += 1
        for finding in lint_file(path, root=root):
            (report.suppressed if finding.suppressed else report.findings).append(finding)
    return report
