"""Observability rule (OBS001).

The obs subsystem (PR 8) gives the library one sanctioned way to measure a
duration: the swappable monotonic seam in ``repro.obs.clock`` (``Clock`` /
``monotonic()``, which trace spans use).  A serving/core/index module that
calls ``time.perf_counter()`` directly bypasses it -- its timings can't be
faked in tests, don't show up in spans, and fragment the "one clock" story
the telemetry determinism contract documents.

**OBS001** flags direct ``time.perf_counter()`` calls (including
``from time import perf_counter`` aliases) in modules under
:data:`~pitexlint.registry.OBS_TIMER_SCOPE`.  Raw ``time.time()`` in the same
modules is already DET004's business (the serving layer joined
``WALL_CLOCK_SCOPE`` in the same PR), so together the two rules keep serve/,
core/ and index/ from calling ``time.perf_counter()`` or ``time.time()``
directly.  Under :data:`~pitexlint.registry.OBS_MONOTONIC_SCOPE` (serve/) it
also flags every use of ``time.monotonic`` -- a call, or the function passed
as a value (``default_factory=time.monotonic``): a request's queue wait and
execute time are subtracted from each other and sit beside the ``execute``
span, so they must read the span's clock.  A deadline that a scripted test
clock must never stall keeps ``time.monotonic()`` under a justified pragma.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Set

from pitexlint.core import Finding, SourceModule
from pitexlint.determinism import dotted_name
from pitexlint.registry import OBS_MONOTONIC_SCOPE, OBS_TIMER_SCOPE, RULES, in_scope


class _TimeImports(ast.NodeVisitor):
    """Bindings through which ``time.perf_counter`` and ``time.monotonic`` can be reached."""

    def __init__(self) -> None:
        self.time_aliases: Set[str] = set()
        self.perf_counter_names: Set[str] = set()  # from time import perf_counter
        self.monotonic_names: Set[str] = set()  # from time import monotonic

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            if alias.name == "time":
                self.time_aliases.add(alias.asname or "time")

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module != "time":
            return
        for alias in node.names:
            if alias.name == "perf_counter":
                self.perf_counter_names.add(alias.asname or alias.name)
            elif alias.name == "monotonic":
                self.monotonic_names.add(alias.asname or alias.name)


def _finding(module: SourceModule, node: ast.AST, detail: str) -> Finding:
    return Finding(
        file=module.display_path,
        line=getattr(node, "lineno", 1),
        col=getattr(node, "col_offset", 0),
        rule="OBS001",
        message=f"{detail}; {RULES['OBS001'].split(';')[-1].strip()}",
    )


def check(module: SourceModule) -> Iterator[Finding]:
    """Yield OBS001 findings for one module."""
    if not in_scope(module.scope_path, OBS_TIMER_SCOPE):
        return
    imports = _TimeImports()
    imports.visit(module.tree)
    if in_scope(module.scope_path, OBS_MONOTONIC_SCOPE):
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Name) and node.id in imports.monotonic_names:
                yield _finding(module, node, "direct monotonic() timing")
            elif isinstance(node, ast.Attribute) and node.attr == "monotonic":
                chain = dotted_name(node)
                if chain and len(chain) == 2 and chain[0] in imports.time_aliases:
                    yield _finding(module, node, "direct time.monotonic() timing")
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id in imports.perf_counter_names:
            yield _finding(module, node, "direct perf_counter() timing call")
            continue
        chain: Optional[List[str]] = dotted_name(func)
        if (
            chain
            and len(chain) == 2
            and chain[0] in imports.time_aliases
            and chain[1] == "perf_counter"
        ):
            yield _finding(module, node, "direct time.perf_counter() timing call")
