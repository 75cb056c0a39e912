"""Lock-discipline rule (LCK001) for the serving layer.

A serve-layer class that *owns* a lock (it assigns ``threading.Lock()`` /
``RLock()`` / ``Condition()`` / a semaphore to an attribute) is declaring
that its shared state is touched concurrently.  From that declaration the
rule demands the obvious discipline: every write to ``self``-reachable state
outside ``__init__`` must happen lexically inside a ``with`` block whose
context manager looks lock-ish (``with self._lock:``, ``with
self._condition:``, ``with gate.lock:``).

The check is lexical, not an escape analysis: a helper that is *always
called* under the caller's lock still gets flagged and needs an inline
``# pitexlint: ignore[LCK001] -- <why>`` stating that contract -- which is
exactly the documentation the next reader needs.  Classes without a lock
attribute are exempt (they make no concurrency claim).
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Set

from pitexlint.core import Finding, SourceModule
from pitexlint.mutations import statement_mutations
from pitexlint.registry import LOCK_CONSTRUCTORS, LOCK_SCOPE, LOCKISH_TOKENS, in_scope


def _lock_attributes(class_node: ast.ClassDef) -> Set[str]:
    """Attributes assigned a threading Lock/RLock/Condition/Semaphore."""
    locks: Set[str] = set()
    for node in ast.walk(class_node):
        if not isinstance(node, ast.Assign) or not isinstance(node.value, ast.Call):
            continue
        func = node.value.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name not in LOCK_CONSTRUCTORS:
            continue
        for target in node.targets:
            if (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                locks.add(target.attr)
    return locks


def _is_lockish(context_expr: ast.AST) -> bool:
    try:
        text = ast.unparse(context_expr).lower()
    except Exception:  # pragma: no cover - unparse failure on exotic nodes
        return False
    return any(token in text for token in LOCKISH_TOKENS)


class _MethodVisitor(ast.NodeVisitor):
    """Collect self-rooted mutations with their enclosing with-lock depth."""

    def __init__(self) -> None:
        self.lock_depth = 0
        self.unlocked: List = []

    def _visit_with(self, node) -> None:
        lockish = any(_is_lockish(item.context_expr) for item in node.items)
        if lockish:
            self.lock_depth += 1
        self.generic_visit(node)
        if lockish:
            self.lock_depth -= 1

    visit_With = _visit_with
    visit_AsyncWith = _visit_with

    def generic_visit(self, node: ast.AST) -> None:
        if self.lock_depth == 0:
            self.unlocked.extend(statement_mutations(node))
        super().generic_visit(node)


def check(module: SourceModule) -> Iterator[Finding]:
    """Yield LCK001 findings for one module."""
    if not in_scope(module.scope_path, LOCK_SCOPE):
        return
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.ClassDef):
            continue
        locks = _lock_attributes(node)
        if not locks:
            continue
        lock_names = ", ".join(f"self.{name}" for name in sorted(locks))
        for method in node.body:
            if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if method.name in ("__init__", "__post_init__"):
                continue
            visitor = _MethodVisitor()
            visitor.visit(method)
            for mutation in visitor.unlocked:
                yield Finding(
                    file=module.display_path,
                    line=mutation.line,
                    col=mutation.col,
                    rule="LCK001",
                    message=(
                        f"{node.name}.{method.name} {mutation.description} outside a "
                        f"`with <lock>` block (class owns {lock_names}); hold the lock "
                        "or suppress with the invariant that makes the write safe"
                    ),
                )
