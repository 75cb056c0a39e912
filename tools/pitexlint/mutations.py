"""Shared AST helpers: detecting ``self``-rooted mutations.

The lock-discipline rule reduces to one question -- *does this statement
mutate state reachable from ``self``?* -- and the answer lives here.  A
mutation is:

* an assignment (plain, augmented or annotated) whose target is an attribute
  or subscript rooted at ``self`` (``self.x = ...``, ``self.x[k] = ...``,
  ``self.x.y += ...``),
* a ``del`` of such a target, or
* a call to a known in-place container method on a receiver rooted at
  ``self`` (``self.cache.setdefault(...)``, ``self._queue.append(...)``).

Reads, local-variable writes, and method calls on ``self`` itself
(``self.rebuild()``) are not mutations -- the latter are checked at their own
definition site, which avoids double counting and keeps findings anchored
where the write happens.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterator, Optional

from pitexlint.registry import MUTATING_CONTAINER_METHODS


@dataclass
class Mutation:
    """One self-rooted write, with a human-readable description."""

    node: ast.AST
    description: str

    @property
    def line(self) -> int:
        return getattr(self.node, "lineno", 1)

    @property
    def col(self) -> int:
        return getattr(self.node, "col_offset", 0)


def root_name(node: ast.AST) -> Optional[str]:
    """The base ``Name`` of an attribute/subscript chain, if any."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id
    return None


def _target_text(node: ast.AST) -> str:
    try:
        return ast.unparse(node)
    except Exception:  # pragma: no cover - unparse failure on exotic nodes
        return "<target>"


def _self_rooted_target(node: ast.AST) -> bool:
    """Attribute/subscript chains hanging off ``self`` (never bare ``self``)."""
    return isinstance(node, (ast.Attribute, ast.Subscript)) and root_name(node) == "self"


def statement_mutations(node: ast.AST) -> Iterator[Mutation]:
    """Mutations performed directly by one AST node (non-recursive)."""
    if isinstance(node, ast.Assign):
        for target in node.targets:
            targets = target.elts if isinstance(target, (ast.Tuple, ast.List)) else [target]
            for item in targets:
                if _self_rooted_target(item):
                    yield Mutation(node, f"assigns {_target_text(item)}")
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        if node.value is not None and _self_rooted_target(node.target):
            yield Mutation(node, f"assigns {_target_text(node.target)}")
    elif isinstance(node, ast.Delete):
        for target in node.targets:
            if _self_rooted_target(target):
                yield Mutation(node, f"deletes {_target_text(target)}")
    elif isinstance(node, ast.Call):
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr in MUTATING_CONTAINER_METHODS
            and _self_rooted_target(func.value)
        ):
            yield Mutation(node, f"calls {_target_text(func)}(...)")
