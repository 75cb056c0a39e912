"""Query-local memos keyed by what fixes a probability row.

The best-effort explorer and the estimators meet the same probability row
many times in one query (sparse tag-topic matrices make many tag sets share
a row).  :func:`memoized_many` serves a batch of keys from a caller-owned
dict and computes the values of the missing keys in one batched call.  The
dict lives on a query-local object, so it needs no lock and no eviction.
:func:`distinct_rows` builds each distinct key's row once within one batch,
for callers that must still hand every row on.
"""

from __future__ import annotations

from typing import Callable, Dict, Hashable, List, Sequence, TypeVar

import numpy as np

Item = TypeVar("Item")
Value = TypeVar("Value")


def memoized_many(
    memo: Dict[Hashable, Value],
    keys: Sequence[Hashable],
    items: Sequence[Item],
    compute: Callable[[List[Item]], Sequence[Value]],
) -> List[Value]:
    """``memo[key]`` for every key, filling the missing keys first.

    ``items[i]`` is what ``compute`` needs for ``keys[i]``.  The first item of
    each distinct key not in ``memo`` goes to one ``compute`` call, in order
    of first appearance; ``compute`` returns one value per item it gets.
    Keys already in ``memo`` are neither recomputed nor replaced.
    """
    missing: Dict[Hashable, Item] = {}
    for key, item in zip(keys, items):
        if key not in memo:
            missing.setdefault(key, item)
    if missing:
        memo.update(zip(missing, compute(list(missing.values()))))
    return [memo[key] for key in keys]


def distinct_rows(
    keys: Sequence[Hashable],
    items: Sequence[Item],
    build: Callable[[List[Item]], np.ndarray],
) -> np.ndarray:
    """``build(items)``, with the row of each distinct key built once.

    ``items[i]`` is what ``build`` needs for ``keys[i]``, and items with one
    key must have bitwise-equal rows.  ``build`` gets the first item of each
    distinct key, in order of first appearance, and returns one row per
    item; the result repeats those rows so that row ``i`` belongs to
    ``keys[i]``.
    """
    slots: Dict[Hashable, int] = {}
    firsts: List[Item] = []
    inverse: List[int] = []
    for key, item in zip(keys, items):
        slot = slots.setdefault(key, len(slots))
        if slot == len(firsts):
            firsts.append(item)
        inverse.append(slot)
    rows = build(firsts)
    return rows if len(firsts) == len(inverse) else rows[inverse]
