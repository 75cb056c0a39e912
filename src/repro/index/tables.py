"""Freeze-time per-user tables for the query path.

An engine builds a fresh estimator per query (so concurrent queries
share no mutable state), which means the per-user structures an estimator
would normally cache -- the ``IndexEst+`` cut/inverted-list structures and
the ``DelayMat`` recovered graphs plus their filters -- were re-derived on
*every* query.  This module precomputes them once at :meth:`PitexEngine.freeze`
time into read-only tables the engine hands to every query-local estimator,
so even cold (uncached) queries stop paying the re-derivation tax.

Determinism:

* the ``IndexEst+`` structures are a pure function of the built RR-Graph
  index (no RNG), so precomputing them is **bitwise-neutral**: frozen
  answers are identical with or without the table;
* the ``DelayMat`` recovery consumes RNG, so each user's graphs are drawn
  from a label-derived engine stream (``delaymat-table|<user>``).  Streams
  are derived per user independent of build order, and every same-seed
  engine replica derives the same streams, so the oracle and all process
  replicas share one table bit for bit.

Users are enumerated from the indexes' own containment maps (every user a
query could ever recover for); users outside the maps have empty structures
and fall back to the estimator-local path, which derives the same emptiness
without consuming RNG.

The ``IndexEst+`` table is one batched pass of
:func:`~repro.index.pruning.build_filter_tables` per chunk of users, over the
block's memoized reverse root-reach closure, so the per-user work is a few
array lookups instead of one structural BFS per user.  Chunks of
:data:`PAIRS_PER_CHUNK` (user, RR-Graph) pairs keep the transient arrays of
the pass small.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.index.delayed import DelayedMaterializationIndex
from repro.index.pruning import (
    _UserFilterStructures,
    build_filter_structures,
    build_filter_tables,
)
from repro.index.rr_graph import RRBlock
from repro.index.rr_index import RRGraphIndex
from repro.utils.rng import RandomSource

PAIRS_PER_CHUNK = 2048
"""(user, RR-Graph) pairs per pass of :func:`build_pruning_tables`."""


@dataclass
class FrozenUserTables:
    """Read-only per-user tables owned by a frozen engine.

    ``None`` sections mean the corresponding method was not frozen (or table
    precompute was disabled), so its estimators keep the lazy per-query path.
    """

    pruning: Optional[Dict[int, _UserFilterStructures]] = None
    delayed_graphs: Optional[Dict[int, RRBlock]] = None
    delayed_filters: Optional[Dict[int, _UserFilterStructures]] = None

    def num_users(self) -> Dict[str, int]:
        """Per-section table sizes (JSON friendly; used by freeze telemetry)."""
        return {
            "indexest+": len(self.pruning) if self.pruning is not None else 0,
            "delaymat": len(self.delayed_graphs) if self.delayed_graphs is not None else 0,
        }


def build_pruning_tables(
    index: RRGraphIndex, max_probabilities: np.ndarray
) -> Dict[int, _UserFilterStructures]:
    """``IndexEst+`` cut structures for every user the index contains.

    RNG-free, so the table is bitwise-identical to what the lazy path would
    build on first query.  Users run in sorted order through
    :func:`~repro.index.pruning.build_filter_tables`, in chunks of about
    :data:`PAIRS_PER_CHUNK` (user, RR-Graph) pairs so the transient arrays of one
    pass stay small; chunking cannot affect the structures themselves.
    """
    block = index.block()
    tables: Dict[int, _UserFilterStructures] = {}
    chunk: List[int] = []
    pairs = 0
    users = sorted(index.containment)
    for position, user in enumerate(users):
        chunk.append(user)
        pairs += len(index.containment[user])
        if pairs >= PAIRS_PER_CHUNK or position == len(users) - 1:
            graphs = [index.containment[member] for member in chunk]
            tables.update(zip(chunk, build_filter_tables(block, chunk, graphs, max_probabilities)))
            chunk, pairs = [], 0
    return tables


def build_delayed_tables(
    index: DelayedMaterializationIndex,
    max_probabilities: np.ndarray,
    stream_for_user: Callable[[int], RandomSource],
) -> Tuple[Dict[int, RRBlock], Dict[int, _UserFilterStructures]]:
    """``DelayMat`` recovered graphs + filters for every user with containment.

    ``stream_for_user`` maps a user id to a dedicated :class:`RandomSource`
    (the engine passes its label-derived stream factory), so each user's
    recovery is independent of every other user's and of build order.
    """
    graphs_by_user: Dict[int, RRBlock] = {}
    filters_by_user: Dict[int, _UserFilterStructures] = {}
    for user in sorted(index.containment_counts):
        block = RRBlock.from_graphs(index.recover_for_user(user, stream_for_user(user)))
        graphs_by_user[user] = block
        filters_by_user[user] = build_filter_structures(
            block, user, range(block.num_graphs), max_probabilities
        )
    return graphs_by_user, filters_by_user
