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
array lookups instead of one structural BFS per user.  The (user, RR-Graph)
pairs are the block's own nodes, ordered by user with one stable sort, so no
pair is searched for.  Chunks of :data:`PAIRS_PER_CHUNK` pairs, cut at user
boundaries, keep the transient arrays of the pass small.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

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


def build_pruning_tables(
    index: RRGraphIndex, max_probabilities: np.ndarray
) -> Dict[int, _UserFilterStructures]:
    """``IndexEst+`` cut structures for every user the index contains.

    RNG-free, so the table is bitwise-identical to what the lazy path would
    build on first query.  An index's vertex runs list every member of their
    graph, so the block's nodes are exactly its (user, graph) pairs: one
    stable sort of the node vertices orders them by user, then by graph
    (node ids ascend with the graph), and hands each pair's node to
    :func:`~repro.index.pruning.build_filter_tables` without a search.
    Users run in ascending order, in chunks of about
    :data:`PAIRS_PER_CHUNK` pairs cut at user boundaries, so the transient
    arrays of one pass stay small; chunking cannot affect the structures
    themselves.
    """
    block = index.block()
    vertices = block.node_keys[:-1] % block.stride
    vertices = vertices.astype(np.min_scalar_type(block.stride - 1))
    # A radix sort on vertices below 65,536 (as in ``_containment``).
    starts = np.argsort(vertices, kind="stable")
    vertices = vertices[starts]
    bounds = [0, *(np.flatnonzero(np.diff(vertices)) + 1).tolist(), len(vertices)]
    users = vertices[bounds[:-1]].tolist() if vertices.size else []
    tables: Dict[int, _UserFilterStructures] = {}
    first = 0
    for last in range(1, len(users) + 1):
        if bounds[last] - bounds[first] >= PAIRS_PER_CHUNK or last == len(users):
            chunk = starts[bounds[first] : bounds[last]]
            graphs = block.node_keys[chunk] // block.stride
            counts = np.diff(bounds[first : last + 1])
            structures = build_filter_tables(block, counts, graphs, chunk, max_probabilities)
            tables.update(zip(users[first:last], structures))
            first = last
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
        block = RRBlock(*index.recover_for_user(user, stream_for_user(user)))
        graphs_by_user[user] = block
        filters_by_user[user] = build_filter_structures(
            block, user, range(block.num_graphs), max_probabilities
        )
    return graphs_by_user, filters_by_user
