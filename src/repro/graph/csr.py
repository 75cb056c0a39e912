"""Compressed sparse row (CSR) adjacency arrays for the sampling hot paths.

Every estimator in :mod:`repro.sampling` and :mod:`repro.index` repeatedly
walks the same static graph.  The dict-of-lists storage of
:class:`~repro.graph.digraph.TopicSocialGraph` is convenient for construction
but forces the interpreter to touch one Python object per edge probe, which
dominates the running time of the samplers.  :class:`CSRAdjacency` freezes the
adjacency into six contiguous ``int64`` arrays -- forward and reverse CSR --
so a whole BFS frontier can be expanded with a handful of NumPy gathers and a
single batched coin flip.

Layout
------
Forward (out-edges)::

    out_indptr  : (|V|+1,)  slice boundaries per source vertex
    out_targets : (|E|,)    edge targets, grouped by source, insertion order
    out_edge_ids: (|E|,)    global edge id stored at each slot

Reverse (in-edges)::

    in_indptr   : (|V|+1,)  slice boundaries per target vertex
    in_sources  : (|E|,)    edge sources, grouped by target, insertion order
    in_edge_ids : (|E|,)    global edge id stored at each slot

plus ``edge_sources`` / ``edge_targets`` indexed directly by edge id.  The
slot order within one vertex matches ``TopicSocialGraph.out_edges`` /
``in_edges``, so per-vertex slices of ``out_edge_ids`` are drop-in
replacements for the adjacency lists.

The structure is immutable; :meth:`TopicSocialGraph.snapshot
<repro.graph.digraph.TopicSocialGraph.snapshot>` builds one per graph version,
and ``graph.csr`` reads it from there.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from repro.utils.heap import concat_ranges


def slice_positions(indptr: np.ndarray, vertices: np.ndarray) -> np.ndarray:
    """Positions of every CSR slot owned by ``vertices``, concatenated.

    For a frontier ``vertices`` this returns the indices into the CSR data
    arrays covering all of the frontier's edges, i.e. the vectorized
    equivalent of ``[slot for v in vertices for slot in range(indptr[v],
    indptr[v + 1])]``, without a Python-level loop.  The concatenated-ranges
    kernel itself is shared with the batched event queue
    (:func:`repro.utils.heap.concat_ranges`).
    """
    starts = indptr[vertices]
    return concat_ranges(starts, indptr[vertices + 1] - starts)


def sorted_distinct(values: np.ndarray) -> np.ndarray:
    """The distinct ``values`` in ascending order (``np.unique`` by sort + mask).

    ``values`` (a fresh array of the caller's) is sorted in place.  The
    result equals ``np.unique(values)``, dtype included, without the hash
    table that ``np.unique`` builds for integer input in recent NumPy
    releases: a BFS frontier is small, and a block's node keys sort faster
    than they hash.
    """
    values.sort()
    keep = np.empty(values.size, dtype=bool)
    keep[:1] = True
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    return values[keep]


@dataclass(frozen=True)
class CSRAdjacency:
    """Immutable forward + reverse CSR view of a directed multigraph-free graph."""

    num_vertices: int
    num_edges: int
    edge_sources: np.ndarray
    edge_targets: np.ndarray
    out_indptr: np.ndarray
    out_targets: np.ndarray
    out_edge_ids: np.ndarray
    in_indptr: np.ndarray
    in_sources: np.ndarray
    in_edge_ids: np.ndarray

    @classmethod
    def from_edges(
        cls,
        num_vertices: int,
        edge_sources: Sequence[int],
        edge_targets: Sequence[int],
    ) -> "CSRAdjacency":
        """Build forward and reverse CSR from parallel endpoint arrays."""
        sources = np.asarray(edge_sources, dtype=np.int64)
        targets = np.asarray(edge_targets, dtype=np.int64)
        num_edges = len(sources)
        out_indptr, out_order = csr_order(sources, num_vertices)
        in_indptr, in_order = csr_order(targets, num_vertices)
        return cls(
            num_vertices=int(num_vertices),
            num_edges=num_edges,
            edge_sources=sources,
            edge_targets=targets,
            out_indptr=out_indptr,
            out_targets=targets[out_order],
            out_edge_ids=out_order,
            in_indptr=in_indptr,
            in_sources=sources[in_order],
            in_edge_ids=in_order,
        )

    # ------------------------------------------------------------- traversal
    def out_positions(self, frontier: np.ndarray) -> np.ndarray:
        """CSR slot positions of every out-edge leaving the frontier."""
        return slice_positions(self.out_indptr, frontier)

    def in_positions(self, frontier: np.ndarray) -> np.ndarray:
        """CSR slot positions of every in-edge entering the frontier."""
        return slice_positions(self.in_indptr, frontier)

    def out_slice(self, vertex: int) -> Tuple[np.ndarray, np.ndarray]:
        """``(edge_ids, targets)`` of one vertex's out-edges, insertion order."""
        start, stop = int(self.out_indptr[vertex]), int(self.out_indptr[vertex + 1])
        return self.out_edge_ids[start:stop], self.out_targets[start:stop]

    def in_slice(self, vertex: int) -> Tuple[np.ndarray, np.ndarray]:
        """``(edge_ids, sources)`` of one vertex's in-edges, insertion order."""
        start, stop = int(self.in_indptr[vertex]), int(self.in_indptr[vertex + 1])
        return self.in_edge_ids[start:stop], self.in_sources[start:stop]

    def memory_bytes(self) -> int:
        """Exact footprint of the CSR arrays."""
        arrays = (
            self.edge_sources,
            self.edge_targets,
            self.out_indptr,
            self.out_targets,
            self.out_edge_ids,
            self.in_indptr,
            self.in_sources,
            self.in_edge_ids,
        )
        return int(sum(a.nbytes for a in arrays))


def indptr_from_counts(counts: np.ndarray) -> np.ndarray:
    """The ``int64`` offsets ``[0, c0, c0 + c1, ...]`` of consecutive runs of ``counts``."""
    indptr = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return indptr


def csr_order(keys: np.ndarray, num_buckets: int) -> Tuple[np.ndarray, np.ndarray]:
    """``(indptr, order)`` grouping positions by ``keys`` with stable slot order.

    The shared building block of every CSR in the library: ``order`` lists the
    input positions sorted by bucket (ties keep input order), ``indptr`` holds
    the per-bucket slice boundaries into ``order``.
    """
    if len(keys):
        counts = np.bincount(keys, minlength=num_buckets)
    else:
        counts = np.zeros(num_buckets, dtype=np.int64)
    indptr = indptr_from_counts(counts)
    order = np.argsort(keys, kind="stable").astype(np.int64)
    return indptr, order
