"""Per-graph views of the flat RR-Graph layout, for tests.

The library keeps RR-Graphs in one form only: the flat arrays of
``repro.index.rr_graph.RR_ARRAY_LAYOUT`` (what ``RRGraphIndex.to_arrays()``,
``sample_rr_arrays`` and ``DelayedMaterializationIndex.recover_for_user``
return).  Tests that reason about one graph at a time read those arrays
through :func:`graph_views`, build a block from hand-written graphs with
:func:`block_of`, and draw graphs with the per-edge reference walker
:func:`reference_rr_graph`.  :func:`sorted_frontier_rr_arrays` is the
bit-for-bit reference of ``sample_rr_arrays``, and :class:`SortedKeyBlock`
the bit-for-bit reference of ``RRBlock``'s constructor.
"""

import threading
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

import numpy as np

from repro.graph.csr import csr_order, indptr_from_counts, slice_positions, sorted_distinct
from repro.graph.digraph import TopicSocialGraph
from repro.index.rr_graph import RRBlock
from repro.utils.rng import RandomSource


@dataclass
class RRGraphView:
    """One RR-Graph: its root, member set, kept edges with ``c(e)`` and weight."""

    root: int
    vertices: Set[int]
    edge_ids: List[int] = field(default_factory=list)
    edge_sources: List[int] = field(default_factory=list)
    edge_targets: List[int] = field(default_factory=list)
    edge_thresholds: List[float] = field(default_factory=list)
    weight: float = 1.0


def graph_views(arrays, weights: Optional[List[float]] = None) -> List[RRGraphView]:
    """The graphs of a flat layout, one view each (weight 1.0 unless ``weights`` is given)."""
    vertex_bounds = np.asarray(arrays["vertex_indptr"]).tolist()
    edge_bounds = np.asarray(arrays["edge_indptr"]).tolist()
    vertex_ids = np.asarray(arrays["vertex_ids"]).tolist()
    columns = [
        np.asarray(arrays[name]).tolist()
        for name in ("edge_ids", "edge_sources", "edge_targets", "edge_thresholds")
    ]
    roots = np.asarray(arrays["roots"]).tolist()
    if weights is None:
        weights = [1.0] * len(roots)
    views = []
    for position, (root, weight) in enumerate(zip(roots, weights)):
        lo, hi = edge_bounds[position], edge_bounds[position + 1]
        ids, sources, targets, thresholds = (column[lo:hi] for column in columns)
        members = set(vertex_ids[vertex_bounds[position] : vertex_bounds[position + 1]])
        views.append(RRGraphView(root, members, ids, sources, targets, thresholds, weight))
    return views


def block_of(graphs: List[RRGraphView]) -> RRBlock:
    """The block of hand-written ``graphs`` (graph ``i`` of the block is ``graphs[i]``)."""

    def column(name, dtype):
        values = [value for graph in graphs for value in getattr(graph, name)]
        return np.array(values, dtype=dtype)

    arrays = {
        "roots": np.array([graph.root for graph in graphs], dtype=np.int64),
        "vertex_indptr": indptr_from_counts([len(graph.vertices) for graph in graphs]),
        "vertex_ids": np.array(
            [vertex for graph in graphs for vertex in sorted(graph.vertices)], dtype=np.int64
        ),
        "edge_indptr": indptr_from_counts([len(graph.edge_ids) for graph in graphs]),
        "edge_ids": column("edge_ids", np.int64),
        "edge_sources": column("edge_sources", np.int64),
        "edge_targets": column("edge_targets", np.int64),
        "edge_thresholds": column("edge_thresholds", np.float64),
    }
    return RRBlock(arrays, weights=[graph.weight for graph in graphs])


class SortedKeyBlock(RRBlock):
    """``RRBlock`` as it was when one sort and four searches numbered its nodes.

    The constructor is kept verbatim as the bit-for-bit reference of
    ``RRBlock.__init__``: the node keys ``graph * stride + vertex`` of every
    vertex run entry, edge endpoint and root are concatenated and deduped
    by one sort, and edge sources, targets, roots and the graph bounds are
    found in them by ``searchsorted``.  Every other method is the
    library's.
    """

    def __init__(self, arrays: Dict[str, np.ndarray], weights: Optional[List[float]] = None):
        roots = np.asarray(arrays["roots"], dtype=np.int64)
        vertex_ids = np.asarray(arrays["vertex_ids"], dtype=np.int64)
        sources = np.asarray(arrays["edge_sources"], dtype=np.int64)
        targets = np.asarray(arrays["edge_targets"], dtype=np.int64)
        edge_ids = np.asarray(arrays["edge_ids"], dtype=np.int64)
        thresholds = np.asarray(arrays["edge_thresholds"], dtype=float)
        num_graphs = len(roots)
        graph_ids = np.arange(num_graphs, dtype=np.int64)
        vertex_graph = np.repeat(graph_ids, np.diff(arrays["vertex_indptr"]))
        edge_graph = np.repeat(graph_ids, np.diff(arrays["edge_indptr"]))
        members = (roots, vertex_ids, sources, targets)
        stride = int(max((int(a.max()) for a in members if a.size), default=0)) + 1
        node_keys = sorted_distinct(
            np.concatenate(
                (
                    vertex_graph * stride + vertex_ids,
                    edge_graph * stride + sources,
                    edge_graph * stride + targets,
                    graph_ids * stride + roots,
                )
            )
        )
        source_nodes = np.searchsorted(node_keys, edge_graph * stride + sources)
        target_nodes = np.searchsorted(node_keys, edge_graph * stride + targets)
        self.num_graphs = num_graphs
        self.num_nodes = len(node_keys)
        self.stride = stride
        self.graph_indptr = np.searchsorted(node_keys, np.arange(num_graphs + 1) * stride)
        self.graph_sizes = np.diff(self.graph_indptr)
        self.node_keys = np.append(node_keys, np.iinfo(np.int64).max)
        self.indptr, order = csr_order(source_nodes, self.num_nodes)
        self.out_degree = np.diff(self.indptr)
        self.slot_targets = target_nodes[order]
        self.slot_edge_ids = edge_ids[order]
        self.slot_thresholds = thresholds[order]
        # An edge is live iff p > 0 and p >= c(e).  Raising c(e) = 0 to the
        # smallest positive double folds both tests into one p >= floor.
        self.slot_live_floor = np.maximum(self.slot_thresholds, np.nextafter(0.0, 1.0))
        self.roots = roots
        root_nodes = np.searchsorted(node_keys, graph_ids * stride + roots)
        self.node_is_root = np.zeros(self.num_nodes, dtype=bool)
        self.node_is_root[root_nodes] = True
        into_root = target_nodes == root_nodes[edge_graph]
        self.root_in_indptr = indptr_from_counts(
            np.bincount(edge_graph[into_root], minlength=num_graphs)
        )
        self.root_in_sources = source_nodes[into_root]
        self.root_in_edge_ids = edge_ids[into_root]
        self.root_in_thresholds = thresholds[into_root]
        self.weights = weights
        self._root_reach: Optional[np.ndarray] = None
        self._root_reach_lock = threading.Lock()


def reference_rr_graph(graph, root, rng, max_probabilities=None) -> RRGraphView:
    """One RR-Graph rooted at ``root`` (Definition 2), drawn edge by edge.

    The per-edge reference for ``sample_rr_arrays``: a FIFO reverse BFS
    that draws the ``c(e)`` of each dequeued vertex's in-edges with one
    ``rng.uniforms`` call and keeps an edge iff ``c(e) <= p(e)`` and
    ``p(e) > 0``.  It draws in another order than the batched generator, so
    the two agree in distribution, not draw for draw.
    """
    if max_probabilities is None:
        max_probabilities = graph.max_edge_probabilities()
    rr_graph = RRGraphView(root=root, vertices={root})
    queue = deque([root])
    while queue:
        vertex = queue.popleft()
        # borrowed read-only: the public in_edges() copies per call, which
        # would tax this reference walker (see graph.algorithms counterparts)
        in_edges = graph._in[vertex]
        if not in_edges:
            continue
        thresholds = rng.uniforms(len(in_edges))
        for edge_id, threshold in zip(in_edges, thresholds):
            max_probability = max_probabilities[edge_id]
            if max_probability <= 0.0 or threshold > max_probability:
                continue
            source, target = graph.edge_endpoints(edge_id)
            rr_graph.edge_ids.append(edge_id)
            rr_graph.edge_sources.append(source)
            rr_graph.edge_targets.append(target)
            rr_graph.edge_thresholds.append(float(threshold))
            if source not in rr_graph.vertices:
                rr_graph.vertices.add(source)
                queue.append(source)
    return rr_graph


def sorted_frontier_rr_arrays(
    graph: TopicSocialGraph,
    num_samples: int,
    rng: RandomSource,
    max_probabilities: Optional[np.ndarray] = None,
    root: Optional[int] = None,
) -> Dict[str, np.ndarray]:
    """``sample_rr_arrays`` as it was when every BFS level sorted its frontier.

    Kept verbatim as the bit-for-bit reference of the library generator:
    the same roots, the same ``c(e)`` draws in the same order, the same
    arrays and dtypes, and the same generator state after the call.  Each
    level dedupes the fresh sources by sort + adjacent-difference mask and
    reads the in-slots of that ascending frontier with ``slice_positions``;
    members are sorted at the end by one sort over (graph, vertex) keys.
    """
    if max_probabilities is None:
        max_probabilities = graph.max_edge_probabilities()
    csr = graph.csr
    num_vertices = csr.num_vertices
    in_indptr, in_sources = csr.in_indptr, csr.in_sources
    # Per in-slot liveness floor, gathered once: an examined edge survives
    # iff c(e) <= floor, and -1 (below every draw) stands for p(e) <= 0.
    slot_floor = np.where(max_probabilities > 0.0, max_probabilities, -1.0)[csr.in_edge_ids]
    # generator.random(n) draws the bits of rng.uniforms(n), with less overhead.
    draw = rng.generator.random
    visited = np.zeros(num_vertices, dtype=bool)
    roots = np.empty(num_samples, dtype=np.int64)
    vertex_counts = np.empty(num_samples, dtype=np.int64)
    edge_counts = np.zeros(num_samples, dtype=np.int64)
    members, kept_slots, thresholds = [], [], []
    for sample in range(num_samples):
        start = rng.integer(0, num_vertices) if root is None else root
        roots[sample] = start
        frontier = np.array([start], dtype=np.int64)
        visited[start] = True
        graph_members = [frontier]
        while True:
            if frontier.size == 1:
                # A single vertex's in-slots are one CSR slice.
                low, high = in_indptr[frontier[0] : frontier[0] + 2].tolist()
                if low == high:
                    break
                level_thresholds = draw(high - low)
                kept = (level_thresholds <= slot_floor[low:high]).nonzero()[0]
                level_thresholds = level_thresholds[kept]
                kept += low
            else:
                positions = slice_positions(in_indptr, frontier)
                if not positions.size:
                    break
                level_thresholds = draw(positions.size)
                keep = level_thresholds <= slot_floor[positions]
                kept = positions[keep]
                level_thresholds = level_thresholds[keep]
            if not kept.size:
                break
            kept_slots.append(kept)
            thresholds.append(level_thresholds)
            edge_counts[sample] += kept.size
            kept_sources = in_sources[kept]
            fresh = kept_sources[~visited[kept_sources]]
            if not fresh.size:
                break
            frontier = _sorted_distinct(fresh)
            visited[frontier] = True
            graph_members.append(frontier)
        graph_members = np.concatenate(graph_members)
        visited[graph_members] = False
        vertex_counts[sample] = graph_members.size
        members.append(graph_members)
    # Sort the members of every graph by one sort over (graph, vertex) keys.
    offsets = np.repeat(np.arange(num_samples, dtype=np.int64) * num_vertices, vertex_counts)
    vertex_keys = _concatenate(members, np.int64) + offsets
    vertex_keys.sort()
    slots = _concatenate(kept_slots, np.int64)
    edge_ids = csr.in_edge_ids[slots].astype(np.int64, copy=False)
    arrays = {
        "roots": roots,
        "vertex_indptr": indptr_from_counts(vertex_counts),
        "vertex_ids": vertex_keys - offsets,
        "edge_indptr": indptr_from_counts(edge_counts),
        "edge_ids": edge_ids,
        "edge_sources": in_sources[slots].astype(np.int64, copy=False),
        "edge_targets": csr.edge_targets[edge_ids].astype(np.int64, copy=False),
        "edge_thresholds": _concatenate(thresholds, np.float64),
    }
    for array in arrays.values():
        array.setflags(write=False)
    return arrays


def _sorted_distinct(values: np.ndarray) -> np.ndarray:
    """The distinct ``values`` in ascending order (``np.unique`` by sort + mask).

    ``values`` (a fresh array of the caller's) is sorted in place.
    """
    values.sort()
    keep = np.empty(values.size, dtype=bool)
    keep[:1] = True
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    return values[keep]


def _concatenate(parts: List[np.ndarray], dtype) -> np.ndarray:
    return np.concatenate(parts).astype(dtype, copy=False) if parts else np.empty(0, dtype)
