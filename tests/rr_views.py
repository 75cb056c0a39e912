"""Per-graph views of the flat RR-Graph layout, for tests.

The library keeps RR-Graphs in one form only: the flat arrays of
``repro.index.rr_graph.RR_ARRAY_LAYOUT`` (what ``RRGraphIndex.to_arrays()``,
``sample_rr_arrays`` and ``DelayedMaterializationIndex.recover_for_user``
return).  Tests that reason about one graph at a time read those arrays
through :func:`graph_views`, build a block from hand-written graphs with
:func:`block_of`, and draw graphs with the per-edge reference walker
:func:`reference_rr_graph`.
"""

from collections import deque
from dataclasses import dataclass, field
from typing import List, Optional, Set

import numpy as np

from repro.graph.csr import indptr_from_counts
from repro.index.rr_graph import RRBlock


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
