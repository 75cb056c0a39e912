"""The RR-Graph sample structure (Definition 2) and tag-aware reachability.

An RR-Graph of a vertex ``v`` is one reverse possible world rooted at ``v``
drawn under the *maximum* edge probabilities ``p(e) = max_z p(e|z)``: every
edge examined during the reverse traversal receives a uniform random value
``c(e)`` and survives iff ``c(e) <= p(e)``.  Because ``p(e|W) <= p(e)`` for any
tag set, the RR-Graph never misses a vertex that could influence ``v`` under
any ``W``; at query time the same ``c(e)`` values are compared against
``p(e|W)`` to decide which stored edges are live (Definition 3), so a single
offline sample serves every future query.

Generation runs frontier-at-a-time on the graph's reverse CSR arrays: all
in-edges of a frontier are gathered with two NumPy indexing operations and
their ``c(e)`` values drawn in one batch.  :func:`sample_rr_arrays` writes
many samples straight into the flat per-graph ``indptr`` layout the index
stores; :func:`generate_rr_graph` is its one-sample view.

Query-time matching runs on an :class:`RRBlock`: every RR-Graph of a
collection concatenated into one CSR whose nodes are (graph, member vertex)
pairs.  :meth:`RRBlock.reach_pairs` verifies every (probability row,
candidate RR-Graph) pair of a batch of estimates in a single level-synchronous
BFS, so a whole best-effort expansion costs a handful of NumPy calls per BFS
level instead of one BFS per row, let alone per RR-Graph.  The per-pair reach
bits and the per-row level-synchronous ``edges_checked`` sums are exactly
those of one BFS per graph; :meth:`RRBlock.reach_many` is the one-row
case.  :meth:`RRBlock.root_reach` is the
reverse closure the edge-cut tables of :mod:`repro.index.pruning` read: per
node, the root in-slots of its graph it reaches.  :func:`tag_aware_reachable` is the
single-graph view of the same kernel; the original per-edge walkers remain
available under ``kernel="dict"`` as the reference implementation.
"""

from __future__ import annotations

import itertools
import threading
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.graph.csr import csr_order, indptr_from_counts, slice_positions
from repro.graph.digraph import TopicSocialGraph
from repro.utils.heap import concat_ranges
from repro.utils.rng import RandomSource


@dataclass
class RRGraph:
    """One reverse-reachable sample graph rooted at ``root``.

    Attributes
    ----------
    root:
        The uniformly sampled target vertex ``v``.
    vertices:
        Vertices that reach ``root`` through surviving edges.
    edge_ids / edge_sources / edge_targets / edge_thresholds:
        Parallel arrays describing the surviving edges and their ``c(e)``
        values.  ``edge_thresholds[i]`` is the value ``p(e|W)`` must reach for
        edge ``i`` to be live at query time.
    recovery_weight:
        Importance weight attached by the delayed-materialization recovery
        (Algorithm 4): recovered graphs are drawn with the query user's forward
        sample as the proposal, so each carries the size of that forward sample
        as a self-normalized importance weight (1.0 for offline-materialized
        graphs, which are drawn from the target distribution directly).
    """

    root: int
    vertices: Set[int]
    edge_ids: List[int] = field(default_factory=list)
    edge_sources: List[int] = field(default_factory=list)
    edge_targets: List[int] = field(default_factory=list)
    edge_thresholds: List[float] = field(default_factory=list)
    recovery_weight: float = 1.0
    _adjacency: Optional[Dict[int, List[int]]] = field(default=None, repr=False)

    @property
    def num_vertices(self) -> int:
        """Number of vertices stored in this RR-Graph."""
        return len(self.vertices)

    @property
    def num_edges(self) -> int:
        """Number of surviving edges stored in this RR-Graph."""
        return len(self.edge_ids)

    def contains(self, vertex: int) -> bool:
        """Whether ``vertex`` can possibly influence the root under some tag set."""
        return vertex in self.vertices

    def add_edge(self, edge_id: int, source: int, target: int, threshold: float) -> None:
        """Record one surviving edge with its ``c(e)`` value."""
        self.edge_ids.append(edge_id)
        self.edge_sources.append(source)
        self.edge_targets.append(target)
        self.edge_thresholds.append(float(threshold))
        self._adjacency = None

    def extend_edges(
        self,
        edge_ids: Sequence[int],
        sources: Sequence[int],
        targets: Sequence[int],
        thresholds: Sequence[float],
    ) -> None:
        """Bulk-record surviving edges (one call per BFS frontier)."""
        self.edge_ids.extend(int(e) for e in edge_ids)
        self.edge_sources.extend(int(s) for s in sources)
        self.edge_targets.extend(int(t) for t in targets)
        self.edge_thresholds.extend(float(c) for c in thresholds)
        self._adjacency = None

    def adjacency(self) -> Dict[int, List[int]]:
        """Out-adjacency restricted to the stored edges: source -> local edge indices."""
        if self._adjacency is None:
            adjacency: Dict[int, List[int]] = {}
            for local_index, source in enumerate(self.edge_sources):
                adjacency.setdefault(source, []).append(local_index)
            self._adjacency = adjacency
        return self._adjacency

    def out_edges_of(self, vertex: int) -> List[int]:
        """Local edge indices leaving ``vertex`` inside this RR-Graph."""
        return self.adjacency().get(vertex, [])

    def in_edges_of(self, vertex: int) -> List[int]:
        """Local edge indices entering ``vertex`` inside this RR-Graph."""
        return [i for i, target in enumerate(self.edge_targets) if target == vertex]

    def memory_bytes(self) -> int:
        """Approximate footprint: vertex ids + 4 numbers per stored edge."""
        return 8 * self.num_vertices + (8 * 3 + 8) * self.num_edges


def flatten_rr_graphs(rr_graphs: Sequence[RRGraph]) -> Dict[str, np.ndarray]:
    """Concatenate RR-Graphs into parallel arrays with per-graph ``indptr`` offsets.

    Vertex ids are sorted within each graph (one ``lexsort`` over the whole
    array) so the layout is canonical; edges keep their stored order.  This is
    the persisted form of :meth:`RRGraphIndex.to_arrays` and the input of
    :class:`RRBlock`.
    """
    chain = itertools.chain.from_iterable
    vertex_counts = np.fromiter((rr.num_vertices for rr in rr_graphs), np.int64, len(rr_graphs))
    edge_counts = np.fromiter((rr.num_edges for rr in rr_graphs), np.int64, len(rr_graphs))
    num_vertices, num_edges = int(vertex_counts.sum()), int(edge_counts.sum())
    vertex_ids = np.fromiter(chain(rr.vertices for rr in rr_graphs), np.int64, num_vertices)
    vertex_graph = np.repeat(np.arange(len(rr_graphs), dtype=np.int64), vertex_counts)
    return {
        "roots": np.fromiter((rr.root for rr in rr_graphs), np.int64, len(rr_graphs)),
        "vertex_indptr": indptr_from_counts(vertex_counts),
        "vertex_ids": vertex_ids[np.lexsort((vertex_ids, vertex_graph))],
        "edge_indptr": indptr_from_counts(edge_counts),
        "edge_ids": np.fromiter(chain(rr.edge_ids for rr in rr_graphs), np.int64, num_edges),
        "edge_sources": np.fromiter(
            chain(rr.edge_sources for rr in rr_graphs), np.int64, num_edges
        ),
        "edge_targets": np.fromiter(
            chain(rr.edge_targets for rr in rr_graphs), np.int64, num_edges
        ),
        "edge_thresholds": np.fromiter(
            chain(rr.edge_thresholds for rr in rr_graphs), float, num_edges
        ),
    }


def _distinct(nodes: np.ndarray, owner: np.ndarray) -> np.ndarray:
    """``nodes`` without repeats, using ``owner`` (one slot per node) as a work buffer.

    Each node keeps the one occurrence whose position won the scatter, so a
    frontier is deduplicated in a few linear passes instead of a sort.
    """
    positions = np.arange(len(nodes))
    owner[nodes] = positions
    return nodes[owner[nodes] == positions]


class RRBlock:
    """A collection of RR-Graphs concatenated into one CSR (the *block*).

    A node is one (graph, member vertex) pair.  Nodes are numbered in the
    order of their key ``graph * stride + vertex``, so the nodes of one graph
    form a contiguous run and a (graph, vertex) lookup is one
    ``searchsorted`` (``node_keys`` ends with a sentinel key above every
    node's).  ``indptr`` runs over nodes; each slot stores its target node,
    its global edge id and its ``c(e)`` threshold, and the slots of a node
    keep the graph's stored edge order.  Per graph the block keeps the root
    vertex, its run of nodes (``graph_indptr``, ``graph_sizes``) and the
    root's in-slots (stored edge order, for the
    edge-cut tables of :mod:`repro.index.pruning`); per node a root flag (its
    graph is ``node_keys // stride``); ``weights`` carries the graphs'
    recovery weights.

    Members are the union of each graph's vertex set, edge endpoints and
    root, so graphs assembled through :meth:`RRGraph.add_edge` map cleanly
    even when their ``vertices`` set was not kept in sync.  The block is
    immutable and every method only reads it, so concurrent queries may share
    one block.
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
        node_keys = np.unique(
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

    @classmethod
    def from_graphs(cls, rr_graphs: Sequence[RRGraph]) -> "RRBlock":
        """The block of ``rr_graphs`` (graph ``i`` of the block is ``rr_graphs[i]``)."""
        return cls(
            flatten_rr_graphs(rr_graphs), weights=[rr.recovery_weight for rr in rr_graphs]
        )

    def start_nodes(self, users, graphs: np.ndarray) -> np.ndarray:
        """The node of ``users[i]`` in ``graphs[i]``, ``-1`` where it is no member.

        ``users`` is one user for every graph, or one user per graph;
        ``graphs`` is an ``int64`` array.
        """
        keys = graphs * self.stride + users
        nodes = self.node_keys.searchsorted(keys)
        found = self.node_keys[nodes] == keys
        # A user outside [0, stride) could alias another graph's key.
        found &= (users >= 0) & (users < self.stride)
        return np.where(found, nodes, -1)

    def out_slots(self, nodes: np.ndarray) -> np.ndarray:
        """The out-slots of every one of ``nodes``, concatenated in node order."""
        return concat_ranges(self.indptr[nodes], self.out_degree[nodes])

    def reach_pairs(
        self,
        user: int,
        rows: np.ndarray,
        pair_rows: np.ndarray,
        pair_graphs: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Definition 3 for ``user`` in every (probability row, graph) pair at once.

        ``rows`` is a ``(R, |E|)`` float matrix of edge probabilities ``p(e|W)``
        (read in place); pair ``i`` asks whether ``user`` reaches the root of
        graph ``pair_graphs[i]`` through the edges live under row
        ``pair_rows[i]`` (``p(e|W) > 0`` and ``p(e|W) >= c(e)``).  Returns
        ``(hits, edges_checked)``: one bool per pair and one count per row.

        One level-synchronous BFS advances the frontier of every pair
        together over (pair, node) keys.  Each pair owns one compact run of
        keys, as many as its graph has nodes, so visited sets never mix rows
        or graphs and the visited bitmap spans only the pairs' own graphs.
        A pair stops when its root appears among its newly reached nodes
        (the slots of that level still count as checked) or when it has
        nothing left to expand.  So the hits and the ``edges_checked`` of a
        row equal one level-synchronous BFS per pair of that row, summed.
        ``user == root`` is a hit with nothing checked; a graph without
        ``user`` is a miss.  Pairs are expected to be distinct; a repeated
        pair is verified (and counted) once per listing.
        """
        pair_rows = np.asarray(pair_rows, dtype=np.int64)
        pair_graphs = np.asarray(pair_graphs, dtype=np.int64)
        hits = self.roots[pair_graphs] == user
        if not 0 <= user < self.stride:
            return hits, np.zeros(len(rows), dtype=np.int64)
        # start_nodes for one in-range user, without its np.where: this
        # setup is a measurable share of a one-row call.
        keys = pair_graphs * self.stride + user
        nodes = self.node_keys.searchsorted(keys)
        owners = ((self.node_keys[nodes] == keys) & ~hits).nonzero()[0]
        if not owners.size:
            return hits, np.zeros(len(rows), dtype=np.int64)
        # Pair i owns the keys [ends[i] - sizes[i], ends[i]); node n of its
        # graph is key shift[i] + n.  The frontier is a sorted array of
        # distinct keys, so a key's pair is one searchsorted away.
        ends = self.graph_sizes[pair_graphs].cumsum()
        shift = ends - self.graph_indptr[pair_graphs + 1]
        visited = np.zeros(int(ends[-1]), dtype=bool)
        nodes = nodes[owners]
        visited[shift[owners] + nodes] = True
        # Liveness reads the row matrix flat: pair i's row starts at row_base[i].
        flat = rows.reshape(-1)
        row_base = pair_rows * rows.shape[1]
        expanded = []
        while True:
            degrees = self.out_degree[nodes]
            positions = concat_ranges(self.indptr[nodes], degrees)
            if not positions.size:
                break
            owners = owners.repeat(degrees)
            expanded.append(owners)
            live = flat[row_base[owners] + self.slot_edge_ids[positions]] >= self.slot_live_floor[positions]
            owners = owners[live]
            nodes = self.slot_targets[positions[live]]
            # A root is never visited (its pair stops on reaching it), so
            # it may be tested before the visited filter.
            at_root = self.node_is_root[nodes]
            if np.count_nonzero(at_root):
                hits[owners[at_root]] = True
                keep = ~hits[owners]
                owners, nodes = owners[keep], nodes[keep]
            keys = shift[owners] + nodes
            keys = keys[~visited[keys]]
            if not keys.size:
                break
            visited[keys] = True
            keys = _sorted_distinct(keys)
            owners = ends.searchsorted(keys, side="right")
            nodes = keys - shift[owners]
        checked = pair_rows[np.concatenate(expanded)] if expanded else pair_rows[:0]
        return hits, np.bincount(checked, minlength=len(rows))

    def reach_many(
        self, user: int, graphs: Sequence[int], probabilities: Sequence[float]
    ) -> Tuple[np.ndarray, int]:
        """Definition 3 for ``user`` in every one of ``graphs`` under one probability row.

        The one-row case of :meth:`reach_pairs`: returns ``(hits,
        edges_checked)`` with ``hits[i]`` for ``graphs[i]`` and the summed
        count of one level-synchronous BFS per graph.
        """
        rows = np.asarray(probabilities, dtype=float)[None]
        graphs = np.asarray(graphs, dtype=np.int64)
        hits, checked = self.reach_pairs(user, rows, np.zeros(len(graphs), np.int64), graphs)
        return hits, int(checked[0])

    def root_reach(self) -> np.ndarray:
        """Per node, which root in-slots of its graph it reaches with every edge live.

        A ``(num_nodes, words)`` ``uint64`` array: bit ``j % 64`` of word
        ``j // 64`` of a node is set iff the node structurally reaches the
        source of the ``j``-th root in-slot of its graph (that source counts
        as reaching itself).  ``words`` covers the widest root in-degree of
        the block.  Built once, under a lock, by one reverse closure over all
        graphs: the in-slot sources are seeded with their bits, and each round
        ORs the bits of the nodes that grew into their in-neighbours.  The
        block is immutable, so the memo is invisible to callers.
        """
        reach = self._root_reach
        if reach is None:
            with self._root_reach_lock:
                if self._root_reach is None:
                    self._root_reach = self._reverse_root_closure()
                reach = self._root_reach
        return reach

    def _reverse_root_closure(self) -> np.ndarray:
        in_counts = np.diff(self.root_in_indptr)
        words = max(1, -(-int(in_counts.max(initial=0)) // 64))
        reach = np.zeros((self.num_nodes, words), dtype=np.uint64)
        slots = np.arange(len(self.root_in_sources), dtype=np.int64)
        slots -= np.repeat(self.root_in_indptr[:-1], in_counts)
        bits = np.left_shift(np.uint64(1), (slots & 63).astype(np.uint64))
        np.bitwise_or.at(reach, (self.root_in_sources, slots >> 6), bits)
        # Reverse CSR of the slots: the in-neighbours of every node.
        slot_sources = np.repeat(np.arange(self.num_nodes, dtype=np.int64), self.out_degree)
        reverse_indptr, reverse_order = csr_order(self.slot_targets, self.num_nodes)
        reverse_sources = slot_sources[reverse_order]
        reverse_degree = np.diff(reverse_indptr)
        owner = np.empty(self.num_nodes, dtype=np.int64)
        frontier = _distinct(self.root_in_sources, owner)
        while frontier.size:
            degrees = reverse_degree[frontier]
            sources = reverse_sources[concat_ranges(reverse_indptr[frontier], degrees)]
            fresh = np.repeat(reach[frontier], degrees, axis=0) & ~reach[sources]
            grew = fresh.any(axis=1)
            sources = sources[grew]
            np.bitwise_or.at(reach, sources, fresh[grew])
            frontier = _distinct(sources, owner)
        return reach

    def structural_reach(self, user: int, graphs: np.ndarray) -> np.ndarray:
        """Node mask of everything ``user`` reaches in ``graphs`` with every edge live."""
        frontier = self.start_nodes(user, graphs)
        frontier = frontier[frontier >= 0]
        visited = np.zeros(self.num_nodes, dtype=bool)
        visited[frontier] = True
        owner = np.empty(self.num_nodes, dtype=np.int64)
        while frontier.size:
            reached = self.slot_targets[self.out_slots(frontier)]
            reached = reached[~visited[reached]]
            visited[reached] = True
            frontier = _distinct(reached, owner)
        return visited


RR_ARRAY_LAYOUT = {
    "roots": np.int64,
    "vertex_indptr": np.int64,
    "vertex_ids": np.int64,
    "edge_indptr": np.int64,
    "edge_ids": np.int64,
    "edge_sources": np.int64,
    "edge_targets": np.int64,
    "edge_thresholds": np.float64,
}
"""The flat RR-Graph arrays (:func:`flatten_rr_graphs`) and their dtypes."""


def sample_rr_arrays(
    graph: TopicSocialGraph,
    num_samples: int,
    rng: RandomSource,
    max_probabilities: Optional[np.ndarray] = None,
    root: Optional[int] = None,
) -> Dict[str, np.ndarray]:
    """Draw ``num_samples`` RR-Graphs straight into the flat layout (Definition 2).

    Each sample draws its root with ``rng.integer(0, |V|)`` -- or uses
    ``root`` when given -- and then runs the reverse BFS of
    :func:`generate_rr_graph`, one batched uniform draw per level (the bits
    of ``rng.uniforms``), so the RNG is consumed exactly as by a loop of root
    draws and :func:`generate_rr_graph` calls.  A level keeps the in-slot
    positions of its surviving edges; their edge ids and sources are
    gathered once at the end.  The result equals
    :func:`flatten_rr_graphs` of those graphs array for array, without a
    per-graph Python object in between.  The arrays are read-only.
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


def rr_graphs_from_arrays(arrays: Dict[str, np.ndarray]) -> List[RRGraph]:
    """The :class:`RRGraph` objects of flat RR-Graph arrays.

    The inverse of :func:`flatten_rr_graphs`.
    """
    vertex_bounds = np.asarray(arrays["vertex_indptr"]).tolist()
    edge_bounds = np.asarray(arrays["edge_indptr"]).tolist()
    vertex_ids = np.asarray(arrays["vertex_ids"]).tolist()
    columns = [
        np.asarray(arrays[name]).tolist()
        for name in ("edge_ids", "edge_sources", "edge_targets", "edge_thresholds")
    ]
    graphs = []
    for position, root in enumerate(np.asarray(arrays["roots"]).tolist()):
        lo, hi = edge_bounds[position], edge_bounds[position + 1]
        ids, sources, targets, thresholds = (column[lo:hi] for column in columns)
        members = vertex_ids[vertex_bounds[position] : vertex_bounds[position + 1]]
        graphs.append(RRGraph(root, set(members), ids, sources, targets, thresholds))
    return graphs


def generate_rr_graph(
    graph: TopicSocialGraph,
    root: int,
    rng: RandomSource,
    max_probabilities: Optional[np.ndarray] = None,
    kernel: str = "csr",
) -> RRGraph:
    """Draw one RR-Graph rooted at ``root`` (Definition 2).

    The reverse BFS examines every in-edge of every reached vertex, draws its
    ``c(e)`` lazily, and keeps the edge iff ``c(e) <= p(e)``.  Edges whose
    ``c(e)`` exceeds ``p(e)`` can never be live under any tag set and are
    dropped entirely.  The default CSR kernel is the one-sample view of
    :func:`sample_rr_arrays` (whole frontiers per gather and batched uniform
    draw); ``kernel="dict"`` is the per-edge reference walker.
    """
    if max_probabilities is None:
        max_probabilities = graph.max_edge_probabilities()
    if kernel == "dict":
        return _generate_rr_graph_dict(graph, root, rng, max_probabilities)
    arrays = sample_rr_arrays(graph, 1, rng, max_probabilities, root=root)
    return rr_graphs_from_arrays(arrays)[0]


def _generate_rr_graph_dict(
    graph: TopicSocialGraph,
    root: int,
    rng: RandomSource,
    max_probabilities: np.ndarray,
) -> RRGraph:
    """Reference per-edge implementation of :func:`generate_rr_graph`."""
    rr_graph = RRGraph(root=root, vertices={root})
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
            rr_graph.add_edge(edge_id, source, target, float(threshold))
            if source not in rr_graph.vertices:
                rr_graph.vertices.add(source)
                queue.append(source)
    return rr_graph


def tag_aware_reachable(
    rr_graph: RRGraph,
    user: int,
    edge_probabilities: Sequence[float],
    kernel: str = "csr",
) -> Tuple[bool, int]:
    """Definition 3: does ``user`` reach the root through live edges?

    An edge is live when ``p(e|W) >= c(e)``.  Returns ``(reachable,
    edges_checked)`` so callers can account verification cost.  The default
    kernel is the one-graph case of :meth:`RRBlock.reach_pairs` (callers that
    match many graphs should batch them through a block instead).  The exact
    ``edges_checked`` value depends on traversal order (both kernels stop as
    soon as the root is reached), so the two kernels agree on the reachability
    bit but may differ slightly in the accounting.
    """
    if user == rr_graph.root:
        return True, 0
    if kernel == "dict":
        return _tag_aware_reachable_dict(rr_graph, user, edge_probabilities)
    if user not in rr_graph.vertices:
        return False, 0
    hits, checked = RRBlock.from_graphs([rr_graph]).reach_many(user, [0], edge_probabilities)
    return bool(hits[0]), checked


def _tag_aware_reachable_dict(
    rr_graph: RRGraph,
    user: int,
    edge_probabilities: Sequence[float],
) -> Tuple[bool, int]:
    """Reference per-edge implementation of :func:`tag_aware_reachable`."""
    if user not in rr_graph.vertices:
        return False, 0
    probabilities = np.asarray(edge_probabilities, dtype=float)
    visited = {user}
    queue = deque([user])
    checked = 0
    while queue:
        vertex = queue.popleft()
        for local_index in rr_graph.out_edges_of(vertex):
            checked += 1
            probability = probabilities[rr_graph.edge_ids[local_index]]
            if probability <= 0.0 or probability < rr_graph.edge_thresholds[local_index]:
                continue
            target = rr_graph.edge_targets[local_index]
            if target == rr_graph.root:
                return True, checked
            if target not in visited:
                visited.add(target)
                queue.append(target)
    return False, checked


def structurally_reachable(rr_graph: RRGraph, user: int) -> Set[int]:
    """Vertices reachable from ``user`` inside the RR-Graph ignoring tag probabilities."""
    if user not in rr_graph.vertices:
        return set()
    block = RRBlock.from_graphs([rr_graph])
    reached = block.structural_reach(user, np.zeros(1, dtype=np.int64))
    # A one-graph block keys its nodes by vertex id.
    return set(block.node_keys[: block.num_nodes][reached].tolist())
