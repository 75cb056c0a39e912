"""The RR-Graph sample structure (Definition 2) and tag-aware reachability.

An RR-Graph of a vertex ``v`` is one reverse possible world rooted at ``v``
drawn under the *maximum* edge probabilities ``p(e) = max_z p(e|z)``: every
edge examined during the reverse traversal receives a uniform random value
``c(e)`` and survives iff ``c(e) <= p(e)``.  Because ``p(e|W) <= p(e)`` for any
tag set, the RR-Graph never misses a vertex that could influence ``v`` under
any ``W``; at query time the same ``c(e)`` values are compared against
``p(e|W)`` to decide which stored edges are live (Definition 3), so a single
offline sample serves every future query.

RR-Graphs exist in one form only: the flat arrays of :data:`RR_ARRAY_LAYOUT`
(a root per graph, its members and its kept edges with their ``c(e)``,
concatenated with per-graph ``indptr`` offsets).  :func:`sample_rr_arrays`
draws samples straight into that layout, frontier-at-a-time on the graph's
reverse CSR arrays: a level flags its fresh vertices in a per-vertex mask,
reads all their in-slots, in ascending target order, off that mask repeated
by in-degree, and draws their ``c(e)`` values in one batch, so no level
sorts its frontier.  The index stores the arrays as they are, and DelayMat
recovery (Algorithm 4) writes the same layout.

Query-time matching runs on an :class:`RRBlock`: the graphs of one flat layout
concatenated into one CSR whose nodes are (graph, member vertex) pairs.
:meth:`RRBlock.reach_pairs` verifies every (probability row, candidate
RR-Graph) pair of a batch of estimates in a single level-synchronous BFS, so a
whole best-effort expansion costs a handful of NumPy calls per BFS level
instead of one BFS per row, let alone per RR-Graph.  The per-pair reach bits
and the per-row level-synchronous ``edges_checked`` sums are exactly those of
one BFS per graph; :meth:`RRBlock.reach_many` is the one-row case.
:meth:`RRBlock.root_reach` is the reverse closure the edge-cut tables of
:mod:`repro.index.pruning` read: per node, the root in-slots of its graph it
reaches.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.graph.csr import csr_order, indptr_from_counts, sorted_distinct
from repro.graph.digraph import TopicSocialGraph
from repro.utils.heap import concat_ranges
from repro.utils.rng import RandomSource


def _distinct(nodes: np.ndarray, owner: np.ndarray) -> np.ndarray:
    """``nodes`` without repeats, using ``owner`` (one slot per node) as a work buffer.

    Each node keeps the one occurrence whose position won the scatter, so a
    frontier is deduplicated in a few linear passes instead of a sort.
    """
    positions = np.arange(len(nodes))
    owner[nodes] = positions
    return nodes[owner[nodes] == positions]


class RRBlock:
    """The RR-Graphs of one flat layout concatenated into one CSR (the *block*).

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

    ``arrays`` is the layout of :data:`RR_ARRAY_LAYOUT`; a graph's members
    may come in any order.  Members are the union of each graph's vertex
    run, edge endpoints and root, so a graph whose vertex run misses an edge
    endpoint still maps cleanly; the node keys are deduplicated by
    :func:`~repro.graph.csr.sorted_distinct`, which sorts instead of
    hashing.  The block is immutable and every method only reads it, so
    concurrent queries may share one block.
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
            keys = sorted_distinct(keys)
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
"""The flat RR-Graph layout: names and dtypes.

Graph ``i`` has root ``roots[i]``, members ``vertex_ids[vertex_indptr[i]:
vertex_indptr[i + 1]]`` and kept edges ``edge_indptr[i]:edge_indptr[i + 1]``
of the four parallel edge arrays (global edge id, source, target, ``c(e)``).
"""


def sample_rr_arrays(
    graph: TopicSocialGraph,
    num_samples: int,
    rng: RandomSource,
    max_probabilities: Optional[np.ndarray] = None,
    root: Optional[int] = None,
) -> Dict[str, np.ndarray]:
    """Draw ``num_samples`` RR-Graphs straight into the flat layout (Definition 2).

    Each sample draws its root with ``rng.integer(0, |V|)`` -- or uses
    ``root`` when given -- and then runs the reverse BFS: every in-edge of
    every reached vertex gets a uniform ``c(e)`` and is kept iff ``c(e) <=
    p(e)``, so an edge with ``p(e) <= 0`` is never kept.  Each BFS level
    draws the ``c(e)`` of all its in-slots in one batched call (the bits of
    ``rng.uniforms``), in ascending target order and CSR order within a
    target.  A level finds those in-slots without sorting its frontier: the
    fresh vertices are flagged in a per-vertex mask, and repeating the mask
    by in-degree flags their in-slots, which CSR groups by ascending target.
    A level keeps the in-slot positions of its surviving edges; their edge
    ids and sources are gathered once at the end.  A graph's members are
    read off its reached mask, so they come out sorted; edges keep their
    draw order.  The arrays are read-only.
    """
    if max_probabilities is None:
        max_probabilities = graph.max_edge_probabilities()
    csr = graph.csr
    num_vertices = csr.num_vertices
    in_indptr, in_sources = csr.in_indptr, csr.in_sources
    in_degree = np.diff(in_indptr)
    # Per in-slot liveness floor, gathered once: an examined edge survives
    # iff c(e) <= floor, and -1 (below every draw) stands for p(e) <= 0.
    slot_floor = np.where(max_probabilities > 0.0, max_probabilities, -1.0)[csr.in_edge_ids]
    # generator.random(n) draws the bits of rng.uniforms(n), with less overhead.
    draw = rng.generator.random
    # Both masks are all-True / all-False again between samples.
    unreached = np.ones(num_vertices, dtype=bool)
    frontier = np.zeros(num_vertices, dtype=bool)
    roots = np.empty(num_samples, dtype=np.int64)
    vertex_counts = np.empty(num_samples, dtype=np.int64)
    edge_counts = np.empty(num_samples, dtype=np.int64)
    members, kept_slots, thresholds = [], [], []
    for sample in range(num_samples):
        start = rng.integer(0, num_vertices) if root is None else root
        roots[sample] = start
        unreached[start] = False
        # The root's in-slots are one CSR slice.
        low, high = in_indptr[start : start + 2].tolist()
        level_thresholds = draw(high - low)
        kept = (level_thresholds <= slot_floor[low:high]).nonzero()[0]
        level_thresholds = level_thresholds[kept]
        kept += low
        num_edges = 0
        while kept.size:
            kept_slots.append(kept)
            thresholds.append(level_thresholds)
            num_edges += kept.size
            kept_sources = in_sources[kept]
            fresh = kept_sources[unreached[kept_sources]]
            if not fresh.size:
                break
            unreached[fresh] = False
            frontier[fresh] = True
            positions = frontier.repeat(in_degree).nonzero()[0]
            frontier[fresh] = False
            level_thresholds = draw(positions.size)
            keep = (level_thresholds <= slot_floor[positions]).nonzero()[0]
            kept = positions[keep]
            level_thresholds = level_thresholds[keep]
        graph_members = (~unreached).nonzero()[0]
        unreached[graph_members] = True
        vertex_counts[sample] = graph_members.size
        edge_counts[sample] = num_edges
        members.append(graph_members)
    slots = _concatenate(kept_slots, np.int64)
    edge_ids = csr.in_edge_ids[slots].astype(np.int64, copy=False)
    arrays = {
        "roots": roots,
        "vertex_indptr": indptr_from_counts(vertex_counts),
        "vertex_ids": _concatenate(members, np.int64),
        "edge_indptr": indptr_from_counts(edge_counts),
        "edge_ids": edge_ids,
        "edge_sources": in_sources[slots].astype(np.int64, copy=False),
        "edge_targets": csr.edge_targets[edge_ids].astype(np.int64, copy=False),
        "edge_thresholds": _concatenate(thresholds, np.float64),
    }
    for array in arrays.values():
        array.setflags(write=False)
    return arrays


def _concatenate(parts: List[np.ndarray], dtype) -> np.ndarray:
    return np.concatenate(parts).astype(dtype, copy=False) if parts else np.empty(0, dtype)
