"""Graph traversal algorithms used by the samplers, the index and the workload.

Everything here operates on :class:`~repro.graph.digraph.TopicSocialGraph` and
optionally on a per-edge probability vector (``p(e|W)``) so the same BFS code
serves both "structural" reachability (which vertices could ever be influenced,
``R_W(u)`` in the paper) and "live-edge" reachability inside sampled possible
worlds.

Two families of kernels coexist:

* **CSR kernels** (the default) -- frontier-at-a-time BFS over the cached
  :class:`~repro.graph.csr.CSRAdjacency` arrays: one gather per frontier for
  edge ids / endpoints, one batched ``rng`` draw for all coin flips of the
  frontier.  These carry the sampling hot paths.
* **dict kernels** (``kernel="dict"``) -- the original per-edge Python
  walkers.  They remain as the reference implementation: the equivalence tests
  assert both kernels agree, and the benchmarks time one against the other.

Both kernels implement the same probabilistic processes; batched coin
flipping changes the order in which uniforms are consumed, so per-seed sample
paths differ between kernels while the sampled distributions are identical
(the independent live-edge coupling argument of Lemma 6 applies unchanged).
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.exceptions import InvalidParameterError, UnknownVertexError
from repro.graph.csr import sorted_distinct
from repro.graph.digraph import TopicSocialGraph
from repro.utils.heap import concat_ranges
from repro.utils.rng import RandomSource


def _check_vertex(graph: TopicSocialGraph, vertex: int) -> None:
    if not 0 <= vertex < graph.num_vertices:
        raise UnknownVertexError(f"vertex {vertex} not in graph of size {graph.num_vertices}")


def forward_reachable(
    graph: TopicSocialGraph,
    source: int,
    edge_allowed: Optional[Callable[[int], bool]] = None,
) -> Set[int]:
    """Vertices reachable from ``source`` following out-edges.

    ``edge_allowed`` optionally restricts traversal to a subset of edges (for
    instance edges with ``p(e|W) > 0``, which yields the paper's ``R_W(u)``).
    The source itself is always included.
    """
    _check_vertex(graph, source)
    visited = {source}
    queue = deque([source])
    while queue:
        vertex = queue.popleft()
        # borrow the internal adjacency list (read-only): the public
        # out_edges() accessor returns a defensive copy per call, which
        # would tax this reference walker on every dequeued vertex
        for edge_id in graph._out[vertex]:
            if edge_allowed is not None and not edge_allowed(edge_id):
                continue
            _, target = graph.edge_endpoints(edge_id)
            if target not in visited:
                visited.add(target)
                queue.append(target)
    return visited


def reverse_reachable(
    graph: TopicSocialGraph,
    target: int,
    edge_allowed: Optional[Callable[[int], bool]] = None,
) -> Set[int]:
    """Vertices that can reach ``target`` following in-edges (reverse BFS)."""
    _check_vertex(graph, target)
    visited = {target}
    queue = deque([target])
    while queue:
        vertex = queue.popleft()
        for edge_id in graph._in[vertex]:  # borrowed read-only, see forward_reachable
            if edge_allowed is not None and not edge_allowed(edge_id):
                continue
            source, _ = graph.edge_endpoints(edge_id)
            if source not in visited:
                visited.add(source)
                queue.append(source)
    return visited


def reachable_with_probabilities(
    graph: TopicSocialGraph,
    source: int,
    edge_probabilities: Sequence[float],
    threshold: float = 0.0,
    kernel: str = "csr",
) -> Set[int]:
    """``R_W(u)``: vertices reachable from ``source`` via edges with ``p(e|W) > threshold``."""
    probabilities = np.asarray(edge_probabilities, dtype=float)
    if kernel == "dict":
        return forward_reachable(graph, source, lambda e: probabilities[e] > threshold)
    mask = reachable_mask(graph, source, probabilities, threshold)
    return set(np.flatnonzero(mask).tolist())


def reachable_mask(
    graph: TopicSocialGraph,
    source: int,
    edge_probabilities: np.ndarray,
    threshold: float = 0.0,
) -> np.ndarray:
    """Boolean per-vertex membership of ``R_W(u)``, computed on the CSR arrays.

    Frontier-at-a-time BFS: each round gathers every out-edge of the frontier
    with two NumPy indexing operations, filters by ``p(e|W) > threshold`` and
    flags the newly reached targets, so the per-edge work never touches the
    interpreter.
    """
    _check_vertex(graph, source)
    csr = graph.csr
    visited = np.zeros(csr.num_vertices, dtype=bool)
    visited[source] = True
    frontier = np.array([source], dtype=np.int64)
    while frontier.size:
        positions = csr.out_positions(frontier)
        if not positions.size:
            break
        allowed = edge_probabilities[csr.out_edge_ids[positions]] > threshold
        targets = csr.out_targets[positions][allowed]
        fresh = targets[~visited[targets]]
        if not fresh.size:
            break
        visited[fresh] = True
        frontier = sorted_distinct(fresh)
    return visited


#: Worlds packed into one ``uint64`` bitmask word by :func:`reachable_counts`.
WORLDS_PER_WORD = 64
_BIT_WEIGHTS = (1 << np.arange(8, dtype=np.uint8)).reshape(1, 8, 1)


def reachable_counts(
    graph: TopicSocialGraph, source: int, edge_probability_rows: np.ndarray
) -> np.ndarray:
    """``|R_W(u)|`` for every row of ``edge_probability_rows``, bit-parallel.

    Row ``w`` of the ``(worlds, |E|)`` matrix is one world ``W``; entry
    ``[w]`` of the result equals
    ``reachable_mask(graph, source, edge_probability_rows[w]).sum()``.
    Up to :data:`WORLDS_PER_WORD` worlds share one BFS: every edge carries a
    ``uint64`` mask of the worlds it is open in, every vertex the mask of the
    worlds that reach it, and a round expands only the vertices whose mask
    grew, OR-ing ``grown & edge_mask`` into the targets.  Wider batches run
    one BFS per 64-world chunk, so memory stays ``O(|V| + |E|)`` whatever the
    number of worlds.
    """
    _check_vertex(graph, source)
    rows = np.asarray(edge_probability_rows, dtype=float)
    if rows.ndim != 2 or rows.shape[1] != graph.num_edges:
        raise InvalidParameterError(
            f"expected a (worlds, {graph.num_edges}) probability matrix, got shape {rows.shape}"
        )
    counts = np.empty(rows.shape[0], dtype=np.int64)
    for start in range(0, rows.shape[0], WORLDS_PER_WORD):
        chunk = rows[start : start + WORLDS_PER_WORD] > 0.0
        reach = _reach_masks(graph.csr, source, _pack_worlds(chunk), len(chunk))
        counts[start : start + len(chunk)] = _world_counts(reach, len(chunk))
    return counts


def _pack_worlds(open_edges: np.ndarray) -> np.ndarray:
    """Per-edge ``uint64`` masks of a ``(worlds <= 64, |E|)`` boolean matrix.

    Bit ``w`` of word ``e`` is ``open_edges[w, e]``.  Each group of 8 worlds
    is summed into one byte per edge, and the bytes are read back as explicit
    little-endian words, so the bit layout does not depend on the host's byte
    order.
    """
    num_worlds, num_edges = open_edges.shape
    num_bytes = -(-num_worlds // 8)
    bits = np.zeros((num_bytes * 8, num_edges), dtype=np.uint8)
    bits[:num_worlds] = open_edges
    packed = (bits.reshape(num_bytes, 8, num_edges) * _BIT_WEIGHTS).sum(axis=1, dtype=np.uint8)
    octets = np.zeros((num_edges, 8), dtype=np.uint8)
    octets[:, :num_bytes] = packed.T
    return octets.view("<u8").ravel().astype(np.uint64, copy=False)


def _reach_masks(csr, source: int, edge_masks: np.ndarray, num_worlds: int) -> np.ndarray:
    """Per-vertex masks of the worlds in which ``source`` reaches the vertex."""
    reach = np.zeros(csr.num_vertices, dtype=np.uint64)
    reach[source] = np.uint64((1 << num_worlds) - 1)
    frontier = np.array([source], dtype=np.int64)
    grown = reach[frontier]
    owner = np.empty(csr.num_vertices, dtype=np.int64)
    while True:
        starts = csr.out_indptr[frontier]
        degrees = csr.out_indptr[frontier + 1] - starts
        positions = concat_ranges(starts, degrees)
        if not positions.size:
            break
        targets = csr.out_targets[positions]
        before = reach[targets]
        fresh = np.repeat(grown, degrees) & edge_masks[csr.out_edge_ids[positions]] & ~before
        keep = fresh != 0
        if not keep.any():
            break
        targets, before = targets[keep], before[keep]
        np.bitwise_or.at(reach, targets, fresh[keep])
        # One occurrence per target: the one whose position won the scatter.
        slots = np.arange(len(targets))
        owner[targets] = slots
        first = owner[targets] == slots
        frontier = targets[first]
        grown = reach[frontier] & ~before[first]
    return reach


def _world_counts(reach: np.ndarray, num_worlds: int) -> np.ndarray:
    """How many vertex masks in ``reach`` have bit ``w`` set, for each world ``w``.

    The words are read as explicit little-endian bytes and unpacked
    little-bit-first, so byte ``j`` bit ``b`` is world ``8 * j + b`` on any
    host (``np.bitwise_count`` needs numpy 2).
    """
    reached = reach[reach != 0].astype("<u8", copy=False)
    bits = np.unpackbits(reached.view(np.uint8).reshape(-1, 8), axis=1, bitorder="little")
    return bits[:, :num_worlds].sum(axis=0, dtype=np.int64)


def reachable_vertices(
    graph: TopicSocialGraph,
    source: int,
    edge_probabilities: np.ndarray,
    threshold: float = 0.0,
) -> np.ndarray:
    """``R_W(u)`` as a sorted ``int64`` array (CSR kernel)."""
    return np.flatnonzero(reachable_mask(graph, source, edge_probabilities, threshold))


def reachable_subgraph_edges(
    graph: TopicSocialGraph,
    reachable: Set[int],
) -> List[int]:
    """``E_W(u)``: edge ids whose both endpoints lie inside ``reachable``."""
    edges: List[int] = []
    for vertex in reachable:
        for edge_id in graph.out_edges(vertex):
            _, target = graph.edge_endpoints(edge_id)
            if target in reachable:
                edges.append(edge_id)
    return edges


def live_edge_reachable(
    graph: TopicSocialGraph,
    source: int,
    edge_probabilities: Sequence[float],
    uniform: Callable[[], float],
) -> Tuple[Set[int], int]:
    """One Monte-Carlo possible world: BFS over edges kept with probability ``p(e|W)``.

    Returns the set of activated vertices and the number of edges probed, the
    latter feeding the Fig. 13 instrumentation.
    """
    probabilities = np.asarray(edge_probabilities, dtype=float)
    _check_vertex(graph, source)
    activated = {source}
    queue = deque([source])
    probes = 0
    while queue:
        vertex = queue.popleft()
        for edge_id in graph._out[vertex]:  # borrowed read-only, see forward_reachable
            probability = probabilities[edge_id]
            if probability <= 0.0:
                continue
            probes += 1
            _, target = graph.edge_endpoints(edge_id)
            if target in activated:
                continue
            if uniform() < probability:
                activated.add(target)
                queue.append(target)
    return activated, probes


def reverse_live_edge_reachable(
    graph: TopicSocialGraph,
    target: int,
    edge_probabilities: Sequence[float],
    uniform: Callable[[], float],
) -> Tuple[Set[int], int]:
    """One reverse possible world: vertices that reach ``target`` over live edges."""
    probabilities = np.asarray(edge_probabilities, dtype=float)
    _check_vertex(graph, target)
    reached = {target}
    queue = deque([target])
    probes = 0
    while queue:
        vertex = queue.popleft()
        for edge_id in graph._in[vertex]:  # borrowed read-only, see forward_reachable
            probability = probabilities[edge_id]
            if probability <= 0.0:
                continue
            probes += 1
            source, _ = graph.edge_endpoints(edge_id)
            if source in reached:
                continue
            if uniform() < probability:
                reached.add(source)
                queue.append(source)
    return reached, probes


def live_edge_world(
    graph: TopicSocialGraph,
    source: int,
    edge_probabilities: np.ndarray,
    rng: RandomSource,
    collect_edges: bool = False,
) -> Tuple[np.ndarray, Optional[np.ndarray], int]:
    """One forward possible world on the CSR arrays.

    Returns ``(activated_mask, live_edge_ids, probes)``.  Every
    positive-probability out-edge of every activated vertex receives exactly
    one batched coin flip; ``probes`` counts those edges (the Fig. 13
    instrumentation).  ``live_edge_ids`` is only materialized when
    ``collect_edges`` is set (the delayed-materialization recovery needs the
    live edges, the spread estimators only need the activation count).
    """
    _check_vertex(graph, source)
    csr = graph.csr
    activated = np.zeros(csr.num_vertices, dtype=bool)
    activated[source] = True
    frontier = np.array([source], dtype=np.int64)
    live_chunks: List[np.ndarray] = []
    probes = 0
    generator = rng.generator
    while frontier.size:
        positions = csr.out_positions(frontier)
        if not positions.size:
            break
        edge_ids = csr.out_edge_ids[positions]
        probabilities = edge_probabilities[edge_ids]
        positive = probabilities > 0.0
        probes += int(np.count_nonzero(positive))
        edge_ids = edge_ids[positive]
        if not edge_ids.size:
            break
        alive = generator.random(edge_ids.size) < probabilities[positive]
        if collect_edges and alive.any():
            live_chunks.append(edge_ids[alive])
        targets = csr.out_targets[positions][positive][alive]
        fresh = targets[~activated[targets]]
        if fresh.size:
            activated[fresh] = True
            frontier = sorted_distinct(fresh)
        else:
            frontier = np.empty(0, dtype=np.int64)
    live_edges = None
    if collect_edges:
        live_edges = np.concatenate(live_chunks) if live_chunks else np.empty(0, dtype=np.int64)
    return activated, live_edges, probes


def reverse_live_edge_world(
    graph: TopicSocialGraph,
    target: int,
    edge_probabilities: np.ndarray,
    rng: RandomSource,
) -> Tuple[np.ndarray, int]:
    """One reverse possible world on the CSR arrays.

    Returns ``(reached_mask, probes)`` where ``reached_mask[v]`` says whether
    ``v`` reaches ``target`` over live edges; the vectorized counterpart of
    :func:`reverse_live_edge_reachable`.
    """
    _check_vertex(graph, target)
    csr = graph.csr
    reached = np.zeros(csr.num_vertices, dtype=bool)
    reached[target] = True
    frontier = np.array([target], dtype=np.int64)
    probes = 0
    generator = rng.generator
    while frontier.size:
        positions = csr.in_positions(frontier)
        if not positions.size:
            break
        probabilities = edge_probabilities[csr.in_edge_ids[positions]]
        positive = probabilities > 0.0
        probes += int(np.count_nonzero(positive))
        if not positive.any():
            break
        alive = generator.random(int(np.count_nonzero(positive))) < probabilities[positive]
        sources = csr.in_sources[positions][positive][alive]
        fresh = sources[~reached[sources]]
        if fresh.size:
            reached[fresh] = True
            frontier = sorted_distinct(fresh)
        else:
            frontier = np.empty(0, dtype=np.int64)
    return reached, probes


def out_degree_groups(
    graph: TopicSocialGraph,
    high_fraction: float = 0.01,
    mid_fraction: float = 0.10,
) -> Dict[str, List[int]]:
    """Partition users with outgoing edges into high / mid / low out-degree groups.

    Mirrors the query workload of Sec. 7.1: users with no outgoing edge are
    filtered; the top ``high_fraction`` by out-degree form the ``high`` group,
    the next up to ``mid_fraction`` the ``mid`` group, and the rest ``low``.
    """
    degrees = graph.out_degrees()
    candidates = [v for v in graph.vertices() if degrees[v] > 0]
    if not candidates:
        return {"high": [], "mid": [], "low": []}
    ordered = sorted(candidates, key=lambda v: (-degrees[v], v))
    n = len(ordered)
    high_cut = max(1, int(round(n * high_fraction)))
    mid_cut = max(high_cut + 1, int(round(n * mid_fraction)))
    mid_cut = min(mid_cut, n)
    groups = {
        "high": ordered[:high_cut],
        "mid": ordered[high_cut:mid_cut],
        "low": ordered[mid_cut:],
    }
    if not groups["mid"]:
        groups["mid"] = list(groups["high"])
    if not groups["low"]:
        groups["low"] = list(groups["mid"])
    return groups


def single_source_max_probability_paths(
    graph: TopicSocialGraph,
    source: int,
    edge_probabilities: Sequence[float],
    probability_threshold: float = 1e-4,
) -> Dict[int, float]:
    """Best-path activation probabilities from ``source`` (Dijkstra on -log p).

    This is the maximum-influence-path model used by the TIM/MIA-style tree
    baseline: the probability that ``source`` activates ``v`` is approximated by
    the most probable single path.  Paths whose probability drops below
    ``probability_threshold`` are pruned, mirroring the influence-threshold
    pruning of tree-based influence heuristics.
    """
    import heapq

    probabilities = np.asarray(edge_probabilities, dtype=float)
    best: Dict[int, float] = {source: 1.0}
    heap: List[Tuple[float, int]] = [(-1.0, source)]
    settled: Set[int] = set()
    while heap:
        negative_probability, vertex = heapq.heappop(heap)
        path_probability = -negative_probability
        if vertex in settled:
            continue
        settled.add(vertex)
        for edge_id in graph.out_edges(vertex):
            edge_probability = probabilities[edge_id]
            if edge_probability <= 0.0:
                continue
            _, target = graph.edge_endpoints(edge_id)
            candidate = path_probability * edge_probability
            if candidate < probability_threshold:
                continue
            if candidate > best.get(target, 0.0):
                best[target] = candidate
                heapq.heappush(heap, (-candidate, target))
    return best
