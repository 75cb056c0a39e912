"""The topic-aware directed social graph.

:class:`TopicSocialGraph` is the single graph type used throughout the library.
It is an adjacency-list digraph over integer vertex ids ``0 .. n-1`` where each
edge carries a vector of topic-conditioned influence probabilities ``p(e|z)``
(Sec. 3.1 of the paper).  The class deliberately exposes only the operations
the algorithms need -- neighbourhood iteration, per-edge probability lookups
and the vectorized ``p(e|W)`` computation -- and keeps the construction-time
storage simple (Python lists for adjacency, one ``numpy`` row per edge for
probabilities).

For the sampling hot paths each version has a
:class:`~repro.graph.csr.CSRAdjacency` view (``graph.csr``): contiguous
``indptr`` / ``indices`` / edge-id arrays for both the forward and the reverse
adjacency.  Accessors such as :meth:`TopicSocialGraph.out_edges` return
*copies* of the internal lists, so mutating one can never corrupt the graph.

Every ``add_edge`` makes a new *version*; :meth:`TopicSocialGraph.snapshot`
is a read-only graph of one version.  A written graph is a write log: every
read that spans several of its containers answers from ``self.snapshot()``,
and the lazy caches (CSR view, probability matrix, column copy, ``p(e)``,
fingerprint) live only on snapshots, which never change.  Engines, indexes
and estimators read only the snapshot they were built on.
"""

from __future__ import annotations

import copy
import hashlib
import threading
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import GraphError, ReadOnlyGraphError, UnknownEdgeError, UnknownVertexError
from repro.graph.csr import CSRAdjacency


@dataclass(frozen=True)
class Edge:
    """A directed edge with its identifier and endpoints."""

    edge_id: int
    source: int
    target: int


class TopicSocialGraph:
    """Directed social graph with topic-aware edge probabilities.

    Parameters
    ----------
    num_vertices:
        Number of vertices; vertices are the integers ``0 .. num_vertices - 1``.
    num_topics:
        Length of the ``p(e|z)`` vector attached to every edge.
    vertex_labels:
        Optional human-readable labels (user names, researcher names) used by
        the examples and the case study.

    Notes
    -----
    * Parallel edges are rejected -- the paper's model attaches a single
      probability vector per ordered user pair.
    * Self loops are rejected -- they never contribute to influence spread.
    """

    def __init__(
        self,
        num_vertices: int,
        num_topics: int,
        vertex_labels: Optional[Sequence[str]] = None,
    ) -> None:
        if num_vertices <= 0:
            raise GraphError(f"num_vertices must be positive, got {num_vertices}")
        if num_topics <= 0:
            raise GraphError(f"num_topics must be positive, got {num_topics}")
        self._num_vertices = int(num_vertices)
        self._num_topics = int(num_topics)
        self._out: List[List[int]] = [[] for _ in range(num_vertices)]
        self._in: List[List[int]] = [[] for _ in range(num_vertices)]
        self._edge_source: List[int] = []
        self._edge_target: List[int] = []
        self._edge_lookup: Dict[Tuple[int, int], int] = {}
        self._edge_probs: List[np.ndarray] = []
        # Read caches, on snapshots only: snapshot() sets the first two.
        self._csr: Optional[CSRAdjacency] = None
        self._prob_matrix: Optional[np.ndarray] = None
        self._prob_columns: Optional[np.ndarray] = None
        self._max_probs: Optional[np.ndarray] = None
        self._fingerprint: Optional[str] = None
        self._version = 0
        # add_edge and snapshot() hold the lock; _snapshot is the current version's.
        self._lock = threading.Lock()
        self._snapshot: Optional[TopicSocialGraph] = None
        self._read_only = False
        if vertex_labels is not None:
            if len(vertex_labels) != num_vertices:
                raise GraphError(
                    f"expected {num_vertices} vertex labels, got {len(vertex_labels)}"
                )
            self.vertex_labels = list(vertex_labels)
        else:
            self.vertex_labels = [f"u{i}" for i in range(num_vertices)]

    # ------------------------------------------------------------------ sizes
    @property
    def num_vertices(self) -> int:
        """Number of vertices ``|V|``."""
        return self._num_vertices

    @property
    def num_edges(self) -> int:
        """Number of edges ``|E|``."""
        return len(self._edge_source)

    @property
    def num_topics(self) -> int:
        """Number of topics ``|Z|`` carried by each edge."""
        return self._num_topics

    def vertices(self) -> range:
        """Iterable of all vertex ids."""
        return range(self._num_vertices)

    # ------------------------------------------------------------- validation
    def _check_vertex(self, vertex: int) -> int:
        if not 0 <= vertex < self._num_vertices:
            raise UnknownVertexError(f"vertex {vertex} not in graph of size {self._num_vertices}")
        return vertex

    # --------------------------------------------------------------- mutation
    def add_edge(self, source: int, target: int, topic_probabilities: Sequence[float]) -> int:
        """Add a directed edge with its ``p(e|z)`` vector and return its id.

        Raises :class:`~repro.exceptions.ReadOnlyGraphError` on a snapshot.
        """
        if self._read_only:
            raise ReadOnlyGraphError(
                "a graph snapshot is read-only; add the edge to the graph it was taken from"
            )
        with self._lock:
            self._check_vertex(source)
            self._check_vertex(target)
            if source == target:
                raise GraphError(f"self loop ({source}, {target}) is not allowed")
            if (source, target) in self._edge_lookup:
                raise GraphError(f"edge ({source}, {target}) already exists")
            probs = np.asarray(topic_probabilities, dtype=float)
            if probs.shape != (self._num_topics,):
                raise GraphError(
                    f"expected {self._num_topics} topic probabilities, got shape {probs.shape}"
                )
            if not np.all((probs >= 0.0) & (probs <= 1.0)):
                raise GraphError(f"edge probabilities must lie in [0, 1], got {probs}")
            if self._snapshot is not None:
                # The snapshot shares these containers: write to copies.
                self._out = [list(edges) for edges in self._out]
                self._in = [list(edges) for edges in self._in]
                self._edge_source = list(self._edge_source)
                self._edge_target = list(self._edge_target)
                self._edge_lookup = dict(self._edge_lookup)
                self._edge_probs = list(self._edge_probs)
                self._snapshot = None
            edge_id = len(self._edge_source)
            self._edge_source.append(source)
            self._edge_target.append(target)
            self._edge_lookup[(source, target)] = edge_id
            self._edge_probs.append(probs)
            self._out[source].append(edge_id)
            self._in[target].append(edge_id)
            self._version += 1
            return edge_id

    def snapshot(self) -> "TopicSocialGraph":
        """A read-only graph of the current version: the same object until the next ``add_edge``.

        A shallow copy sharing this version's adjacency lists, built with its
        CSR arrays and probability matrix; the next ``add_edge`` writes to
        copies of the lists, so the snapshot never changes.  Its ``add_edge``
        raises :class:`~repro.exceptions.ReadOnlyGraphError` and its snapshot
        is itself.  ``snapshot`` and ``add_edge`` hold one lock, so a snapshot
        taken during a write is the version before it or after it.
        """
        if self._read_only:
            return self
        with self._lock:
            if self._snapshot is None:
                snapshot = copy.copy(self)
                snapshot._read_only = True
                snapshot._csr = CSRAdjacency.from_edges(self._num_vertices, self._edge_source, self._edge_target)
                snapshot._prob_matrix = np.array(self._edge_probs, dtype=float).reshape(-1, self._num_topics)
                self._snapshot = snapshot
            return self._snapshot

    # ----------------------------------------------------------------- access
    def has_edge(self, source: int, target: int) -> bool:
        """Whether the directed edge ``(source, target)`` exists."""
        return (source, target) in self._edge_lookup

    def edge_id(self, source: int, target: int) -> int:
        """The id of edge ``(source, target)``; raises if missing."""
        try:
            return self._edge_lookup[(source, target)]
        except KeyError as exc:
            raise UnknownEdgeError(f"edge ({source}, {target}) does not exist") from exc

    def edge_endpoints(self, edge_id: int) -> Tuple[int, int]:
        """The ``(source, target)`` pair of an edge id."""
        graph = self.snapshot()
        if not 0 <= edge_id < graph.num_edges:
            raise UnknownEdgeError(f"edge id {edge_id} out of range")
        return graph._edge_source[edge_id], graph._edge_target[edge_id]

    def edges(self) -> Iterator[Edge]:
        """Iterate over all edges of the current version."""
        graph = self.snapshot()
        for edge_id in range(graph.num_edges):
            yield Edge(edge_id, graph._edge_source[edge_id], graph._edge_target[edge_id])

    def out_edges(self, vertex: int) -> List[int]:
        """Edge ids leaving ``vertex`` (a defensive copy; see :meth:`csr`)."""
        self._check_vertex(vertex)
        return list(self._out[vertex])

    def in_edges(self, vertex: int) -> List[int]:
        """Edge ids entering ``vertex`` (a defensive copy; see :meth:`csr`)."""
        self._check_vertex(vertex)
        return list(self._in[vertex])

    def out_degree(self, vertex: int) -> int:
        """Out-degree of ``vertex``."""
        self._check_vertex(vertex)
        return len(self._out[vertex])

    def out_degrees(self) -> np.ndarray:
        """Vector of out-degrees for every vertex."""
        return np.array([len(adj) for adj in self._out], dtype=np.int64)

    # -------------------------------------------------------------------- csr
    @property
    def csr(self) -> CSRAdjacency:
        """The CSR view of the current version's adjacency, built once by :meth:`snapshot`.

        The returned structure is immutable and shared between callers; a
        holder keeps its version while later :meth:`add_edge` calls make new
        ones.
        """
        return self.snapshot()._csr

    @property
    def version(self) -> int:
        """Mutation counter; increments on every :meth:`add_edge`.

        A :meth:`snapshot` keeps the version it was taken at, so comparing it
        with its source graph's version tells whether writes landed since.
        """
        return self._version

    def fingerprint(self) -> str:
        """Content hash of the graph (shape, topology and probabilities).

        Two graphs built from the same edges in the same order share a
        fingerprint even across processes, which is what lets a persisted
        index (:mod:`repro.serve.store`) be matched against a freshly
        regenerated dataset.  The hash is cached on the version's
        :meth:`snapshot`, so repeated store lookups do not rehash it.
        """
        graph = self.snapshot()
        if graph._fingerprint is None:
            digest = hashlib.sha256()
            digest.update(f"v{graph._num_vertices}:z{graph._num_topics}:".encode())
            digest.update(np.asarray(graph._edge_source, dtype=np.int64).tobytes())
            digest.update(np.asarray(graph._edge_target, dtype=np.int64).tobytes())
            digest.update(np.ascontiguousarray(graph._prob_matrix, dtype=float).tobytes())
            graph._fingerprint = digest.hexdigest()
        return graph._fingerprint

    # ----------------------------------------------------------- probabilities
    def topic_probabilities(self, edge_id: int) -> np.ndarray:
        """The ``p(e|z)`` vector of an edge."""
        graph = self.snapshot()
        if not 0 <= edge_id < graph.num_edges:
            raise UnknownEdgeError(f"edge id {edge_id} out of range")
        return graph._edge_probs[edge_id]

    @property
    def probability_matrix(self) -> np.ndarray:
        """All edge probability vectors stacked into a ``(|E|, |Z|)`` matrix (built by :meth:`snapshot`)."""
        return self.snapshot()._prob_matrix

    @property
    def probability_columns(self) -> np.ndarray:
        """The probability matrix in column-major order: row ``z`` is ``p(e|z)`` of every edge.

        A read-only ``(|Z|, |E|)`` copy, built on the version's first access
        and kept on its :meth:`snapshot`.  A column of the
        C-order :attr:`probability_matrix` is a strided read; here it is
        contiguous, which is what the single-topic rows and the sparse
        ``p+`` term read.  Adding ``0.0`` turns a ``-0.0`` entry into the
        ``+0.0`` a dgemv would produce for it, so a scaled column equals the
        dgemv bit for bit; every other entry is copied unchanged.
        """
        graph = self.snapshot()
        if graph._prob_columns is None:
            columns = np.add(graph._prob_matrix.T, 0.0, order="C")
            columns.flags.writeable = False
            graph._prob_columns = columns
        return graph._prob_columns

    def max_edge_probabilities(self) -> np.ndarray:
        """``p(e) = max_z p(e|z)`` per edge (Definition 2 uses this bound)."""
        graph = self.snapshot()
        if graph._max_probs is None:
            matrix = graph._prob_matrix
            graph._max_probs = matrix.max(axis=1) if matrix.size else np.zeros(0)
        return graph._max_probs

    def edge_probabilities_under(self, topic_posterior: Sequence[float]) -> np.ndarray:
        """Vector of ``p(e|W) = sum_z p(e|z) p(z|W)`` for every edge.

        ``topic_posterior`` is the ``p(z|W)`` vector computed by the tag-topic
        model (:meth:`repro.topics.TagTopicModel.topic_posterior`).
        """
        return self.edge_probabilities_under_many([topic_posterior])[0]

    def edge_probabilities_under_many(
        self, topic_posteriors: Sequence[Sequence[float]]
    ) -> np.ndarray:
        """:meth:`edge_probabilities_under` of several posteriors, as one ``(R, |E|)`` matrix.

        Row ``i`` equals the one-posterior vector ``matrix @ posterior`` bit
        for bit, built from the posterior's topic support:

        * exactly one nonzero weight ``w``, and ``w > 0``: the dgemv sums
          ``round(p(e|z) * w)`` with exact zeros, so the row is the contiguous
          column ``z`` of :attr:`probability_columns` times ``w``.  A negative
          ``w`` is left to the dgemv: ``0 * w`` is ``-0.0``, while the dgemv's
          zero accumulator returns ``+0.0``;
        * otherwise one ``np.matmul(matrix, posterior, out=row)`` dgemv on the
          C-order matrix.  A dgemv on the transposed copy could sum the topics
          in another order, and so could one GEMM over the stacked
          posteriors (a blocked product rounds differently), so neither is
          used.
        """
        graph = self.snapshot()
        matrix = graph._prob_matrix
        columns = graph.probability_columns
        rows = np.empty((len(topic_posteriors), graph.num_edges))
        for row, topic_posterior in zip(rows, topic_posteriors):
            posterior = np.asarray(topic_posterior, dtype=float)
            if posterior.shape != (self._num_topics,):
                raise GraphError(
                    f"topic posterior must have length {self._num_topics}, got {posterior.shape}"
                )
            support = posterior.nonzero()[0]
            if len(support) == 1 and posterior[support[0]] > 0.0:
                np.multiply(columns[support[0]], posterior[support[0]], out=row)
            else:
                np.matmul(matrix, posterior, out=row)
        return rows

    def edge_probability_under(self, edge_id: int, topic_posterior: Sequence[float]) -> float:
        """``p(e|W)`` for a single edge."""
        posterior = np.asarray(topic_posterior, dtype=float)
        return float(self.topic_probabilities(edge_id) @ posterior)

    # ------------------------------------------------------------------ labels
    def label_of(self, vertex: int) -> str:
        """Human-readable label of a vertex."""
        self._check_vertex(vertex)
        return self.vertex_labels[vertex]

    # ---------------------------------------------------------------- utility
    def copy(self) -> "TopicSocialGraph":
        """A writable deep copy of the current version."""
        graph = self.snapshot()
        clone = TopicSocialGraph(graph._num_vertices, graph._num_topics, graph.vertex_labels)
        for edge in graph.edges():
            clone.add_edge(edge.source, edge.target, graph._edge_probs[edge.edge_id])
        return clone

    def memory_bytes(self) -> int:
        """Approximate in-memory footprint, used for index-size accounting.

        Per edge: one out-list and one in-list slot, its two endpoints and its
        ``p(e|z)`` vector, 8 bytes each.
        """
        return self.num_edges * (2 + 2 + self._num_topics) * 8

    def density(self) -> float:
        """Average degree ``|E| / |V|`` reported in Table 2."""
        return self.num_edges / self._num_vertices

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TopicSocialGraph(|V|={self._num_vertices}, |E|={self.num_edges}, "
            f"|Z|={self._num_topics})"
        )

    # ----------------------------------------------------- shared-array codec
    def to_shared_arrays(self) -> Dict[str, np.ndarray]:
        """Flatten the graph into plain numpy arrays for cross-process sharing.

        The returned dict is exactly what :meth:`from_shared_arrays` consumes:
        the CSR adjacency arrays, the ``(|E|, |Z|)`` probability matrix and a
        small ``shape`` header carrying ``(|V|, |Z|, |E|, version)``.  Every
        value is a contiguous array, so the dict can be persisted as one
        ``.npy`` file per array and later memory-mapped read-only by worker
        processes (:meth:`repro.serve.store.IndexStore.save_graph_bundle`).  Every
        array comes from one :meth:`snapshot`, so the dict is one version.
        """
        graph = self.snapshot()
        csr = graph._csr
        return {
            "shape": np.array(
                [graph._num_vertices, graph._num_topics, graph.num_edges, graph._version],
                dtype=np.int64,
            ),
            "edge_sources": csr.edge_sources,
            "edge_targets": csr.edge_targets,
            "out_indptr": csr.out_indptr,
            "out_targets": csr.out_targets,
            "out_edge_ids": csr.out_edge_ids,
            "in_indptr": csr.in_indptr,
            "in_sources": csr.in_sources,
            "in_edge_ids": csr.in_edge_ids,
            "probability_matrix": np.ascontiguousarray(graph._prob_matrix, dtype=float),
        }

    @classmethod
    def from_shared_arrays(
        cls,
        arrays: Dict[str, np.ndarray],
        vertex_labels: Optional[Sequence[str]] = None,
    ) -> "TopicSocialGraph":
        """Reconstruct a graph from :meth:`to_shared_arrays` output, zero-copy.

        The heavy float payload (the probability matrix) and all CSR arrays
        are adopted *as given* -- when the caller passes read-only memory maps
        (``np.load(..., mmap_mode="r")``), the replica shares those pages with
        every other process instead of copying them.  Only the O(|E|) Python
        adjacency lists and the edge lookup dict are rebuilt.  The mutation
        ``version`` is restored from the header, so the replica produces the
        same :func:`index_cache_key` as the original graph and
        :meth:`fingerprint` matches bitwise.  The replica is one version and
        is never written to: it is read-only (its ``add_edge`` raises
        :class:`~repro.exceptions.ReadOnlyGraphError`) and its own snapshot.
        """
        header = np.asarray(arrays["shape"], dtype=np.int64)
        num_vertices, num_topics, num_edges, version = (int(value) for value in header)
        graph = cls(num_vertices, num_topics, vertex_labels)
        sources = np.asarray(arrays["edge_sources"], dtype=np.int64)
        targets = np.asarray(arrays["edge_targets"], dtype=np.int64)
        matrix = arrays["probability_matrix"]
        if len(sources) != num_edges or matrix.shape != (num_edges, num_topics):
            raise GraphError(
                f"shared arrays are inconsistent: header says {num_edges} edges x "
                f"{num_topics} topics, got {len(sources)} endpoints and "
                f"probability matrix {matrix.shape}"
            )
        if not np.all((matrix >= 0.0) & (matrix <= 1.0)):
            raise GraphError("shared probability matrix has entries outside [0, 1] (or NaN)")
        graph._edge_source = sources.tolist()
        graph._edge_target = targets.tolist()
        graph._edge_lookup = {
            (source, target): edge_id
            for edge_id, (source, target) in enumerate(
                zip(graph._edge_source, graph._edge_target)
            )
        }
        # Row views into the (possibly mmap'd) matrix; topic_probabilities()
        # hands these out read-only without ever materializing a copy.  The
        # rows are plain ndarray views: a memmap row per edge costs ~1 us more.
        graph._edge_probs = list(np.asarray(matrix))
        graph._prob_matrix = matrix
        out_indptr = np.asarray(arrays["out_indptr"], dtype=np.int64)
        in_indptr = np.asarray(arrays["in_indptr"], dtype=np.int64)
        out_edge_ids = np.asarray(arrays["out_edge_ids"], dtype=np.int64)
        in_edge_ids = np.asarray(arrays["in_edge_ids"], dtype=np.int64)
        graph._out = [
            out_edge_ids[out_indptr[v] : out_indptr[v + 1]].tolist()
            for v in range(num_vertices)
        ]
        graph._in = [
            in_edge_ids[in_indptr[v] : in_indptr[v + 1]].tolist()
            for v in range(num_vertices)
        ]
        graph._csr = CSRAdjacency(
            num_vertices=num_vertices,
            num_edges=num_edges,
            edge_sources=sources,
            edge_targets=targets,
            out_indptr=out_indptr,
            out_targets=np.asarray(arrays["out_targets"], dtype=np.int64),
            out_edge_ids=out_edge_ids,
            in_indptr=in_indptr,
            in_sources=np.asarray(arrays["in_sources"], dtype=np.int64),
            in_edge_ids=in_edge_ids,
        )
        graph._version = version
        graph._read_only = True
        return graph

    # ------------------------------------------------------------- construction
    @classmethod
    def from_edges(
        cls,
        num_vertices: int,
        num_topics: int,
        edges: Iterable[Tuple[int, int, Sequence[float]]],
        vertex_labels: Optional[Sequence[str]] = None,
    ) -> "TopicSocialGraph":
        """Build a graph from an iterable of ``(source, target, p(e|z))`` triples."""
        graph = cls(num_vertices, num_topics, vertex_labels)
        for source, target, probabilities in edges:
            graph.add_edge(source, target, probabilities)
        return graph
