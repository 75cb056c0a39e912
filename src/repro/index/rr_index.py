"""The offline RR-Graph index and the ``IndexEst`` estimator (Algorithm 3).

Offline, the index draws ``theta`` RR-Graphs for uniformly sampled roots and
records, per user, which RR-Graphs contain them.  Online, estimating
``E[I(u|W)]`` reduces to counting in how many of the RR-Graphs containing ``u``
the user actually reaches the root through live edges (Definition 3):

``E-hat[I(u|W)] = (#reaching RR-Graphs / theta) * |V|``

No sampling happens at query time, which is where the orders-of-magnitude
speed-ups of Fig. 7 / Fig. 9 come from.  The count runs on the index's
:class:`~repro.index.rr_graph.RRBlock`: all RR-Graphs containing ``u`` are
verified in one batched BFS.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.exceptions import IndexNotBuiltError
from repro.graph.digraph import TopicSocialGraph
from repro.index.rr_graph import RRBlock, RRGraph, flatten_rr_graphs, generate_rr_graph
from repro.sampling.base import InfluenceEstimate, InfluenceEstimator, SampleBudget
from repro.topics.model import TagTopicModel
from repro.utils.freeze import guard_check
from repro.utils.rng import SeedLike, spawn_rng
from repro.utils.timer import Stopwatch


class RRGraphIndex:
    """A materialized collection of RR-Graphs plus per-user containment lists.

    Parameters
    ----------
    graph:
        The social graph the index is built for.
    num_samples:
        Number of RR-Graphs to materialize (``theta``).  The theoretical value
        of Eqn. 7 can be obtained from
        :func:`repro.sampling.base.sample_size_offline`; benchmarks typically
        use a smaller practical value, exactly as the paper's implementation
        caps the index size.
    seed:
        Random seed for the offline sampling.
    """

    def __init__(self, graph: TopicSocialGraph, num_samples: int, seed: SeedLike = None) -> None:
        self.graph = graph
        self.num_samples = int(num_samples)
        self._rng = spawn_rng(seed)
        self.rr_graphs: List[RRGraph] = []
        self.containment: Dict[int, List[int]] = {}
        self.build_seconds: float = 0.0
        self._built = False
        self._built_version: Optional[int] = None
        self._block: Optional[RRBlock] = None
        self._block_lock = threading.Lock()

    # ------------------------------------------------------------------ build
    def build(self) -> "RRGraphIndex":
        """Materialize ``num_samples`` RR-Graphs (offline phase of Algorithm 3)."""
        guard_check(self, "rebuild a frozen RR-Graph index")
        watch = Stopwatch().start()
        max_probabilities = self.graph.max_edge_probabilities()
        self.rr_graphs = []
        self.containment = {}
        self._block = None
        for index in range(self.num_samples):
            root = self._rng.integer(0, self.graph.num_vertices)
            rr_graph = generate_rr_graph(self.graph, root, self._rng, max_probabilities)
            self.rr_graphs.append(rr_graph)
            for vertex in rr_graph.vertices:
                self.containment.setdefault(vertex, []).append(index)
        self._built = True
        self._built_version = self.graph.version
        watch.stop()
        self.build_seconds = watch.elapsed
        return self

    @property
    def is_built(self) -> bool:
        """Whether :meth:`build` has completed for the graph's *current* state.

        Mutating the graph (``add_edge``) after a build marks the index stale:
        the stored RR-Graphs describe the pre-mutation graph, so querying them
        would silently mix snapshots.  A stale index reports ``False`` here
        and must be rebuilt.
        """
        return self._built and self._built_version == self.graph.version

    def _require_built(self) -> None:
        if not self._built:
            raise IndexNotBuiltError("RRGraphIndex.build() must be called before querying")
        if self._built_version != self.graph.version:
            raise IndexNotBuiltError(
                "the graph was mutated after RRGraphIndex.build(); rebuild the index"
            )

    # ------------------------------------------------------------------ query
    def graphs_containing(self, user: int) -> List[int]:
        """Indices of the RR-Graphs containing ``user``."""
        self._require_built()
        return self.containment.get(user, [])

    def containment_count(self, user: int) -> int:
        """``theta(u)``: number of RR-Graphs containing ``user``."""
        return len(self.graphs_containing(user))

    def block(self) -> RRBlock:
        """The block CSR of all RR-Graphs, built once on the first match.

        A pure function of the built index, so building it lazily (under a
        lock, so concurrent first queries build it once) is invisible to
        answers; :meth:`build` resets it.  Neither ``build()`` nor a freeze
        builds it, so an index refresh leaves the cost to the first read.
        """
        self._require_built()
        block = self._block
        if block is None:
            with self._block_lock:
                if self._block is None:
                    self._block = RRBlock.from_graphs(self.rr_graphs)
                block = self._block
        return block

    def estimate(self, user: int, edge_probabilities: Sequence[float]) -> InfluenceEstimate:
        """Algorithm 3 online phase: count tag-aware reachable RR-Graphs."""
        candidates = self.graphs_containing(user)
        hits, checked_edges = self.block().reach_many(user, candidates, edge_probabilities)
        value = int(hits.sum()) / float(self.num_samples) * self.graph.num_vertices
        return InfluenceEstimate(
            value=value,
            num_samples=len(candidates),
            edges_visited=checked_edges,
            reachable_size=len(candidates),
            method="indexest",
        )

    # -------------------------------------------------------------- serialize
    def to_arrays(self) -> Dict[str, np.ndarray]:
        """Flatten the built index into named arrays for ``npz`` persistence.

        The RR-Graphs are concatenated into parallel arrays with per-graph
        ``indptr`` offsets (the same layout the CSR kernels use), so the whole
        index round-trips through :func:`numpy.savez_compressed` without any
        per-graph Python objects.  Vertex ids are stored sorted per graph to
        make the serialized form canonical.
        """
        self._require_built()
        arrays = flatten_rr_graphs(self.rr_graphs)
        arrays["num_samples"] = np.array([self.num_samples], dtype=np.int64)
        return arrays

    @classmethod
    def from_arrays(
        cls,
        graph: TopicSocialGraph,
        arrays: Dict[str, np.ndarray],
        built_version: Optional[int] = None,
        build_seconds: float = 0.0,
    ) -> "RRGraphIndex":
        """Reassemble an index from :meth:`to_arrays` output.

        ``built_version`` is the ``graph.version`` recorded at save time; the
        reconstructed index is only usable while the graph still has that
        version (the usual staleness rule of :attr:`is_built`).  The rebuilt
        containment lists are identical to the originals because graphs are
        replayed in materialization order.

        ``arrays`` may be read-only ``numpy.memmap`` views (what
        :meth:`IndexStore.open_mapped` hands a process replica): every value
        is *read* -- sliced, ``tolist()``'d or copied into per-graph Python
        lists -- and never written, so a single mapped file can back many
        worker processes at once without copy-on-write faults.
        """
        roots = np.asarray(arrays["roots"], dtype=np.int64)
        index = cls(graph, int(arrays["num_samples"][0]))
        vertex_indptr = np.asarray(arrays["vertex_indptr"], dtype=np.int64)
        edge_indptr = np.asarray(arrays["edge_indptr"], dtype=np.int64)
        vertex_ids = np.asarray(arrays["vertex_ids"], dtype=np.int64)
        edge_ids = np.asarray(arrays["edge_ids"], dtype=np.int64)
        edge_sources = np.asarray(arrays["edge_sources"], dtype=np.int64)
        edge_targets = np.asarray(arrays["edge_targets"], dtype=np.int64)
        edge_thresholds = np.asarray(arrays["edge_thresholds"], dtype=float)
        for position, root in enumerate(roots.tolist()):
            members = vertex_ids[vertex_indptr[position] : vertex_indptr[position + 1]]
            rr_graph = RRGraph(root=int(root), vertices=set(members.tolist()))
            lo, hi = int(edge_indptr[position]), int(edge_indptr[position + 1])
            if hi > lo:
                rr_graph.edge_ids = edge_ids[lo:hi].tolist()
                rr_graph.edge_sources = edge_sources[lo:hi].tolist()
                rr_graph.edge_targets = edge_targets[lo:hi].tolist()
                rr_graph.edge_thresholds = edge_thresholds[lo:hi].tolist()
            index.rr_graphs.append(rr_graph)
        # Containment rebuild, vectorized: one stable sort groups the flat
        # vertex array by vertex while keeping graph positions ascending
        # (np.repeat emits positions in increasing order), reproducing exactly
        # the lists build() accumulates.
        if vertex_ids.size:
            positions = np.repeat(
                np.arange(len(roots), dtype=np.int64), np.diff(vertex_indptr)
            )
            order = np.argsort(vertex_ids, kind="stable")
            sorted_vertices = vertex_ids[order]
            sorted_positions = positions[order]
            boundaries = np.flatnonzero(np.diff(sorted_vertices)) + 1
            unique_vertices = sorted_vertices[np.concatenate(([0], boundaries))]
            for vertex, postings in zip(
                unique_vertices.tolist(), np.split(sorted_positions, boundaries)
            ):
                index.containment[vertex] = postings.tolist()
        index._built = True
        index._built_version = graph.version if built_version is None else int(built_version)
        index.build_seconds = float(build_seconds)
        return index

    # ------------------------------------------------------------------ stats
    def memory_bytes(self) -> int:
        """Approximate index footprint (graphs + containment lists)."""
        self._require_built()
        graphs = sum(rr.memory_bytes() for rr in self.rr_graphs)
        containment = sum(len(v) for v in self.containment.values()) * 8
        return graphs + containment

    def average_rr_graph_size(self) -> float:
        """Mean number of vertices per RR-Graph."""
        self._require_built()
        if not self.rr_graphs:
            return 0.0
        return float(np.mean([rr.num_vertices for rr in self.rr_graphs]))


class IndexEstimator(InfluenceEstimator):
    """The ``IndexEst`` method: Algorithm 3 behind the estimator interface."""

    name = "indexest"

    def __init__(
        self,
        graph: TopicSocialGraph,
        model: TagTopicModel,
        index: RRGraphIndex,
        budget: Optional[SampleBudget] = None,
    ) -> None:
        super().__init__(graph, model, budget)
        if index.graph is not graph:
            raise IndexNotBuiltError("the index was built for a different graph instance")
        self.index = index

    def estimate_with_probabilities(
        self,
        user: int,
        edge_probabilities: Sequence[float],
        num_samples: Optional[int] = None,
    ) -> InfluenceEstimate:
        """Delegate to the RR-Graph index; ``num_samples`` is ignored (offline samples)."""
        return self.index.estimate(user, edge_probabilities)
