"""The offline RR-Graph index and the ``IndexEst`` estimator (Algorithm 3).

Offline, the index draws ``theta`` RR-Graphs for uniformly sampled roots and
records, per user, which RR-Graphs contain them.  Online, estimating
``E[I(u|W)]`` reduces to counting in how many of the RR-Graphs containing ``u``
the user actually reaches the root through live edges (Definition 3):

``E-hat[I(u|W)] = (#reaching RR-Graphs / theta) * |V|``

No sampling happens at query time, which is where the orders-of-magnitude
speed-ups of Fig. 7 / Fig. 9 come from.  The count runs on the index's
:class:`~repro.index.rr_graph.RRBlock`: all RR-Graphs containing ``u`` are
verified in one batched BFS, under every probability row of a batch at once.
The per-user containment lists are tuples, so a list handed to a caller
cannot change the index.

The index keeps its RR-Graphs only as the flat arrays of :meth:`to_arrays`:
:func:`~repro.index.rr_graph.sample_rr_arrays` draws them straight into that
layout, :meth:`from_arrays` adopts stored (possibly memory-mapped) arrays as
they are, and the block and the containment lists are built from them.  An
index is filled once, by ``build()`` or ``from_arrays()``, and only read
afterwards, so the lazy block never goes stale.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import IndexError_, IndexNotBuiltError
from repro.graph.digraph import TopicSocialGraph
from repro.index.rr_graph import RR_ARRAY_LAYOUT, RRBlock, sample_rr_arrays
from repro.obs.clock import monotonic
from repro.sampling.base import (
    InfluenceEstimate,
    InfluenceEstimator,
    SampleBudget,
    probability_matrix,
)
from repro.topics.model import TagTopicModel
from repro.utils.rng import SeedLike, spawn_rng


class RRGraphIndex:
    """A materialized collection of RR-Graphs plus per-user containment lists.

    Parameters
    ----------
    graph:
        The social graph; the index reads only its version at construction
        (``graph.snapshot()``), so later writes to ``graph`` never reach it.
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
        self.graph = graph.snapshot()
        self.num_samples = int(num_samples)
        self._rng = spawn_rng(seed)
        self._arrays: Dict[str, np.ndarray] = {}
        self.containment: Dict[int, Tuple[int, ...]] = {}
        self.build_seconds: float = 0.0
        self._built = False
        # Held for good by the one build() or from_arrays() that fills the index.
        self._fill_once = threading.Lock()
        self._block: Optional[RRBlock] = None
        self._block_lock = threading.Lock()

    # ------------------------------------------------------------------ build
    def build(self) -> "RRGraphIndex":
        """Materialize ``num_samples`` RR-Graphs (offline phase of Algorithm 3).

        An index is filled once: a second ``build()``, or one on an index
        from :meth:`from_arrays`, raises :class:`~repro.exceptions.IndexError_`.
        """
        if not self._fill_once.acquire(blocking=False):
            raise IndexError_("an RRGraphIndex builds once; this one is already built or loaded")
        started = monotonic()
        max_probabilities = self.graph.max_edge_probabilities()
        arrays = sample_rr_arrays(self.graph, self.num_samples, self._rng, max_probabilities)
        self._arrays = arrays
        self.containment = _containment(arrays["vertex_ids"], arrays["vertex_indptr"])
        self._built = True
        self.build_seconds = monotonic() - started
        return self

    @property
    def is_built(self) -> bool:
        """Whether :meth:`build` (or :meth:`from_arrays`) has completed."""
        return self._built

    def _require_built(self) -> None:
        if not self._built:
            raise IndexNotBuiltError("RRGraphIndex.build() must be called before querying")

    # ------------------------------------------------------------------ query
    def graphs_containing(self, user: int) -> Tuple[int, ...]:
        """Indices of the RR-Graphs containing ``user``, ascending (an immutable tuple)."""
        self._require_built()
        return self.containment.get(user, ())

    def containment_count(self, user: int) -> int:
        """``theta(u)``: number of RR-Graphs containing ``user``."""
        return len(self.graphs_containing(user))

    def block(self) -> RRBlock:
        """The block CSR of all RR-Graphs, built once on the first match.

        A pure function of the built index, so building it lazily (under a
        lock, so concurrent first queries build it once) is invisible to
        answers.  Neither ``build()`` nor a freeze builds it, so an index
        refresh leaves the cost to the first read.
        """
        self._require_built()
        block = self._block
        if block is None:
            with self._block_lock:
                if self._block is None:
                    self._block = RRBlock(self._arrays)
                block = self._block
        return block

    def estimate(self, user: int, edge_probabilities: Sequence[float]) -> InfluenceEstimate:
        """Algorithm 3 online phase: count tag-aware reachable RR-Graphs."""
        return self.estimate_many(user, np.asarray(edge_probabilities, dtype=float)[None])[0]

    def estimate_many(self, user: int, rows: np.ndarray) -> List[InfluenceEstimate]:
        """:meth:`estimate` under every row of the ``(R, |E|)`` matrix ``rows``.

        Every (row, RR-Graph containing ``user``) pair is verified in one
        :meth:`~repro.index.rr_graph.RRBlock.reach_pairs` BFS.
        """
        candidates = np.asarray(self.graphs_containing(user), dtype=np.int64)
        pair_rows = np.repeat(np.arange(len(rows), dtype=np.int64), len(candidates))
        pair_graphs = np.tile(candidates, len(rows))
        hits, checked = self.block().reach_pairs(user, rows, pair_rows, pair_graphs)
        hit_counts = np.bincount(pair_rows[hits], minlength=len(rows)).tolist()
        scale = float(self.num_samples)
        return [
            InfluenceEstimate(
                value=hit_count / scale * self.graph.num_vertices,
                num_samples=len(candidates),
                edges_visited=edges,
                reachable_size=len(candidates),
                method="indexest",
            )
            for hit_count, edges in zip(hit_counts, checked.tolist())
        ]

    # -------------------------------------------------------------- serialize
    def to_arrays(self) -> Dict[str, np.ndarray]:
        """The built index as named arrays for persistence (one ``.npy`` file each).

        The RR-Graphs are concatenated into parallel arrays with per-graph
        ``indptr`` offsets (:data:`~repro.index.rr_graph.RR_ARRAY_LAYOUT`),
        which is also how the index stores them, so the whole index
        round-trips through :class:`~repro.serve.store.IndexStore` without any
        per-graph Python objects.  Vertex ids are sorted per graph, so the
        form is canonical.  The arrays are the index's own, read-only.
        """
        self._require_built()
        arrays = dict(self._arrays)
        arrays["num_samples"] = np.array([self.num_samples], dtype=np.int64)
        return arrays

    @classmethod
    def from_arrays(
        cls,
        graph: TopicSocialGraph,
        arrays: Dict[str, np.ndarray],
        build_seconds: float = 0.0,
    ) -> "RRGraphIndex":
        """Reassemble an index of ``graph``'s current version from :meth:`to_arrays` output.

        The rebuilt containment lists are identical to the originals because
        graphs are rebuilt from the same flat arrays.

        The arrays are adopted as they are (no per-graph Python objects).
        They may be read-only ``numpy.memmap`` views (what an
        :class:`IndexStore` load with ``mmap=True`` hands a process replica): the index
        only ever reads them, so a single mapped file can back many worker
        processes at once without copy-on-write faults.
        """
        index = cls(graph, int(arrays["num_samples"][0]))
        index._fill_once.acquire()
        index._arrays = {name: np.asarray(arrays[name], dtype=dtype) for name, dtype in RR_ARRAY_LAYOUT.items()}
        index.containment = _containment(index._arrays["vertex_ids"], index._arrays["vertex_indptr"])
        index._built = True
        index.build_seconds = float(build_seconds)
        return index

    # ------------------------------------------------------------------ stats
    def memory_bytes(self) -> int:
        """Approximate index footprint: vertex ids, 4 numbers per stored edge, containment."""
        self._require_built()
        vertices = self._arrays["vertex_ids"]
        edges = ("edge_ids", "edge_sources", "edge_targets", "edge_thresholds")
        graphs = vertices.nbytes + sum(self._arrays[name].nbytes for name in edges)
        return graphs + 8 * len(vertices)

    def average_rr_graph_size(self) -> float:
        """Mean number of vertices per RR-Graph."""
        self._require_built()
        if not len(self._arrays["roots"]):
            return 0.0
        return float(np.mean(np.diff(self._arrays["vertex_indptr"])))


def _containment(vertex_ids: np.ndarray, vertex_indptr: np.ndarray) -> Dict[int, Tuple[int, ...]]:
    """Per vertex, the ascending positions of the RR-Graphs that contain it.

    Each list is a tuple, so a caller handed one cannot edit the index.

    One stable sort groups the flat vertex array by vertex while keeping
    graph positions ascending (``np.repeat`` emits them in increasing order);
    each vertex's tuple is then one slice of a single ``tolist()``.  The sort
    runs on the narrowest unsigned type that holds every vertex id, so on
    graphs below 65,536 vertices NumPy's stable sort is a radix sort.
    """
    graph_of = np.repeat(np.arange(len(vertex_indptr) - 1, dtype=np.int64), np.diff(vertex_indptr))
    narrow = np.min_scalar_type(int(vertex_ids.max(initial=0)))
    order = np.argsort(vertex_ids.astype(narrow), kind="stable")
    sorted_vertices = vertex_ids[order]
    bounds = (np.flatnonzero(np.diff(sorted_vertices)) + 1).tolist()
    starts = [0, *bounds] if sorted_vertices.size else []
    graphs = graph_of[order].tolist()
    postings = (tuple(graphs[low:high]) for low, high in zip(starts, [*bounds, len(graphs)]))
    return dict(zip(sorted_vertices[starts].tolist(), postings))


class IndexEstimator(InfluenceEstimator):
    """The ``IndexEst`` method: Algorithm 3 behind the estimator interface.

    Every row of a batch is answered by :meth:`RRGraphIndex.estimate_many` in
    one BFS; :meth:`estimate_with_probabilities` is the one-row call.
    """

    name = "indexest"
    pure_estimates = True

    def __init__(
        self,
        graph: TopicSocialGraph,
        model: TagTopicModel,
        index: RRGraphIndex,
        budget: Optional[SampleBudget] = None,
    ) -> None:
        super().__init__(graph, model, budget)
        if index.graph is not self.graph:
            raise IndexNotBuiltError("the index was built for another graph or graph version")
        self.index = index

    def estimate_with_probabilities(
        self,
        user: int,
        edge_probabilities: Sequence[float],
        num_samples: Optional[int] = None,
    ) -> InfluenceEstimate:
        """The one-row case of :meth:`estimate_many_with_probabilities`."""
        rows = np.asarray(edge_probabilities, dtype=float)[None]
        return self.estimate_many_with_probabilities(user, rows, num_samples)[0]

    def estimate_many_with_probabilities(
        self,
        user: int,
        edge_probability_rows: Sequence[Sequence[float]],
        num_samples: Optional[int] = None,
    ) -> list:
        """Delegate to :meth:`RRGraphIndex.estimate_many`: every row in one batched BFS.

        ``num_samples`` is ignored (offline samples).
        """
        return self.index.estimate_many(user, probability_matrix(self.graph, edge_probability_rows))
