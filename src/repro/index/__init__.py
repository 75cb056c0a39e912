"""Index-based influence estimation (Sec. 6 of the paper).

* :mod:`repro.index.rr_graph` -- the RR-Graph sample structure (Definition 2)
  in its one flat-array layout, and tag-aware reachability (Definition 3),
  batched over many RR-Graphs by the :class:`~repro.index.rr_graph.RRBlock`
  kernel.
* :mod:`repro.index.rr_index` -- the offline RR-Graph index and the online
  matching estimator (Algorithm 3, ``IndexEst``).
* :mod:`repro.index.pruning` -- edge-cut choice, inverted lists and the
  filter-and-verify estimator (``IndexEst+``).
* :mod:`repro.index.delayed` -- delayed materialization (Algorithm 4,
  ``DelayMat``): store only per-user RR-Graph counts offline and recover the
  graphs, in the same flat layout, at query time.
* :mod:`repro.index.sizing` -- index size / construction time accounting
  (Table 3).
"""

from repro.index.rr_index import RRGraphIndex, IndexEstimator
from repro.index.pruning import PrunedIndexEstimator
from repro.index.delayed import DelayedMaterializationIndex, DelayedIndexEstimator
from repro.index.sizing import IndexFootprint, measure_rr_index, measure_delayed_index

__all__ = [
    "RRGraphIndex",
    "IndexEstimator",
    "PrunedIndexEstimator",
    "DelayedMaterializationIndex",
    "DelayedIndexEstimator",
    "IndexFootprint",
    "measure_rr_index",
    "measure_delayed_index",
]
