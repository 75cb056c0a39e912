"""Online sampling estimators for influence spread.

Three estimators implement the paper's Sec. 4-5 machinery behind a common
:class:`~repro.sampling.base.InfluenceEstimator` interface:

* :class:`~repro.sampling.monte_carlo.MonteCarloEstimator` -- forward live-edge
  sampling (MC, Kempe et al. style).
* :class:`~repro.sampling.reverse_reachable.ReverseReachableEstimator` --
  reverse reachable set sampling (RR, Borgs et al. style).
* :class:`~repro.sampling.lazy.LazyPropagationEstimator` -- the paper's lazy
  propagation sampling (Algorithm 2) which probes edges only when a geometric
  schedule says they fire.

The module also exposes the sample-size formulas of Lemma 2 / Lemma 3.  Each
:class:`~repro.sampling.base.InfluenceEstimate` carries its own edge visits
and sample count (Fig. 13); per-method totals over queries are the
``query.<method>.*`` counters of the :mod:`repro.obs.telemetry` registry.
"""

from repro.sampling.base import (
    InfluenceEstimate,
    InfluenceEstimator,
    SampleBudget,
    sample_size_online,
    sample_size_offline,
)
from repro.sampling.monte_carlo import MonteCarloEstimator
from repro.sampling.reverse_reachable import ReverseReachableEstimator
from repro.sampling.lazy import LazyPropagationEstimator

__all__ = [
    "InfluenceEstimate",
    "InfluenceEstimator",
    "SampleBudget",
    "sample_size_online",
    "sample_size_offline",
    "MonteCarloEstimator",
    "ReverseReachableEstimator",
    "LazyPropagationEstimator",
]
