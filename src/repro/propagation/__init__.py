"""Propagation model substrate.

The paper evaluates PITEX under the topic-aware Independent Cascade (IC)
model; this package implements IC only, plus an exact possible-world
influence oracle used to validate the samplers on small graphs.
"""

from repro.propagation.cascade import CascadeTrace
from repro.propagation.ic import IndependentCascadeModel, simulate_ic_cascade
from repro.propagation.exact import exact_influence_spread, exact_activation_probabilities

__all__ = [
    "CascadeTrace",
    "IndependentCascadeModel",
    "simulate_ic_cascade",
    "exact_influence_spread",
    "exact_activation_probabilities",
]
