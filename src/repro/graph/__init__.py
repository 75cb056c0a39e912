"""Directed social graph substrate.

The paper models the social network as a directed graph ``G(V, E)`` whose edges
carry topic-aware influence probabilities ``p(e|z)``.  This package provides:

* :class:`~repro.graph.digraph.TopicSocialGraph` -- the core adjacency-list
  digraph with a per-edge topic probability matrix.
* :mod:`~repro.graph.generators` -- synthetic graph generators including the
  power-law generator used by the dataset profiles and the star / celebrity
  counterexample graphs of Fig. 3.
* :mod:`~repro.graph.algorithms` -- BFS reachability (forward and reverse),
  vectorized live-edge possible-world kernels and degree-based user grouping.
* :mod:`~repro.graph.csr` -- the compressed-sparse-row adjacency view built
  once per graph version (``graph.csr``) that carries the sampling hot paths.
* :mod:`~repro.graph.io` -- plain-text edge-list serialization.
"""

from repro.graph.csr import CSRAdjacency
from repro.graph.digraph import TopicSocialGraph, Edge
from repro.graph.generators import (
    star_fan_out_graph,
    celebrity_hub_graph,
    random_topic_graph,
    power_law_topic_graph,
    line_graph,
    complete_topic_graph,
)
from repro.graph.algorithms import (
    forward_reachable,
    reverse_reachable,
    reachable_with_probabilities,
    reachable_mask,
    reachable_vertices,
    live_edge_world,
    reverse_live_edge_world,
    out_degree_groups,
)
from repro.graph.io import save_edge_list, load_edge_list

__all__ = [
    "TopicSocialGraph",
    "Edge",
    "CSRAdjacency",
    "star_fan_out_graph",
    "celebrity_hub_graph",
    "random_topic_graph",
    "power_law_topic_graph",
    "line_graph",
    "complete_topic_graph",
    "forward_reachable",
    "reverse_reachable",
    "reachable_with_probabilities",
    "reachable_mask",
    "reachable_vertices",
    "live_edge_world",
    "reverse_live_edge_world",
    "out_degree_groups",
    "save_edge_list",
    "load_edge_list",
]
