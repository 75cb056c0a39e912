"""Exact influence computation by possible-world enumeration.

Computing ``E[I(u|W)]`` is #P-hard in general (the paper cites Chen et al.),
but for graphs with a handful of edges the expectation can be computed exactly
by enumerating every live/blocked assignment of the edges that matter.  The
samplers, the index and the engine are all validated against this oracle in the
test suite.
"""

from __future__ import annotations

from itertools import product
from typing import List, Sequence, Set

import numpy as np

from repro.exceptions import EstimationError
from repro.graph.algorithms import forward_reachable, reachable_subgraph_edges, reachable_with_probabilities
from repro.graph.digraph import TopicSocialGraph

_MAX_EXACT_EDGES = 22
"""Enumeration is 2^edges; cap the relevant edge count to keep the oracle usable."""


def _relevant_edges(
    graph: TopicSocialGraph, source: int, probabilities: np.ndarray
) -> List[int]:
    """Edges that can possibly matter: both endpoints reachable with positive probability."""
    reachable = reachable_with_probabilities(graph, source, probabilities)
    candidates = reachable_subgraph_edges(graph, reachable)
    return [e for e in candidates if probabilities[e] > 0.0]


def exact_influence_spread(
    graph: TopicSocialGraph,
    source: int,
    edge_probabilities: Sequence[float],
) -> float:
    """Exact ``E[I(source|W)]`` by enumerating possible worlds.

    Raises :class:`EstimationError` when more than ``_MAX_EXACT_EDGES`` edges
    are relevant, to protect callers from accidental exponential blow-ups.
    """
    probabilities = np.asarray(edge_probabilities, dtype=float)
    relevant = _relevant_edges(graph, source, probabilities)
    if len(relevant) > _MAX_EXACT_EDGES:
        raise EstimationError(
            f"exact influence requires enumerating 2^{len(relevant)} worlds; "
            f"limit is 2^{_MAX_EXACT_EDGES}"
        )
    certain = [e for e in relevant if probabilities[e] >= 1.0]
    uncertain = [e for e in relevant if 0.0 < probabilities[e] < 1.0]

    # The source is active in every world, so it contributes exactly 1; only
    # the other activated vertices are weighted by world probability.  Summing
    # the source's share world by world would let rounding in the world
    # probabilities push a spread below 1.
    expected = 0.0
    for assignment in product((False, True), repeat=len(uncertain)):
        world_probability = 1.0
        live: Set[int] = set(certain)
        for edge_id, is_live in zip(uncertain, assignment):
            p = probabilities[edge_id]
            if is_live:
                world_probability *= p
                live.add(edge_id)
            else:
                world_probability *= 1.0 - p
        if world_probability == 0.0:
            continue
        activated = forward_reachable(graph, source, lambda e: e in live)
        expected += world_probability * (len(activated) - 1)
    return 1.0 + expected


def exact_activation_probabilities(
    graph: TopicSocialGraph,
    source: int,
    edge_probabilities: Sequence[float],
) -> np.ndarray:
    """Exact per-vertex activation probability from ``source`` (same enumeration)."""
    probabilities = np.asarray(edge_probabilities, dtype=float)
    relevant = _relevant_edges(graph, source, probabilities)
    if len(relevant) > _MAX_EXACT_EDGES:
        raise EstimationError(
            f"exact activation probabilities require enumerating 2^{len(relevant)} worlds; "
            f"limit is 2^{_MAX_EXACT_EDGES}"
        )
    certain = [e for e in relevant if probabilities[e] >= 1.0]
    uncertain = [e for e in relevant if 0.0 < probabilities[e] < 1.0]

    activation = np.zeros(graph.num_vertices)
    for assignment in product((False, True), repeat=len(uncertain)):
        world_probability = 1.0
        live: Set[int] = set(certain)
        for edge_id, is_live in zip(uncertain, assignment):
            p = probabilities[edge_id]
            if is_live:
                world_probability *= p
                live.add(edge_id)
            else:
                world_probability *= 1.0 - p
        if world_probability == 0.0:
            continue
        activated = forward_reachable(graph, source, lambda e: e in live)
        for vertex in activated:
            activation[vertex] += world_probability
    activation[source] = 1.0
    return activation


def exact_best_tag_set(
    graph: TopicSocialGraph,
    model,
    source: int,
    k: int,
) -> tuple:
    """Brute-force optimal tag set by exact influence evaluation of every candidate.

    Only usable on tiny instances; serves as the ground truth for end-to-end
    engine tests.  Returns ``(best_tag_ids, best_spread)``.
    """
    best_tags: tuple = ()
    best_spread = -1.0
    for candidate in model.candidate_tag_sets(k):
        probabilities = model.edge_probabilities(graph, candidate)
        spread = exact_influence_spread(graph, source, probabilities)
        if spread > best_spread + 1e-12:
            best_spread = spread
            best_tags = tuple(candidate)
    return best_tags, best_spread
