"""The batched RR-Graph matching kernel against small per-graph references.

:meth:`RRBlock.reach_many` verifies many RR-Graphs in one level-synchronous
BFS; :class:`_UserFilterStructures` scans flat posting arrays.  Both must
reproduce, exactly, what one BFS per graph and one break-counting scan per
inverted list would report: the same hit set, the same summed
``edges_checked``, the same candidate set (in the same iteration order) and
the same ``postings_scanned``.  The references below are written per graph in
plain Python so they stay obviously correct.
"""

from dataclasses import replace

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.graph.generators import random_topic_graph
from repro.index.delayed import DelayedIndexEstimator, DelayedMaterializationIndex
from repro.index.pruning import PrunedIndexEstimator
from repro.index.rr_index import RRGraphIndex
from repro.topics.model import TagTopicModel
from repro.utils.rng import spawn_rng

from rr_views import RRGraphView, block_of, graph_views


# ------------------------------------------------------------------ references
def reference_reach(rr_graph, user, probabilities):
    """One level-synchronous BFS over one RR-Graph: ``(reachable, checked)``."""
    if user == rr_graph.root:
        return True, 0
    if user not in rr_graph.vertices:
        return False, 0
    visited, frontier, checked = {user}, {user}, 0
    while frontier:
        slots = [i for i, source in enumerate(rr_graph.edge_sources) if source in frontier]
        if not slots:
            break
        checked += len(slots)
        reached = set()
        for i in slots:
            probability = probabilities[rr_graph.edge_ids[i]]
            if probability > 0.0 and probability >= rr_graph.edge_thresholds[i]:
                reached.add(rr_graph.edge_targets[i])
        reached -= visited
        if rr_graph.root in reached:
            return True, checked
        visited |= reached
        frontier = reached
    return False, checked


def reference_cut(rr_graph, user, maxima):
    """The chosen cut entries (Example 7), or ``None`` when ``user`` is the root."""
    if user == rr_graph.root:
        return None
    edges = list(zip(rr_graph.edge_ids, rr_graph.edge_sources, rr_graph.edge_targets, rr_graph.edge_thresholds))
    reach, frontier = {user}, [user]
    while frontier:
        vertex = frontier.pop()
        for _, source, target, _ in edges:
            if source == vertex and target not in reach:
                reach.add(target)
                frontier.append(target)
    source_cut = [(e, c) for e, s, _, c in edges if s == user]
    target_cut = [(e, c) for e, s, t, c in edges if t == rr_graph.root and s in reach]

    def dead(entries):
        probability = 1.0
        for edge_id, threshold in entries:
            if maxima[edge_id] > 0.0:
                probability *= min(1.0, threshold / maxima[edge_id])
        return probability

    return source_cut if dead(source_cut) >= dead(target_cut) else target_cut


def reference_filter(rr_graphs, graph_ids, user, probabilities, maxima):
    """Dict-of-lists inverted index with a break-counting scan."""
    inverted, always = {}, set()
    for rr_index in graph_ids:
        cut = reference_cut(rr_graphs[rr_index], user, maxima)
        if cut is None:
            always.add(rr_index)
            continue
        for edge_id, threshold in cut:
            inverted.setdefault(edge_id, []).append((threshold, rr_index))
    for postings in inverted.values():
        postings.sort()
    candidates, scanned = set(always), 0
    for edge_id, postings in inverted.items():
        probability = probabilities[edge_id]
        if probability <= 0.0:
            continue
        for threshold, rr_index in postings:
            scanned += 1
            if threshold > probability:
                break
            candidates.add(rr_index)
    return candidates, scanned


# ------------------------------------------------------------------ instances
@st.composite
def indexed_graphs(draw):
    num_vertices = draw(st.integers(3, 14))
    graph = random_topic_graph(
        num_vertices,
        2,
        edge_probability=draw(st.sampled_from([0.15, 0.3, 0.5])),
        base_probability=draw(st.sampled_from([0.4, 0.8])),
        seed=draw(st.integers(0, 10_000)),
    )
    index = RRGraphIndex(graph, draw(st.integers(1, 25)), seed=draw(st.integers(0, 10_000))).build()
    return graph, index


def draw_probabilities(data, graph, index):
    """A probability vector with zeros, random values and exact ``p == c`` ties."""
    rng = np.random.default_rng(data.draw(st.integers(0, 10_000)))
    probabilities = graph.max_edge_probabilities() * rng.uniform(0.0, 1.0, graph.num_edges)
    probabilities[rng.uniform(size=graph.num_edges) < 0.2] = 0.0
    for rr_graph in graph_views(index.to_arrays()):
        for edge_id, threshold in zip(rr_graph.edge_ids, rr_graph.edge_thresholds):
            if rng.uniform() < 0.15:
                probabilities[edge_id] = threshold
    return probabilities


# ----------------------------------------------------------------- properties
@given(instance=indexed_graphs(), data=st.data())
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_reach_many_matches_per_graph_reference(instance, data):
    graph, index = instance
    probabilities = draw_probabilities(data, graph, index)
    block = index.block()
    rr_graphs = graph_views(index.to_arrays())
    for user in range(graph.num_vertices + 1):  # includes one absent vertex
        graph_ids = data.draw(st.lists(st.sampled_from(range(index.num_samples)), unique=True))
        hits, checked = block.reach_many(user, graph_ids, probabilities)
        expected = [reference_reach(rr_graphs[g], user, probabilities) for g in graph_ids]
        assert hits.tolist() == [reachable for reachable, _ in expected]
        assert checked == sum(count for _, count in expected)


@given(instance=indexed_graphs(), data=st.data())
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_flat_filter_matches_break_counting_scan(instance, data):
    graph, index = instance
    model = TagTopicModel(np.array([[0.7, 0.3], [0.2, 0.8]]), tags=["a", "b"])
    estimator = PrunedIndexEstimator(graph, model, index)
    probabilities = draw_probabilities(data, graph, index)
    maxima = graph.max_edge_probabilities()
    rr_graphs = graph_views(index.to_arrays())
    for user in sorted(index.containment):
        structures = estimator._structures_for(user)
        _, graphs, scanned = structures.scan(probabilities[None])
        candidates, scanned = structures.candidate_set(graphs), int(scanned[0])
        expected, expected_scanned = reference_filter(
            rr_graphs, index.graphs_containing(user), user, probabilities, maxima
        )
        assert list(candidates) == list(expected)  # same members, same iteration order
        assert scanned == expected_scanned


# ----------------------------------------------------------------- edge cases
def line_rr_graph():
    """0 -> 1 -> 2 with root 2; edge ids 0 and 1."""
    return RRGraphView(2, {0, 1, 2}, [0, 1], [0, 1], [1, 2], [0.5, 0.5])


def test_reach_many_edge_cases():
    edgeless = RRGraphView(root=4, vertices={3, 4})
    block = block_of([line_rr_graph(), edgeless])
    live = np.array([1.0, 1.0])
    # user == root: a hit with nothing checked.
    hits, checked = block.reach_many(2, [0], live)
    assert hits.tolist() == [True] and checked == 0
    # user absent (and out of the block's vertex range): a miss with nothing checked.
    assert block.reach_many(7, [0, 1], live)[0].tolist() == [False, False]
    assert block.reach_many(99, [0, 1], live)[1] == 0
    # a graph with no edges: a miss with nothing checked.
    hits, checked = block.reach_many(3, [1], live)
    assert hits.tolist() == [False] and checked == 0
    # an empty candidate list.
    hits, checked = block.reach_many(0, [], live)
    assert hits.size == 0 and checked == 0
    # a two-level path, then a dead second edge.
    assert block.reach_many(0, [0, 1], live)[0].tolist() == [True, False]
    assert block.reach_many(0, [0], live)[1] == 2
    hits, checked = block.reach_many(0, [0], np.array([1.0, 0.4]))
    assert hits.tolist() == [False] and checked == 2
    # an empty block.
    empty = block_of([])
    assert empty.reach_many(0, [], live)[1] == 0


def test_delaymat_weighted_hit_sum_matches_reference():
    graph = random_topic_graph(12, 2, edge_probability=0.3, base_probability=0.7, seed=3)
    model = TagTopicModel(np.array([[0.7, 0.3], [0.2, 0.8]]), tags=["a", "b"])
    index = DelayedMaterializationIndex(graph, 40, seed=1).build()
    probabilities = graph.max_edge_probabilities() * 0.6
    users = [u for u in sorted(index.containment_counts) if index.containment_count(u)][:5]
    for user in users:
        recovered = graph_views(*index.recover_for_user(user, spawn_rng(5)))
        unpruned = DelayedIndexEstimator(graph, model, index, use_pruning=False, seed=5)
        pruned = DelayedIndexEstimator(graph, model, index, use_pruning=True, seed=5)
        estimate = unpruned.estimate_with_probabilities(user, probabilities)
        hit_weight, checked = 0.0, 0
        for rr_graph in recovered:
            reachable, count = reference_reach(rr_graph, user, probabilities)
            checked += count
            if reachable:
                hit_weight += rr_graph.weight
        total = float(sum(rr.weight for rr in recovered))
        expected = len(recovered) / index.num_samples * (hit_weight / total) * graph.num_vertices
        assert estimate.value == expected
        assert estimate.edges_visited == checked
        # Pruning never drops a reachable graph, so the value is unchanged.
        assert pruned.estimate_with_probabilities(user, probabilities).value == expected


# ------------------------------------------------------- the (row, graph) kernel
def with_zero_thresholds(rr_graphs, rng):
    """Copies of ``rr_graphs`` with some ``c(e)`` set to exactly 0."""
    copies = []
    for rr_graph in rr_graphs:
        thresholds = [0.0 if rng.uniform() < 0.25 else c for c in rr_graph.edge_thresholds]
        copies.append(replace(rr_graph, edge_thresholds=thresholds))
    return copies


@given(instance=indexed_graphs(), data=st.data())
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_reach_pairs_matches_per_graph_reference(instance, data):
    graph, index = instance
    rng = np.random.default_rng(data.draw(st.integers(0, 10_000)))
    rr_graphs = with_zero_thresholds(graph_views(index.to_arrays()), rng)
    block = block_of(rr_graphs)
    # Few rows, or more rows than one 64-bit word holds.
    num_rows = data.draw(st.one_of(st.integers(1, 4), st.integers(65, 70)))
    rows = np.stack([draw_probabilities(data, graph, index) for _ in range(num_rows)])
    rows[0] = 0.0  # an all-zero row: only c(e) = 0 edges could matter, and they stay dead
    roots = [rr.root for rr in rr_graphs]
    # A root, a vertex outside the graph and a few others.
    others = data.draw(st.lists(st.integers(0, graph.num_vertices - 1), max_size=3))
    for user in sorted({roots[0], graph.num_vertices, *others}):
        # Each row lists its own graphs, so a graph may appear for some rows only.
        listed = [
            data.draw(st.lists(st.sampled_from(range(len(rr_graphs))), unique=True, max_size=6))
            if row < 4
            else rng.permutation(len(rr_graphs))[: rng.integers(0, len(rr_graphs) + 1)].tolist()
            for row in range(num_rows)
        ]
        pair_rows = np.repeat(np.arange(num_rows), [len(graphs) for graphs in listed])
        pair_graphs = np.array([g for graphs in listed for g in graphs], dtype=np.int64)
        hits, checked = block.reach_pairs(user, rows, pair_rows, pair_graphs)
        expected = [
            reference_reach(rr_graphs[g], user, rows[r]) for r, g in zip(pair_rows, pair_graphs)
        ]
        assert hits.tolist() == [reachable for reachable, _ in expected]
        per_row = np.zeros(num_rows, dtype=np.int64)
        for r, (_, count) in zip(pair_rows, expected):
            per_row[r] += count
        assert checked.tolist() == per_row.tolist()


def test_reach_pairs_edge_cases():
    # 0 -> 1 -> 2 with root 2; edge 0 has c(e) = 0, edge 1 has c(e) = 0.5.
    line = RRGraphView(2, {0, 1, 2}, [0, 1], [0, 1], [1, 2], [0.0, 0.5])
    block = block_of([line, RRGraphView(root=4, vertices={3, 4})])
    rows = np.array([[1.0, 1.0], [0.0, 1.0], [0.3, 0.6], [0.3, 0.4]])
    pairs = np.array([0, 1, 2, 3]), np.zeros(4, dtype=np.int64)
    hits, checked = block.reach_pairs(0, rows, *pairs)
    # A c(e) = 0 edge is live only while p(e|W) > 0; a dead second edge still counts.
    assert hits.tolist() == [True, False, True, False]
    assert checked.tolist() == [2, 1, 2, 2]
    # user == root: a hit with nothing checked, in every row that lists it.
    hits, checked = block.reach_pairs(2, rows, np.array([1, 3]), np.array([0, 0]))
    assert hits.tolist() == [True, True] and checked.tolist() == [0, 0, 0, 0]
    # A user who is no member (or out of the vertex range): misses, nothing checked.
    for user in (3, 99, -1):
        hits, checked = block.reach_pairs(user, rows, np.array([0, 2]), np.array([0, 0]))
        assert hits.tolist() == [False, False] and checked.tolist() == [0, 0, 0, 0]
    # A graph without edges, and the empty pair list.
    hits, checked = block.reach_pairs(3, rows, np.array([0]), np.array([1]))
    assert hits.tolist() == [False] and checked.tolist() == [0, 0, 0, 0]
    hits, checked = block.reach_pairs(0, rows, np.empty(0, np.int64), np.empty(0, np.int64))
    assert hits.size == 0 and checked.tolist() == [0, 0, 0, 0]
    # One row through reach_many gives the same answers.
    assert block.reach_many(0, [0], rows[2])[0].tolist() == [True]
    assert block.reach_many(0, [0], rows[2])[1] == 2
