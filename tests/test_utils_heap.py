"""Tests for repro.utils.heap."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils.heap import BatchedEventQueue, LazyEdgeHeap, MaxHeap, MinHeap, concat_ranges
from repro.utils.rng import RandomSource


def make_queue(out_indptr, out_targets, world_probabilities, seed=1):
    """A queue over explicit CSR arrays with edge ids 0..E-1 in slot order."""
    out_indptr = np.asarray(out_indptr, dtype=np.int64)
    out_targets = np.asarray(out_targets, dtype=np.int64)
    edge_ids = np.arange(len(out_targets), dtype=np.int64)
    return BatchedEventQueue(
        out_indptr,
        out_targets,
        edge_ids,
        np.asarray(world_probabilities, dtype=float),
        RandomSource(seed),
    )


def test_min_heap_orders_by_priority():
    heap = MinHeap()
    heap.push(3.0, "c")
    heap.push(1.0, "a")
    heap.push(2.0, "b")
    assert heap.pop() == (1.0, "a")
    assert heap.pop() == (2.0, "b")
    assert heap.pop() == (3.0, "c")


def test_min_heap_handles_equal_priorities_with_uncomparable_items():
    heap = MinHeap()
    heap.push(1.0, {"x": 1})
    heap.push(1.0, {"y": 2})
    first_priority, _ = heap.pop()
    second_priority, _ = heap.pop()
    assert first_priority == second_priority == 1.0


def test_min_heap_peek_does_not_remove():
    heap = MinHeap()
    heap.push(5.0, "x")
    assert heap.peek() == (5.0, "x")
    assert len(heap) == 1


def test_max_heap_orders_descending():
    heap = MaxHeap()
    for value in (1.0, 5.0, 3.0):
        heap.push(value, value)
    assert heap.pop()[0] == 5.0
    assert heap.peek()[0] == 3.0
    assert len(heap) == 2


def test_min_heap_iteration_yields_priority_order_without_mutation():
    heap = MinHeap()
    for priority, item in ((4.0, "d"), (1.0, "a"), (3.0, "c"), (2.0, "b")):
        heap.push(priority, item)
    # Iteration is sorted by priority, not the internal heapq array layout.
    assert list(heap) == [(1.0, "a"), (2.0, "b"), (3.0, "c"), (4.0, "d")]
    # Iterating twice gives the same answer: the heap itself is untouched.
    assert list(heap) == [(1.0, "a"), (2.0, "b"), (3.0, "c"), (4.0, "d")]
    assert len(heap) == 4
    assert heap.pop() == (1.0, "a")


def test_min_heap_iteration_ties_resolve_by_insertion_without_comparing_items():
    heap = MinHeap()
    first, second = {"x": 1}, {"y": 2}  # dicts are not orderable
    heap.push(1.0, first)
    heap.push(1.0, second)
    assert [item for _, item in heap] == [first, second]


def test_max_heap_iteration_yields_descending_priority():
    heap = MaxHeap()
    for priority in (1.0, 5.0, 3.0):
        heap.push(priority, priority)
    assert [priority for priority, _ in heap] == [5.0, 3.0, 1.0]
    assert len(heap) == 3


def test_lazy_edge_heap_drops_zero_probability_edges():
    rng = RandomSource(1)
    heap = LazyEdgeHeap([1, 2, 3], [0.5, 0.0, 0.3], rng.geometric)
    assert heap.pending() == 2


def test_lazy_edge_heap_probability_one_fires_every_visit():
    rng = RandomSource(1)
    heap = LazyEdgeHeap([7], [1.0], rng.geometric)
    for _ in range(5):
        assert heap.visit() == [7]


def test_lazy_edge_heap_fire_frequency_matches_probability():
    rng = RandomSource(3)
    probability = 0.25
    heap = LazyEdgeHeap([0], [probability], rng.geometric)
    visits = 20000
    fires = sum(len(heap.visit()) for _ in range(visits))
    assert abs(fires / visits - probability) < 0.02


def test_lazy_edge_heap_next_fire_none_when_empty():
    rng = RandomSource(1)
    heap = LazyEdgeHeap([], [], rng.geometric)
    assert heap.next_fire() is None
    assert heap.visit() == []


def test_lazy_edge_heap_multiple_edges_independent_rates():
    rng = RandomSource(11)
    heap = LazyEdgeHeap([0, 1], [0.5, 0.1], rng.geometric)
    counts = {0: 0, 1: 0}
    for _ in range(10000):
        for neighbor in heap.visit():
            counts[neighbor] += 1
    assert abs(counts[0] / 10000 - 0.5) < 0.03
    assert abs(counts[1] / 10000 - 0.1) < 0.02


# --------------------------------------------------------- BatchedEventQueue


def test_concat_ranges_matches_python_ranges():
    starts = np.array([5, 0, 9], dtype=np.int64)
    counts = np.array([2, 0, 3], dtype=np.int64)
    expected = [5, 6, 9, 10, 11]
    assert concat_ranges(starts, counts).tolist() == expected
    assert concat_ranges(np.empty(0, np.int64), np.empty(0, np.int64)).tolist() == []


def test_batched_queue_drops_zero_probability_edges():
    # Vertex 0 has three out-edges; the middle one has probability zero.
    queue = make_queue([0, 3, 3, 3, 3], [1, 2, 3], [[0.5, 0.0, 0.3]])
    queue.advance(np.zeros(1, np.int64), np.zeros(1, np.int64), np.zeros(1, np.int64))
    assert queue.pending(0, 0) == 2
    assert int(queue.scheduled_events[0]) == 2
    fires = queue.next_fires(0, 0)
    assert np.all(fires >= 1)


def test_batched_queue_probability_one_fires_for_every_instance():
    queue = make_queue([0, 1, 1], [1], [[1.0]])
    for round_index in range(3):
        instances = np.arange(4, dtype=np.int64) + 10 * round_index
        fired_instances, fired_targets = queue.advance(
            np.zeros(4, np.int64), instances, np.zeros(4, np.int64)
        )
        # Every instance's visit fires the edge, attributed in ascending order.
        assert fired_instances.tolist() == sorted(instances.tolist())
        assert fired_targets.tolist() == [1, 1, 1, 1]
    assert queue.visit_count(0, 0) == 12
    assert int(queue.fired_events[0]) == 12
    assert queue.edge_visits() == 1 + 12  # one scheduled event + twelve fires


def test_batched_queue_worlds_are_isolated():
    # World 0 never fires, world 1 always fires.
    queue = make_queue([0, 1, 1], [1], [[0.0], [1.0]])
    worlds = np.array([0, 0, 1, 1], dtype=np.int64)
    instances = np.array([0, 1, 0, 1], dtype=np.int64)
    vertices = np.zeros(4, dtype=np.int64)
    fired_instances, fired_targets = queue.advance(worlds, instances, vertices)
    assert fired_instances.tolist() == [0, 1]
    assert fired_targets.tolist() == [1, 1]
    assert queue.pending(0, 0) == 0  # zero-probability edge never scheduled
    assert queue.pending(1, 0) == 1
    assert queue.edge_visits(0) == 0
    assert queue.edge_visits(1) == 1 + 2
    assert queue.visit_count(0, 0) == 2 and queue.visit_count(1, 0) == 2


def test_batched_queue_fire_rate_matches_probability():
    probability = 0.25
    queue = make_queue([0, 1, 1], [1], [[probability]], seed=3)
    visits = 20000
    fires = 0
    chunk = 50
    for round_index in range(visits // chunk):
        fired, _ = queue.advance(
            np.zeros(chunk, np.int64),
            np.arange(chunk, dtype=np.int64),
            np.zeros(chunk, np.int64),
        )
        fires += fired.size
    assert abs(fires / visits - probability) < 0.02


def test_batched_queue_next_fires_stay_ahead_of_visits():
    queue = make_queue([0, 2, 2, 2], [1, 2], [[0.4, 0.7]], seed=9)
    for _ in range(20):
        queue.advance(np.zeros(3, np.int64), np.arange(3, dtype=np.int64), np.zeros(3, np.int64))
        # After a round every scheduled fire lies strictly beyond the visits
        # consumed so far (fires inside the window were resolved and re-drawn).
        assert np.all(queue.next_fires(0, 0) > queue.visit_count(0, 0))


def test_batched_queue_is_deterministic_per_seed():
    outcomes = []
    for _ in range(2):
        queue = make_queue([0, 2, 2, 2], [1, 2], [[0.3, 0.6]], seed=17)
        trace = []
        for _ in range(5):
            fired_instances, fired_targets = queue.advance(
                np.zeros(6, np.int64), np.arange(6, dtype=np.int64), np.zeros(6, np.int64)
            )
            trace.append((fired_instances.tolist(), fired_targets.tolist()))
        outcomes.append(trace)
    assert outcomes[0] == outcomes[1]


def test_batched_queue_empty_round_is_a_noop():
    queue = make_queue([0, 1, 1], [1], [[0.5]])
    fired_instances, fired_targets = queue.advance(
        np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0, np.int64)
    )
    assert fired_instances.size == 0 and fired_targets.size == 0
    assert queue.visit_count(0, 0) == 0
    assert queue.pending(0, 0) == 0  # untouched vertices are never scheduled


# ----------------------------------------- frontier round against a reference
#
# ReferenceQueue is the event queue's round as it stood before the round was
# trimmed to fewer numpy calls per BFS level (the code of __init__,
# _append_events, _redraw, _ensure_scheduled and advance is copied verbatim;
# docstrings and most comments are dropped).  Its schedules draw their first fires through
# ReferenceSource.geometric_array, the inverse-CDF formula of that time.  The
# queue must reproduce it bit for bit: same fires, same schedules, same
# counters and the same generator state after every round.


class ReferenceSource(RandomSource):
    """A RandomSource whose ``geometric_array`` is the earlier formula."""

    def geometric_array(self, probabilities):
        probs = np.asarray(probabilities, dtype=float)
        draws = np.empty(probs.shape, dtype=np.int64)
        ones = probs >= 1.0
        zeros = probs <= 0.0
        middle = ~(ones | zeros)
        draws[ones] = 1
        draws[zeros] = np.iinfo(np.int64).max
        count = int(np.count_nonzero(middle))
        if count:
            uniforms = self._generator.random(count)
            sampled = np.ceil(np.log1p(-uniforms) / np.log1p(-probs[middle]))
            sampled = np.where(np.isfinite(sampled), sampled, float(2**62))
            draws[middle] = np.clip(sampled, 1.0, float(2**62)).astype(np.int64)
        return draws


class ReferenceQueue:
    """The reference frontier round (see the comment above)."""

    def __init__(
        self,
        out_indptr: np.ndarray,
        out_targets: np.ndarray,
        out_edge_ids: np.ndarray,
        world_probabilities: np.ndarray,
        rng,
    ) -> None:
        self._indptr = np.asarray(out_indptr, dtype=np.int64)
        self._targets = np.asarray(out_targets, dtype=np.int64)
        self._edge_ids = np.asarray(out_edge_ids, dtype=np.int64)
        probs = np.atleast_2d(np.asarray(world_probabilities, dtype=float))
        self._world_probs = probs
        self.num_worlds = int(probs.shape[0])
        self.num_vertices = int(len(self._indptr) - 1)
        self._rng = rng
        size = self.num_worlds * self.num_vertices
        self._sched_start = np.full(size, -1, dtype=np.int64)
        self._sched_count = np.zeros(size, dtype=np.int64)
        self._visits = np.zeros(size, dtype=np.int64)
        self._ev_fire = np.empty(64, dtype=np.int64)
        self._ev_target = np.empty(64, dtype=np.int64)
        self._ev_prob = np.empty(64, dtype=float)
        self._ev_log1mp = np.empty(64, dtype=float)
        self._ev_len = 0
        self.scheduled_events = np.zeros(self.num_worlds, dtype=np.int64)
        self.fired_events = np.zeros(self.num_worlds, dtype=np.int64)

    def _append_events(self, fires: np.ndarray, targets: np.ndarray, probs: np.ndarray) -> int:
        base = self._ev_len
        needed = base + len(fires)
        if needed > len(self._ev_fire):
            capacity = max(needed, 2 * len(self._ev_fire))
            for name in ("_ev_fire", "_ev_target", "_ev_prob", "_ev_log1mp"):
                old = getattr(self, name)
                grown = np.empty(capacity, dtype=old.dtype)
                grown[:base] = old[:base]
                setattr(self, name, grown)
        self._ev_fire[base:needed] = fires
        self._ev_target[base:needed] = targets
        self._ev_prob[base:needed] = probs
        certain = probs >= 1.0
        self._ev_log1mp[base:needed] = np.where(
            certain, -np.inf, np.log1p(-np.where(certain, 0.0, probs))
        )
        self._ev_len = needed
        return base

    def _redraw(self, slots: np.ndarray) -> np.ndarray:
        uniforms = self._rng.generator.random(len(slots))
        draws = np.ceil(np.log1p(-uniforms) / self._ev_log1mp[slots])
        draws = np.where(np.isfinite(draws), draws, float(2**62))
        return np.clip(draws, 1.0, float(2**62)).astype(np.int64)

    def _ensure_scheduled(self, keys: np.ndarray) -> None:
        new = keys[self._sched_start[keys] < 0]
        if not new.size:
            return
        vertices = new % self.num_vertices
        worlds = new // self.num_vertices
        starts = self._indptr[vertices]
        counts = self._indptr[vertices + 1] - starts
        positions = concat_ranges(starts, counts)
        owner = np.repeat(np.arange(len(new), dtype=np.int64), counts)
        probs = self._world_probs[worlds[owner], self._edge_ids[positions]]
        positive = probs > 0.0
        positive_counts = np.bincount(owner[positive], minlength=len(new)).astype(np.int64)
        probs = probs[positive]
        fires = self._rng.geometric_array(probs)
        # Offset by the current visit count so late-initialized schedules stay
        # correct (first activation always has visits == 0, but stay general).
        fires = fires + np.repeat(self._visits[new], positive_counts)
        base = self._append_events(fires, self._targets[positions][positive], probs)
        run_starts = np.zeros(len(new), dtype=np.int64)
        np.cumsum(positive_counts[:-1], out=run_starts[1:])
        self._sched_start[new] = base + run_starts
        self._sched_count[new] = positive_counts
        np.add.at(self.scheduled_events, worlds, positive_counts)

    def advance(self, world_ids, instance_ids, vertex_ids):
        world_ids = np.asarray(world_ids, dtype=np.int64)
        instance_ids = np.asarray(instance_ids, dtype=np.int64)
        vertex_ids = np.asarray(vertex_ids, dtype=np.int64)
        empty = np.empty(0, dtype=np.int64)
        if not world_ids.size:
            return empty, empty
        if self.num_worlds == 1:
            keys = vertex_ids
        else:
            keys = world_ids * self.num_vertices + vertex_ids
        order = np.lexsort((instance_ids, keys))
        sorted_instances = instance_ids[order]
        sorted_keys = keys[order]
        # Group boundaries of the (now sorted) keys; np.unique would sort again.
        group_first = np.flatnonzero(
            np.concatenate(([True], sorted_keys[1:] != sorted_keys[:-1]))
        )
        group_keys = sorted_keys[group_first]
        group_mult = np.diff(np.append(group_first, len(sorted_keys)))
        self._ensure_scheduled(group_keys)
        visits_before = self._visits[group_keys]
        window_end = visits_before + group_mult
        sched_counts = self._sched_count[group_keys]
        slots = concat_ranges(self._sched_start[group_keys], sched_counts)
        groups = np.repeat(np.arange(len(group_keys), dtype=np.int64), sched_counts)
        live = self._ev_fire[slots] <= window_end[groups]
        slots, groups = slots[live], groups[live]
        self._visits[group_keys] = window_end
        if not slots.size:
            return empty, empty
        first_fire = self._ev_fire[slots]
        probabilities = self._ev_prob[slots]
        # Bernoulli trials for the window visits after each slot's first fire.
        remaining = window_end[groups] - first_fire
        trial_visits = concat_ranges(first_fire + 1, remaining)
        trial_owner = np.repeat(np.arange(len(slots), dtype=np.int64), remaining)
        hits = self._rng.uniforms(len(trial_owner)) < probabilities[trial_owner]
        fire_times = np.concatenate([first_fire, trial_visits[hits]])
        fire_owner = np.concatenate(
            [np.arange(len(slots), dtype=np.int64), trial_owner[hits]]
        )
        # fire_times lie in (visits, visits + mult]; attribute each fire to the
        # (fire_time - visits - 1)-th instance of its group, instances ordered
        # by ascending id (deterministic, and exchangeable by symmetry).
        fire_groups = groups[fire_owner]
        offsets = fire_times - visits_before[fire_groups] - 1
        fired_instance = sorted_instances[group_first[fire_groups] + offsets]
        fired_target = self._ev_target[slots][fire_owner]
        self.fired_events += np.bincount(
            group_keys[fire_groups] // self.num_vertices, minlength=self.num_worlds
        )
        # One batched redraw past the window (memoryless restart).
        self._ev_fire[slots] = window_end[groups] + self._redraw(slots)
        return fired_instance, fired_target

    def next_fires(self, world: int, vertex: int) -> np.ndarray:
        key = world * self.num_vertices + vertex
        start = int(self._sched_start[key])
        if start < 0:
            return np.empty(0, dtype=np.int64)
        return self._ev_fire[start : start + int(self._sched_count[key])].copy()


# Probabilities that exercise every branch of the geometric draws: never
# (0), certain (1.0, no uniform at creation), tiny (the quotient overflows
# and clamps to 2**62) and ordinary values that fire inside a visit window.
PROBABILITIES = st.sampled_from([0.0, 1.0, 1e-300, 5e-324, 0.05, 0.3, 0.6, 0.9])


@st.composite
def rounds_on_a_graph(draw):
    """A random CSR graph, 1-4 worlds of edge probabilities, and rounds.

    Each round activates distinct ``(world, vertex, instance)`` triples in a
    shuffled order, so ``(world, vertex)`` pairs repeat with instance ids
    that arrive unsorted.
    """
    num_vertices = draw(st.integers(1, 5))
    degrees = draw(st.lists(st.integers(0, 4), min_size=num_vertices, max_size=num_vertices))
    indptr = np.concatenate(([0], np.cumsum(degrees))).astype(np.int64)
    num_edges = int(indptr[-1])
    targets = draw(
        st.lists(st.integers(0, num_vertices - 1), min_size=num_edges, max_size=num_edges)
    )
    edge_ids = draw(st.permutations(range(num_edges)))
    num_worlds = draw(st.integers(1, 4))
    probabilities = [
        draw(st.lists(PROBABILITIES, min_size=num_edges, max_size=num_edges))
        for _ in range(num_worlds)
    ]
    triples = st.tuples(
        st.integers(0, num_worlds - 1), st.integers(0, num_vertices - 1), st.integers(0, 12)
    )
    rounds = draw(
        st.lists(st.lists(triples, max_size=24, unique=True), min_size=1, max_size=5)
    )
    rounds = [draw(st.permutations(activations)) for activations in rounds]
    csr = (indptr, np.asarray(targets, dtype=np.int64), np.asarray(edge_ids, dtype=np.int64))
    probabilities = np.asarray(probabilities, dtype=float).reshape(num_worlds, num_edges)
    return csr, probabilities, rounds


@pytest.mark.filterwarnings("ignore:overflow encountered")
@settings(max_examples=300, deadline=None)
@given(case=rounds_on_a_graph(), seed=st.integers(0, 2**32 - 1))
def test_frontier_round_matches_the_reference_bit_for_bit(case, seed):
    (indptr, targets, edge_ids), probabilities, rounds = case
    queue = BatchedEventQueue(indptr, targets, edge_ids, probabilities, RandomSource(seed))
    reference = ReferenceQueue(indptr, targets, edge_ids, probabilities, ReferenceSource(seed))
    num_worlds, num_vertices = probabilities.shape[0], len(indptr) - 1
    for activations in rounds:
        worlds, vertices, instances = np.asarray(activations, dtype=np.int64).reshape(-1, 3).T
        fired = queue.advance(worlds, instances, vertices)
        expected = reference.advance(worlds, instances, vertices)
        assert fired[0].tolist() == expected[0].tolist()
        assert fired[1].tolist() == expected[1].tolist()
        assert queue.scheduled_events.tolist() == reference.scheduled_events.tolist()
        assert queue.fired_events.tolist() == reference.fired_events.tolist()
        for world in range(num_worlds):
            for vertex in range(num_vertices):
                key = world * num_vertices + vertex
                assert queue.visit_count(world, vertex) == int(reference._visits[key])
                assert queue.pending(world, vertex) == int(reference._sched_count[key])
                assert queue.next_fires(world, vertex).tolist() == (
                    reference.next_fires(world, vertex).tolist()
                )
        assert queue._rng.generator.bit_generator.state == (
            reference._rng.generator.bit_generator.state
        )
