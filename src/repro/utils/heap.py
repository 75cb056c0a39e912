"""Heap and event-queue data structures used by the samplers and the explorer.

Four structures are provided:

* :class:`MinHeap` / :class:`MaxHeap` -- thin, allocation-friendly wrappers over
  ``heapq`` with a stable tie-breaking counter so heterogeneous payloads never
  need to be comparable.
* :class:`LazyEdgeHeap` -- the per-vertex heap used by lazy propagation
  sampling (Algorithm 2 of the paper).  Each entry is ``(next_fire, neighbor)``
  where ``next_fire`` is the visit count of the owning vertex at which the edge
  to ``neighbor`` becomes live; geometric re-draws keep the schedule rolling.
* :class:`BatchedEventQueue` -- the array-backed multi-instance generalization
  of :class:`LazyEdgeHeap`: one flat numpy event store holds the lazy schedules
  of every (world, vertex) pair of an estimation, and one :meth:`advance` call
  consumes a whole frontier round of *all* sample instances at once, with
  rescheduling done as batched geometric redraws instead of one Python-level
  heap operation per event.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.utils.rng import draw_geometric, geometric_from_uniforms


class MinHeap:
    """A binary min-heap keyed by a float priority with stable ordering."""

    __slots__ = ("_entries", "_tiebreak")

    def __init__(self) -> None:
        self._entries: List[Tuple[float, int, Any]] = []
        self._tiebreak = itertools.count()

    def push(self, priority: float, item: Any) -> None:
        """Insert ``item`` with the given ``priority``."""
        heapq.heappush(self._entries, (priority, next(self._tiebreak), item))

    def pop(self) -> Tuple[float, Any]:
        """Remove and return the ``(priority, item)`` pair with lowest priority."""
        priority, _, item = heapq.heappop(self._entries)
        return priority, item

    def peek(self) -> Tuple[float, Any]:
        """Return, without removing, the lowest-priority entry."""
        priority, _, item = self._entries[0]
        return priority, item

    def __len__(self) -> int:
        return len(self._entries)

    def __bool__(self) -> bool:
        return bool(self._entries)

    def __iter__(self) -> Iterator[Tuple[float, Any]]:
        """Yield ``(priority, item)`` pairs in ascending priority order.

        Iteration sorts a snapshot of the entries (ties resolved by insertion
        order), so it never exposes the raw ``heapq`` array layout and never
        mutates the heap.  Items are not compared: the internal tie-break
        counter is unique per entry.
        """
        return ((priority, item) for priority, _, item in sorted(self._entries))


class MaxHeap:
    """A binary max-heap implemented by negating priorities of a min-heap.

    Used by best-effort exploration (Algorithm 5) to pop the partial tag set
    with the largest influence upper bound first.
    """

    __slots__ = ("_heap",)

    def __init__(self) -> None:
        self._heap = MinHeap()

    def push(self, priority: float, item: Any) -> None:
        """Insert ``item`` with the given ``priority``."""
        self._heap.push(-priority, item)

    def pop(self) -> Tuple[float, Any]:
        """Remove and return the ``(priority, item)`` pair with highest priority."""
        priority, item = self._heap.pop()
        return -priority, item

    def peek(self) -> Tuple[float, Any]:
        """Return, without removing, the highest-priority entry."""
        priority, item = self._heap.peek()
        return -priority, item

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)

    def __iter__(self) -> Iterator[Tuple[float, Any]]:
        """Yield ``(priority, item)`` pairs in descending priority order."""
        return ((-priority, item) for priority, item in self._heap)


class LazyEdgeHeap:
    """Per-vertex activation schedule for lazy propagation sampling.

    For a vertex ``v`` with out-neighbours ``n_1 .. n_d`` and edge activation
    probabilities ``p_1 .. p_d``, the heap stores, for each neighbour, the visit
    index of ``v`` at which the edge will next be live.  The visit indices are
    produced by summing i.i.d. geometric random variables, which Lemma 6 of the
    paper proves statistically identical to running an independent Bernoulli
    trial per visit.

    Parameters
    ----------
    neighbors:
        Target vertex identifiers for every out-edge of the owner.
    probabilities:
        Matching activation probabilities ``p(e|W)``.
    geometric:
        Callable ``p -> int`` drawing a geometric variate; injected so the heap
        stays deterministic under a seeded :class:`~repro.utils.rng.RandomSource`.
    initial_fires:
        Optional pre-drawn first fire visit per neighbor (same length as
        ``neighbors``).  The CSR fast path draws the whole schedule with one
        batched geometric call (:meth:`~repro.utils.rng.RandomSource.geometric_array`)
        instead of one Python call per edge; entries for zero-probability edges
        are ignored either way.
    """

    __slots__ = ("_heap", "_geometric", "visit_count")

    def __init__(
        self,
        neighbors: Sequence[int],
        probabilities: Sequence[float],
        geometric: Callable[[float], int],
        initial_fires: Optional[Sequence[int]] = None,
    ) -> None:
        self._geometric = geometric
        self.visit_count = 0
        entries: List[Tuple[int, int, int, float]] = []
        for order, (neighbor, probability) in enumerate(zip(neighbors, probabilities)):
            if probability <= 0.0:
                continue
            fire_at = initial_fires[order] if initial_fires is not None else geometric(probability)
            entries.append((int(fire_at), order, int(neighbor), float(probability)))
        heapq.heapify(entries)
        self._heap = entries

    def visit(self) -> List[int]:
        """Register one visit of the owning vertex and return fired neighbours.

        The owning vertex has now been visited ``visit_count + 1`` times; every
        scheduled edge whose ``next_fire`` equals the new visit count fires, is
        returned, and is re-scheduled ``geometric(p)`` visits into the future.
        """
        self.visit_count += 1
        fired: List[int] = []
        while self._heap and self._heap[0][0] <= self.visit_count:
            fire_at, order, neighbor, probability = heapq.heappop(self._heap)
            fired.append(neighbor)
            next_fire = fire_at + self._geometric(probability)
            heapq.heappush(self._heap, (next_fire, order, neighbor, probability))
        return fired

    def pending(self) -> int:
        """Number of edges still scheduled (edges with zero probability are dropped)."""
        return len(self._heap)

    def next_fire(self) -> Optional[int]:
        """The earliest scheduled visit index, or ``None`` if nothing is scheduled."""
        if not self._heap:
            return None
        return self._heap[0][0]


def concat_ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenated ``[starts[i], starts[i] + counts[i])`` ranges, vectorized.

    The building block for gathering every event slot owned by a batch of
    (world, vertex) schedules without a Python-level loop; the event-store
    analogue of :func:`repro.graph.csr.slice_positions`.
    """
    ends = counts.cumsum()
    total = int(ends[-1]) if len(ends) else 0
    if total == 0:
        return np.empty(0, dtype=np.int64)
    # Position i of run r is i - (ends[r] - counts[r]) + starts[r].  Array
    # methods, not the np.* wrappers: this runs once per BFS level.
    return np.arange(total, dtype=np.int64) + (starts - ends + counts).repeat(counts)


class BatchedEventQueue:
    """Array-backed lazy-propagation event schedule for many instances at once.

    :class:`LazyEdgeHeap` answers "which edges of vertex ``v`` fire on its next
    visit?" one Python heap operation at a time.  This queue answers the same
    question for a whole frontier *round* -- every ``(world, instance, vertex)``
    activation of one BFS level across all sample instances of an estimation --
    with a handful of numpy gathers and batched geometric redraws.

    Terminology
    -----------
    world:
        One edge-probability assignment ``p(e|W)``.  A plain estimation uses a
        single world; the best-effort explorer batches the upper-bound
        estimations of all candidate children of one expansion into one queue,
        one world per candidate tag set.
    instance:
        One sample instance (one possible-world draw of the cascade).  Caller
        supplied, only used to attribute fires within a round; ids must be
        unique per world within a round.
    visit:
        Per ``(world, vertex)`` counter of activations, shared across the
        instances of that world exactly like the ``theta_W`` instances of one
        estimation share a :class:`LazyEdgeHeap` -- this is where the Lemma 7
        savings come from.

    Event-store layout
    ------------------
    One flat append-only store with three parallel arrays::

        _ev_fire   : (num_events,) int64   absolute visit index of the next fire
        _ev_target : (num_events,) int64   edge target vertex
        _ev_prob   : (num_events,) float   activation probability p(e|W)

    plus ``_sched_end`` / ``_sched_count`` / ``_visits`` arrays indexed by
    ``world * num_vertices + vertex`` mapping each lazily-initialized schedule
    to its contiguous run of events.  Zero-probability edges are never stored
    (Lemma 5: only ``R_W(u)``'s positive-probability out-edges are scheduled).

    Statistical model
    -----------------
    Each stored event performs the renewal process of Lemma 6: successive fire
    visits are separated by i.i.d. ``Geometric(p)`` gaps, so every visit of the
    owning vertex is an independent ``Bernoulli(p)`` trial for the edge no
    matter how visits are interleaved across instances.  Within a round the
    ``m`` instances activating a vertex are ordered by ascending instance id
    and assigned consecutive visit indices; instances are exchangeable, so the
    assignment does not perturb the marginals.
    """

    __slots__ = (
        "num_worlds",
        "num_vertices",
        "_indptr",
        "_degree",
        "_csr_end",
        "_targets",
        "_edge_ids",
        "_world_probs",
        "_rng",
        "_sched_end",
        "_sched_count",
        "_visits",
        "_ev_fire",
        "_ev_target",
        "_ev_prob",
        "_ev_log1mp",
        "_ev_len",
        "scheduled_events",
        "fired_events",
    )

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
        self._degree = self._indptr[1:] - self._indptr[:-1]
        self._csr_end = self._indptr[1:]
        self._rng = rng
        size = self.num_worlds * self.num_vertices
        # Exclusive end of each schedule's run of events; -1 until scheduled.
        self._sched_end = np.full(size, -1, dtype=np.int64)
        self._sched_count = np.zeros(size, dtype=np.int64)
        self._visits = np.zeros(size, dtype=np.int64)
        self._ev_fire = np.empty(64, dtype=np.int64)
        self._ev_target = np.empty(64, dtype=np.int64)
        self._ev_prob = np.empty(64, dtype=float)
        # ln(1 - p) per event (-inf for p >= 1), computed once when the event
        # is scheduled: a redraw is one inverse-CDF division.
        self._ev_log1mp = np.empty(64, dtype=float)
        self._ev_len = 0
        #: Per-world number of events ever scheduled (the Lemma 5 term of the
        #: Fig. 13 edge-visit accounting: one per positive-probability out-edge
        #: of every activated vertex).
        self.scheduled_events = np.zeros(self.num_worlds, dtype=np.int64)
        #: Per-world number of fires (the Lemma 7 term: only edges whose
        #: geometric schedule lands inside a visit window are ever touched).
        self.fired_events = np.zeros(self.num_worlds, dtype=np.int64)

    # -------------------------------------------------------------- internals
    def _append_events(
        self, fires: np.ndarray, targets: np.ndarray, probs: np.ndarray, log1mp: np.ndarray
    ) -> int:
        """Append events to the flat store (geometric growth); return the base slot."""
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
        self._ev_log1mp[base:needed] = log1mp
        self._ev_len = needed
        return base

    def _schedule(self, keys: np.ndarray) -> None:
        """Create the schedules of ``world * V + vertex`` keys seen for the first time.

        The whole batch is initialized with CSR gathers and one
        :func:`~repro.utils.rng.draw_geometric` call over every
        positive-probability out-edge of every new vertex, in key order then
        CSR order: the multi-world counterpart of building one
        :class:`LazyEdgeHeap` from ``initial_fires``.  A new schedule has no
        visits yet, so its first fires are the draws themselves.
        """
        single_world = self.num_worlds == 1
        if single_world:
            vertices = keys
        else:
            worlds, vertices = np.divmod(keys, self.num_vertices)
        counts = self._degree[vertices]
        ends = counts.cumsum()
        owner = np.arange(len(keys), dtype=np.int64).repeat(counts)
        positions = (self._csr_end[vertices] - ends)[owner]
        positions += np.arange(int(ends[-1]), dtype=np.int64)
        edges = self._edge_ids[positions]
        if single_world:
            probs = self._world_probs[0][edges]
        else:
            probs = self._world_probs[worlds[owner], edges]
        positive = (probs > 0.0).nonzero()[0]
        probs = probs[positive]
        fires, log1mp = draw_geometric(self._rng.generator, probs)
        base = self._append_events(fires, self._targets[positions[positive]], probs, log1mp)
        scheduled = np.bincount(owner[positive], minlength=len(keys))
        self._sched_end[keys] = scheduled.cumsum() + base
        self._sched_count[keys] = scheduled
        if single_world:
            self.scheduled_events[0] += len(probs)
        else:
            np.add.at(self.scheduled_events, worlds, scheduled)

    # ----------------------------------------------------------------- public
    def advance(
        self,
        world_ids: np.ndarray,
        instance_ids: np.ndarray,
        vertex_ids: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Consume one frontier round of activations; return the fired edges.

        Parameters
        ----------
        world_ids, instance_ids, vertex_ids:
            Parallel arrays, one entry per activation event ``(world, instance,
            vertex)`` of the round, in any order.  A vertex activated by ``m``
            instances of one world advances that schedule by ``m`` visits.
        Returns
        -------
        ``(instances, targets)``: parallel arrays with one entry per fired
        edge, carrying the instance id the fire is attributed to and the edge's
        target vertex.  An edge can fire for several instances of one round
        (its renewal chain may land inside the visit window repeatedly),
        exactly like repeated ``LazyEdgeHeap.visit`` calls.

        The round is resolved without any per-fire loop by the memorylessness
        of the geometric schedule: an edge whose pending fire ``t0`` falls
        inside the round's visit window ``(visits, visits + m]`` fires at
        ``t0``, every later visit of the window is an independent
        ``Bernoulli(p)`` trial, and the fire after the window is
        ``window_end + Geometric(p)`` -- the same process
        :meth:`LazyEdgeHeap.visit` realizes one heap operation at a time.
        Edges whose pending fire lies beyond the window are not touched at
        all (the Lemma 7 saving).

        Random draws, in this order: the first-fire geometrics of new
        schedules (:meth:`_schedule`), then one ``generator.random`` call
        whose leading entries are the window trials (slot order, visits
        ascending) and whose tail is one redraw uniform per fired slot.
        """
        instance_ids = np.asarray(instance_ids, dtype=np.int64)
        vertex_ids = np.asarray(vertex_ids, dtype=np.int64)
        size = len(vertex_ids)
        if not size:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        num_vertices = self.num_vertices
        single_world = self.num_worlds == 1
        if single_world:
            keys = vertex_ids
        else:
            keys = np.asarray(world_ids, dtype=np.int64) * num_vertices + vertex_ids
        order = np.lexsort((instance_ids, keys))
        keys = keys[order]
        instances = instance_ids[order]
        # Groups are the runs of equal keys: one (world, vertex) schedule
        # each, its activations ordered by ascending instance id.
        last = np.empty(size, dtype=bool)
        last[-1] = True
        np.not_equal(keys[1:], keys[:-1], out=last[:-1])
        group_last = last.nonzero()[0]
        group_keys = keys[group_last]
        mult = np.empty_like(group_last)
        mult[0] = group_last[0] + 1
        np.subtract(group_last[1:], group_last[:-1], out=mult[1:])
        sched_end = self._sched_end[group_keys]
        new = (sched_end < 0).nonzero()[0]
        if new.size:
            self._schedule(group_keys[new])
            sched_end = self._sched_end[group_keys]
        counts = self._sched_count[group_keys]
        window_end = self._visits[group_keys] + mult
        self._visits[group_keys] = window_end
        # Visit t of group g is the activation at sorted position
        # t + shift[g] (instances take the window's visits in order).
        shift = group_last - window_end
        # Every event slot of the round's schedules, and its group.
        ends = counts.cumsum()
        total = int(ends[-1])
        groups = np.arange(len(group_keys), dtype=np.int64).repeat(counts)
        slots = (sched_end - ends)[groups]
        slots += np.arange(total, dtype=np.int64)
        fires = self._ev_fire[slots]
        live = (fires <= window_end[groups]).nonzero()[0]
        if not live.size:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        slots = slots[live]
        first_fire = fires[live]
        groups = groups[live]
        window_end = window_end[groups]
        fired_at = shift[groups] + first_fire
        targets = self._ev_target[slots]
        # Bernoulli trials for the window visits after each slot's first fire.
        remaining = window_end - first_fire
        trial_ends = remaining.cumsum()
        trials = int(trial_ends[-1])
        uniforms = self._rng.generator.random(trials + len(slots))
        if trials:
            owner = np.arange(len(slots), dtype=np.int64).repeat(remaining)
            hits = (uniforms[:trials] < self._ev_prob[slots][owner]).nonzero()[0]
            hit_owner = owner[hits]
            # Trial j of slot o is visit first_fire[o] + 1 + j - trial start[o].
            hit_at = (fired_at + remaining - trial_ends)[hit_owner]
            hit_at += hits + 1
            fired_at = np.concatenate((fired_at, hit_at))
            targets = np.concatenate((targets, targets[hit_owner]))
        if single_world:
            self.fired_events[0] += len(fired_at)
        else:
            self.fired_events += np.bincount(
                keys[fired_at] // num_vertices, minlength=self.num_worlds
            )
        # One redraw past the window per fired slot (memoryless restart).
        self._ev_fire[slots] = window_end + geometric_from_uniforms(
            uniforms[trials:], self._ev_log1mp[slots]
        )
        return instances[fired_at], targets

    # ------------------------------------------------------------ inspection
    def visit_count(self, world: int, vertex: int) -> int:
        """Accumulated visits of ``vertex`` in ``world`` (across instances)."""
        return int(self._visits[world * self.num_vertices + vertex])

    def pending(self, world: int, vertex: int) -> int:
        """Scheduled events of ``(world, vertex)``; 0 if never activated."""
        return int(self._sched_count[world * self.num_vertices + vertex])

    def next_fires(self, world: int, vertex: int) -> np.ndarray:
        """Current next-fire visit index of each scheduled event (test hook)."""
        key = world * self.num_vertices + vertex
        end = int(self._sched_end[key])
        if end < 0:
            return np.empty(0, dtype=np.int64)
        return self._ev_fire[end - int(self._sched_count[key]) : end].copy()

    def edge_visits(self, world: Optional[int] = None) -> int:
        """Edge-visit count of ``world`` (or all worlds): scheduled + fired.

        Matches the :class:`LazyEdgeHeap` accounting of the lazy estimator --
        ``pending()`` once at schedule construction plus one per fire -- so the
        Fig. 13 instrumentation stays comparable across kernels.
        """
        if world is None:
            return int(self.scheduled_events.sum() + self.fired_events.sum())
        return int(self.scheduled_events[world] + self.fired_events[world])
