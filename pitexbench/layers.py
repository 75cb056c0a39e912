"""Per-layer self time, measured from outside the program.

The traced run wraps the public entry point of each layer (listed in
:func:`layer_targets`) with a timer.  Each thread keeps a stack of open calls,
so a call's *self* time is its duration minus the time spent in wrapped calls
it made.  When the outermost wrapped call of a thread returns -- one engine
query, one answer-cache lookup, one index build -- the thread's per-layer
totals since the previous outermost call are emitted as one span record
through :mod:`repro.obs.trace`.  Process workers inherit the wrappers across
``fork`` and ship their span records back with their shutdown shard, so the
parent sees every layer of every worker.
"""

from __future__ import annotations

import functools
import threading
import time
from typing import Callable, Dict, Iterable, List, Optional, Tuple

SPAN_NAME = "pitexbench.layers"

# (owner, attribute, layer, classify): ``classify`` maps the call's return
# value to the layer name it is counted under (``None`` keeps ``layer``).
Target = Tuple[object, str, str, Optional[Callable[[object], str]]]


class LayerStack:
    """Turns one thread's nested layer calls into per-layer self time.

    ``totals`` maps a layer to ``[calls, self_seconds, inclusive_seconds]``.
    Inclusive time is added only by the outermost open call of a layer, so a
    layer that calls itself is not counted twice.
    """

    def __init__(self) -> None:
        self.frames: List[list] = []
        self.totals: Dict[str, list] = {}

    def enter(self, layer: str, now: float) -> None:
        """Open a call of ``layer`` at time ``now``."""
        self.frames.append([layer, now, 0.0])

    def exit(self, now: float, rename: Optional[str] = None) -> Optional[dict]:
        """Close the innermost call at ``now``.

        Returns the thread's record -- ``{"root", "seconds", "ended",
        "layers"}`` -- when the closed call was the outermost one, else
        ``None``.  ``ended`` is ``now``: ``time.perf_counter`` reads the
        system-wide monotonic clock on Linux, so records of forked workers
        can be placed in the parent's timed window.
        """
        layer, started, child_seconds = self.frames.pop()
        elapsed = now - started
        name = rename or layer
        slot = self.totals.setdefault(name, [0, 0.0, 0.0])
        slot[0] += 1
        slot[1] += elapsed - child_seconds
        if not any(frame[0] == layer for frame in self.frames):
            slot[2] += elapsed
        if self.frames:
            self.frames[-1][2] += elapsed
            return None
        record = {"root": name, "seconds": elapsed, "ended": now, "layers": self.totals}
        self.totals = {}
        return record


class LayerTracer:
    """Installs timing wrappers on the given targets; removes them on exit."""

    def __init__(self, targets: Iterable[Target], sink: Callable[[dict], None]) -> None:
        self._targets = list(targets)
        self._sink = sink
        self._local = threading.local()
        self._originals: List[Tuple[object, str, object]] = []

    def _stack(self) -> LayerStack:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = LayerStack()
        return stack

    def _wrap(self, function, layer: str, classify):
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            stack.enter(layer, time.perf_counter())
            result = None
            try:
                result = function(*args, **kwargs)
                return result
            finally:
                rename = classify(result) if classify is not None and result is not None else None
                record = stack.exit(time.perf_counter(), rename)
                if record is not None:
                    tracer._sink(record)

        return functools.wraps(function)(wrapper)

    def __enter__(self) -> "LayerTracer":
        for owner, attribute, layer, classify in self._targets:
            original = owner.__dict__[attribute]
            self._originals.append((owner, attribute, original))
            setattr(owner, attribute, self._wrap(original, layer, classify))
        return self

    def __exit__(self, *exc_info) -> None:
        while self._originals:
            owner, attribute, original = self._originals.pop()
            setattr(owner, attribute, original)


def layer_targets() -> List[Target]:
    """The public entry point of every layer the per-layer metrics cover."""
    import repro.core.engine as engine_module
    import repro.serve.sharded as sharded_module
    from repro.core.best_effort import BestEffortExplorer
    from repro.core.engine import PitexEngine
    from repro.graph.digraph import TopicSocialGraph
    from repro.index.delayed import DelayedIndexEstimator, DelayedMaterializationIndex
    from repro.index.pruning import PrunedIndexEstimator
    from repro.index.rr_index import IndexEstimator, RRGraphIndex
    from repro.sampling.lazy import LazyPropagationEstimator
    from repro.serve.answers import AnswerCache
    from repro.topics.model import TagTopicModel
    from repro.utils.heap import BatchedEventQueue

    def cache_outcome(result) -> str:
        return "serve.answer_cache.hit" if result[1] else "serve.answer_cache.miss"

    return [
        (PitexEngine, "query", "core.query", None),
        (PitexEngine, "freeze", "core.freeze", None),
        (BestEffortExplorer, "explore", "core.explore", None),
        (TagTopicModel, "edge_probabilities", "topics.prob", None),
        (TagTopicModel, "upper_bound_edge_probabilities", "topics.prob", None),
        (TagTopicModel, "topic_posterior", "topics.prob", None),
        (TopicSocialGraph, "edge_probabilities_under", "topics.prob", None),
        (IndexEstimator, "estimate_with_probabilities", "index.match", None),
        (PrunedIndexEstimator, "estimate_with_probabilities", "index.match", None),
        (DelayedIndexEstimator, "estimate_with_probabilities", "index.match", None),
        (RRGraphIndex, "build", "index.build", None),
        (DelayedMaterializationIndex, "build", "index.build", None),
        (engine_module, "build_pruning_tables", "index.tables", None),
        (LazyPropagationEstimator, "estimate_many_with_probabilities", "sampling.estimate", None),
        (LazyPropagationEstimator, "estimate_with_probabilities", "sampling.estimate", None),
        (BatchedEventQueue, "advance", "sampling.kernel", None),
        (AnswerCache, "get_or_compute", "serve.answer_cache", cache_outcome),
        (sharded_module, "publish_engine_spec", "serve.publish", None),
        (TopicSocialGraph, "add_edge", "graph.add_edge", None),
    ]


def emit_span(record: dict) -> None:
    """Hand one thread record to the active :mod:`repro.obs.trace` recorder.

    The recorder is looked up per call: a process worker installs its own
    after ``fork`` and ships what it collected at shutdown.
    """
    from repro.obs.trace import get_recorder

    recorder = get_recorder()
    if recorder is not None:
        recorder.record({"span": SPAN_NAME, **record})


def merge_records(records: Iterable[dict]) -> Dict[str, list]:
    """Sum the ``layers`` sections of span records: ``{layer: [calls, self, incl]}``."""
    merged: Dict[str, list] = {}
    for record in records:
        for layer, (calls, self_seconds, inclusive) in record["layers"].items():
            slot = merged.setdefault(layer, [0, 0.0, 0.0])
            slot[0] += calls
            slot[1] += self_seconds
            slot[2] += inclusive
    return merged


QUERY_LAYERS = (
    "core.query",
    "core.explore",
    "topics.prob",
    "index.match",
    "sampling.estimate",
    "sampling.kernel",
)


def query_self_sum(records: Iterable[dict]) -> Tuple[float, float]:
    """``(sum of query-path layer self times, core.query inclusive time)``.

    Taken over the records that contain an engine query.  Every wrapped call
    made while a query runs belongs to one of :data:`QUERY_LAYERS`, so the
    self times must add up to the queries' inclusive time.
    """
    merged = merge_records(record for record in records if "core.query" in record["layers"])
    total_self = sum(merged[layer][1] for layer in QUERY_LAYERS if layer in merged)
    inclusive = merged["core.query"][2] if "core.query" in merged else 0.0
    return total_self, inclusive
