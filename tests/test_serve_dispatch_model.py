"""Model-based tests of both backends' dispatch core against a plain model.

Hypothesis drives :class:`~repro.serve.service.Dispatcher` -- routing,
in-flight counts, the pending table and orphaning, with no process, pipe or
thread -- over the slots of either backend through random submits, endings
(replies, late and repeated ones included, and cancellations while
queued), and, on process slots, start-ups, failed start-ups and deaths,
with the answer cache on or off.  Thread slots start ready, never die and
never use the answer-cache affinity (their one cache is shared).  After
every step the dispatcher must agree with :class:`DispatchModel`, the
contract written the obvious way:

* a worker's in-flight count equals its open requests;
* every request id ends exactly once, by its ending or by orphaning;
* a request runs on the least-loaded live worker, ties going to its
  affinity shard, then the lowest id;
* with the answer cache on, a request runs on its affinity shard;
* a request whose affinity shard is dead fails at submit.
"""

from concurrent.futures import Future
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, precondition, rule

from repro.serve.service import DEAD, READY, STARTING, Dispatcher, Pending, QueryRequest, WorkerSlot

MACHINE_SETTINGS = settings(
    max_examples=150,
    stateful_step_count=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

WORKER = st.integers(min_value=0, max_value=3)  # taken modulo the worker count


class DispatchModel:
    """The dispatch contract over plain containers."""

    def __init__(self, num_workers, answer_cache, initial_state):
        self.answer_cache = answer_cache
        self.states = [initial_state] * num_workers
        self.fatal = {}  # worker -> start-up failure
        self.open = {}  # request id -> worker it runs on
        self.ended = {}  # request id -> times it ended

    def load(self, worker):
        return sum(1 for running_on in self.open.values() if running_on == worker)

    def route(self, affinity):
        if self.answer_cache:
            return affinity
        live = [w for w, state in enumerate(self.states) if state != DEAD]
        least = min(self.load(w) for w in live)
        tied = [w for w in live if self.load(w) == least]
        return affinity if affinity in tied else tied[0]

    def end(self, request_id):
        assert request_id in self.open, f"request {request_id} ended while not open"
        del self.open[request_id]
        self.ended[request_id] = self.ended.get(request_id, 0) + 1


class DispatchMachine(RuleBasedStateMachine):
    @initialize(
        backend=st.sampled_from(["thread", "process"]),
        num_workers=st.integers(min_value=1, max_value=4),
        answer_cache=st.booleans(),
    )
    def start(self, backend, num_workers, answer_cache):
        self.processes = backend == "process"
        # How each service builds its slots: PitexService's threads are ready
        # at start and share one answer cache, so they route without affinity.
        if self.processes:
            slots = [WorkerSlot() for _ in range(num_workers)]
        else:
            slots = [WorkerSlot(state=READY) for _ in range(num_workers)]
            answer_cache = False
        self.dispatcher = Dispatcher(slots, answer_cache=answer_cache)
        self.model = DispatchModel(num_workers, answer_cache, STARTING if self.processes else READY)
        self.pendings = {}  # request id -> the Pending submitted under it

    def _worker(self, worker):
        return worker % len(self.model.states)

    @rule(affinities=st.lists(WORKER, min_size=1, max_size=4))
    def submit(self, affinities):
        """A burst of requests, each checked against the route the model picks."""
        for affinity in affinities:
            self._submit(self._worker(affinity))

    def _submit(self, affinity):
        pending = Pending(request=QueryRequest(user=affinity), future=Future())
        request_id, error = self.dispatcher.submit(pending, affinity)
        if self.model.states[affinity] == DEAD:
            reason = self.model.fatal.get(affinity, "worker died")
            assert (request_id, error) == (-1, f"WorkerError: worker {affinity} unavailable: {reason}")
            assert pending.worker is None
            return
        assert error is None and request_id not in self.pendings
        assert pending.worker == self.model.route(affinity)
        if self.model.answer_cache:
            assert pending.worker == affinity
        self.pendings[request_id] = pending
        self.model.open[request_id] = pending.worker

    @precondition(lambda self: self.pendings)
    @rule(data=st.data())
    def complete(self, data):
        """A request ends: a reply or a thread's result, or a cancellation seen at dequeue.

        Requests that already ended are drawn too (a late or repeated reply).
        """
        request_id = data.draw(st.sampled_from(sorted(self.pendings)))
        released = self.dispatcher.release(request_id)
        if request_id in self.model.open:
            assert released is self.pendings[request_id]
            self.model.end(request_id)
        else:
            assert released is None, f"request {request_id} ended twice"

    @precondition(lambda self: self.processes)
    @rule(worker=WORKER)
    def worker_ready(self, worker):
        worker = self._worker(worker)
        if self.model.states[worker] == STARTING:
            self.dispatcher.ready(worker)
            self.model.states[worker] = READY

    @precondition(lambda self: self.processes)
    @rule(worker=WORKER)
    def worker_fails_to_start(self, worker):
        worker = self._worker(worker)
        if self.model.states[worker] == STARTING and worker not in self.model.fatal:
            self.dispatcher.failed(worker, "StoreError: no bundle")
            self.model.fatal[worker] = "StoreError: no bundle"

    @precondition(lambda self: self.processes)
    @rule(worker=WORKER, exit_code=st.sampled_from([-9, 0, 1]))
    def worker_dies(self, worker, exit_code):
        worker = self._worker(worker)
        if self.model.states[worker] == DEAD:
            return  # EOF arrives once per worker
        orphans = self.dispatcher.died(worker, exit_code)
        expected = [rid for rid, running_on in self.model.open.items() if running_on == worker]
        assert sorted(map(id, orphans)) == sorted(id(self.pendings[rid]) for rid in expected)
        for rid in expected:
            self.model.end(rid)
        if self.model.states[worker] == STARTING:
            self.model.fatal.setdefault(worker, f"died during startup (exit code {exit_code})")
        self.model.states[worker] = DEAD

    @invariant()
    def in_flight_counts_equal_open_requests(self):
        counts = [slot.in_flight for slot in self.dispatcher.workers]
        assert counts == [self.model.load(w) for w in range(len(self.model.states))]

    @invariant()
    def every_request_is_open_or_ended_exactly_once(self):
        assert set(self.dispatcher._pending) == set(self.model.open)
        assert all(count == 1 for count in self.model.ended.values())
        assert set(self.model.open).isdisjoint(self.model.ended)
        assert set(self.model.open) | set(self.model.ended) == set(self.pendings)

    @invariant()
    def worker_states_and_start_report_agree(self):
        assert [slot.state for slot in self.dispatcher.workers] == self.model.states
        assert self.dispatcher.live() == [w for w, s in enumerate(self.model.states) if s != DEAD]
        failures = [f"worker {w}: {error}" for w, error in sorted(self.model.fatal.items())]
        if not failures and STARTING in self.model.states:
            failures = ["startup timed out after 0s"]
        assert self.dispatcher.wait_started(0) == failures


DispatchMachine.TestCase.settings = MACHINE_SETTINGS
TestDispatcherModel = DispatchMachine.TestCase
