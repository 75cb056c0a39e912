"""The frozen-engine tripwire: detect shared-state mutation after warm-up.

Every query derives all randomness statelessly and builds its own estimator,
so the structures queries share -- the graph and the offline indexes -- must
not change while an engine serves.  :meth:`repro.core.engine.PitexEngine.freeze`
builds them eagerly and then guards them.  That contract is easy to break
silently -- a lazily built cache, a graph mutation, a rebuilt index -- and the
GIL usually hides the race instead of failing it.

:class:`FrozenGuard` makes the contract executable.  One guard instance is
shared by the engine and every structure it froze (graph, offline
indexes); the known mutators of those structures call
:func:`guard_check` on entry, and once the guard is engaged any such call
records a violation and raises :class:`~repro.exceptions.EngineFrozenError`.
The concurrency harness (``tests/test_serve_concurrency.py``) asserts that a
full stress run trips the guard zero times.

The guard is a debug tripwire, not a memory barrier: it catches the library's
known mutation points (which is what a regression needs), not arbitrary writes
through numpy views.
"""

from __future__ import annotations

import threading
import weakref
from typing import List

from repro.exceptions import EngineFrozenError
from repro.obs.telemetry import counter

_GUARDS_ATTR = "_freeze_guards"

# Serializes attach/detach/prune of any object's guard list: two engines
# freezing concurrently over one shared graph must both land their guards
# (an unsynchronized read-modify-write could silently drop one, leaving an
# engine that believes it is guarded while its graph accepts mutations).
_registry_lock = threading.Lock()


class FrozenGuard:
    """Raises on registered mutations while engaged; records every violation.

    ``violations`` keeps the description of each attempted mutation even
    though the attempt also raises -- a stress test that swallows worker
    exceptions can still assert the list is empty afterwards.
    """

    __slots__ = ("owner", "engaged", "violations", "__weakref__")

    def __init__(self, owner: str = "engine") -> None:
        self.owner = owner
        self.engaged = False
        self.violations: List[str] = []

    def engage(self) -> None:
        """Start rejecting mutations (idempotent)."""
        self.engaged = True

    def disengage(self) -> None:
        """Stop rejecting mutations (past violations are kept)."""
        self.engaged = False

    def check(self, action: str) -> None:
        """Record and reject ``action`` if the guard is engaged."""
        if not self.engaged:
            return
        message = f"{self.owner} is frozen (read-only): attempted to {action}"
        self.violations.append(message)
        counter("guard.trips")
        raise EngineFrozenError(
            f"{message}; call thaw() first, or warm the structure in freeze()"
        )


def attach_freeze_guard(obj: object, guard: FrozenGuard) -> None:
    """Register ``guard`` on ``obj`` so its mutators start honouring it.

    Attaching is idempotent per guard instance.  An object may carry several
    guards (e.g. one graph shared by two frozen engines); a mutation is
    rejected while *any* of them is engaged.

    Guards are held through **weak references**: a guard lives exactly as
    long as the engine that owns it, so an engine dropped without ``thaw()``
    (e.g. evicted from an ``EngineCache``) stops guarding its shared graph as
    soon as it is collected, instead of blocking mutation forever.  Dead
    references are pruned on every attach/check, bounding the list.
    """
    with _registry_lock:
        refs = getattr(obj, _GUARDS_ATTR, None)
        if refs is None:
            refs = []
            setattr(obj, _GUARDS_ATTR, refs)
        live = [ref for ref in refs if ref() is not None]
        if guard not in (ref() for ref in live):
            live.append(weakref.ref(guard))
        refs[:] = live


def detach_freeze_guard(obj: object, guard: FrozenGuard) -> None:
    """Remove ``guard`` from ``obj`` (no-op when it was never attached).

    ``PitexEngine.thaw`` detaches its guard from every structure it froze, so
    a thawed engine leaves no trace on shared objects.
    """
    if getattr(obj, _GUARDS_ATTR, None) is None:
        return
    with _registry_lock:
        refs = getattr(obj, _GUARDS_ATTR, None)
        if refs:
            refs[:] = [ref for ref in refs if ref() is not None and ref() is not guard]


def guard_check(obj: object, action: str) -> None:
    """Reject ``action`` when any guard attached to ``obj`` is engaged.

    The fast path -- no guard ever attached -- is a single ``getattr`` with a
    default, so instrumenting a mutator costs nothing for unfrozen objects.
    Iteration runs over a snapshot so a concurrent attach/detach cannot skip
    or repeat guards mid-walk.
    """
    refs = getattr(obj, _GUARDS_ATTR, None)
    if not refs:
        return
    dead = False
    for ref in tuple(refs):
        guard = ref()
        if guard is None:
            dead = True
            continue
        guard.check(action)
    if dead:
        with _registry_lock:
            refs[:] = [ref for ref in refs if ref() is not None]
