"""GOOD fixture: serving-layer timing through the sanctioned seams.

OBS001 stays quiet when durations, queue stamps included, come from the obs
clock.
"""

# pitexlint: path=src/repro/serve/good_timer.py

from dataclasses import dataclass, field

from repro.obs.clock import monotonic


@dataclass
class Pending:
    enqueued: float = field(default_factory=monotonic)


def span_seconds(fn):
    started = monotonic()
    fn()
    return monotonic() - started


def queue_age(pending):
    return monotonic() - pending.enqueued
