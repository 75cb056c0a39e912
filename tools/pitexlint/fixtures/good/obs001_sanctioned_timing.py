"""GOOD fixture: serving-layer timing through the sanctioned seams.

OBS001 stays quiet when durations come from the obs clock or plain
``time.monotonic()`` (queue timestamps -- no clock-seam hazard, and
reproducibility is not at stake for a duration).
"""

# pitexlint: path=src/repro/serve/good_timer.py

import time

from repro.obs.clock import monotonic


def span_seconds(fn):
    started = monotonic()
    fn()
    return monotonic() - started


def queue_age(enqueued_monotonic):
    return time.monotonic() - enqueued_monotonic
