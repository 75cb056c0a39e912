"""BAD fixture: a serving module timing with a private perf_counter.

OBS001 must flag both spellings -- the attribute call and the
``from time import perf_counter`` alias.  Durations in serve/, core/ and
index/ go through repro.obs.clock so every span, metric and benchmark shares
one swappable clock seam.  (``time.time()`` is deliberately
absent here: that is DET004's finding, and this fixture must fire OBS001
alone.)
"""

# pitexlint: path=src/repro/serve/rogue_timer.py

import time
from time import perf_counter as tick


def measure(fn):
    started = time.perf_counter()
    fn()
    return time.perf_counter() - started


def measure_aliased(fn):
    started = tick()
    fn()
    return tick() - started
