"""BAD fixture: a guard-wired class grows a mutating method with no tripwire.

Must fire FRZ001 -- ``RRGraphIndex`` is registered as guard-wired, and
``adopt_unchecked`` mutates self-reachable state without calling
``guard_check``, silently re-opening the frozen-engine hole.
"""

# pitexlint: path=src/repro/index/fixture_frz001.py


class RRGraphIndex:
    def __init__(self, num_samples):
        self.num_samples = num_samples
        self._graphs = []
        self._dirty = False

    def adopt_unchecked(self, graphs):
        self._graphs.extend(graphs)
        self._dirty = True

    def reset_thresholds(self, value):
        for index in range(len(self._graphs)):
            self._graphs[index] = (*self._graphs[index][:2], value)
