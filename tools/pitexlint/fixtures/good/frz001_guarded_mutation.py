"""GOOD fixture: guard-wired class with every escape hatch accounted for.

FRZ001 must stay quiet -- mutating methods either call the ``guard_check``
tripwire (free-function or ``self._guard.check`` idiom), are lifecycle
methods (``__init__``/``thaw``), or are per-class allowlisted lazy cache
builders (``block`` on ``RRGraphIndex``).
"""

# pitexlint: path=src/repro/index/fixture_frz001_ok.py

from repro.utils.freeze import guard_check


class RRGraphIndex:
    def __init__(self, num_samples):
        self.num_samples = num_samples
        self._graphs = []
        self._block = None

    def build(self, graphs):
        guard_check(self, "build")
        self._graphs.extend(graphs)
        self._block = None

    def block(self):
        if self._block is None:
            self._block = tuple(self._graphs)
        return self._block

    def thaw(self):
        self._block = None

    def graphs_containing(self, vertex):
        return [graph for graph in self._graphs if vertex in graph]


class PitexEngine:
    def __init__(self, graph):
        self.graph = graph
        self._guard = None
        self._rr_index = None

    def attach_rr_index(self, index):
        self._guard.check("attach_rr_index")
        self._rr_index = index
