"""GOOD fixture: guard-wired class with every escape hatch accounted for.

FRZ001 must stay quiet -- mutating methods either call the ``guard_check``
tripwire (free-function or ``self._guard.check`` idiom), are lifecycle
methods (``__init__``/``thaw``), or are per-class allowlisted lazy cache
builders (``csr`` on ``TopicSocialGraph``).
"""

# pitexlint: path=src/repro/graph/fixture_frz001_ok.py

from repro.utils.freeze import guard_check


class TopicSocialGraph:
    def __init__(self, num_vertices):
        self.num_vertices = num_vertices
        self._edges = []
        self._csr_cache = None

    def add_edge(self, source, target, probabilities):
        guard_check(self, "add_edge")
        self._edges.append((source, target, probabilities))
        self._csr_cache = None

    def csr(self):
        if self._csr_cache is None:
            self._csr_cache = tuple(self._edges)
        return self._csr_cache

    def thaw(self):
        self._csr_cache = None

    def neighbors(self, vertex):
        return [edge for edge in self._edges if edge[0] == vertex]


class PitexEngine:
    def __init__(self, graph):
        self.graph = graph
        self._guard = None
        self._rr_index = None

    def attach_rr_index(self, index):
        self._guard.check("attach_rr_index")
        self._rr_index = index
