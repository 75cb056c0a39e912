"""Exception hierarchy for the PITEX reproduction.

All library-specific failures derive from :class:`PitexError` so callers can
distinguish library problems from generic Python errors with a single except
clause.
"""

from __future__ import annotations


class PitexError(Exception):
    """Base class for every error raised by the library."""


class InvalidParameterError(PitexError, ValueError):
    """A public API entry point received an out-of-range or ill-typed argument."""


class GraphError(PitexError):
    """A graph operation failed (unknown vertex, duplicate edge, malformed file)."""


class UnknownVertexError(GraphError, KeyError):
    """The requested vertex does not exist in the graph."""


class UnknownEdgeError(GraphError, KeyError):
    """The requested edge does not exist in the graph."""


class ReadOnlyGraphError(GraphError):
    """An edge was added to a graph snapshot
    (:meth:`~repro.graph.digraph.TopicSocialGraph.snapshot`), which is read-only."""


class ModelError(PitexError):
    """The topic/tag model is inconsistent with the graph or the query."""


class UnknownTagError(ModelError, KeyError):
    """The requested tag does not exist in the tag vocabulary."""


class IndexError_(PitexError):
    """An index structure was used before being built or with the wrong graph,
    or filled a second time (an index builds once, by ``build()`` or
    ``from_arrays()``)."""


class IndexNotBuiltError(IndexError_):
    """A query was issued against an index whose ``build`` method was not called."""


class EstimationError(PitexError):
    """An influence estimation could not be carried out."""


class EngineFrozenError(PitexError, RuntimeError):
    """A frozen engine (:meth:`~repro.core.engine.PitexEngine.freeze`) was asked
    for a method it did not warm, or re-frozen with a configuration its
    freeze does not cover."""


class StoreError(PitexError):
    """An :class:`~repro.serve.store.IndexStore` entry is missing or corrupt
    in a way that load-or-build cannot silently repair (e.g. a shared graph
    bundle whose reconstructed fingerprint no longer matches its manifest)."""


class WorkerError(PitexError, RuntimeError):
    """A process-sharded serving worker failed: it crashed, could not build
    its engine replica, or returned an unpicklable payload.  Raised (or set as
    a response error) by :class:`~repro.serve.sharded.ProcessShardedService`
    instead of hanging the caller."""
