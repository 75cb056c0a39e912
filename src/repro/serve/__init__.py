"""Online serving subsystem: persist, warm-cache and concurrently serve PITEX.

The paper's whole design (Sec. 6) rests on an offline/online asymmetry: RR-Graph
materialization is expensive, answering from it is cheap.  This package carries
that asymmetry across process and query boundaries:

* :mod:`repro.serve.store` -- :class:`IndexStore`: offline indexes serialized
  to ``npz`` + JSON manifests keyed on graph fingerprint / version, model hash
  and theta, with load-or-build semantics.
* :mod:`repro.serve.cache` -- :class:`EngineCache`: an LRU of warm engines so
  repeated queries skip engine construction and index builds.
* :mod:`repro.serve.service` -- :class:`PitexService`: a thread-pooled query
  front-end that batches concurrent requests per engine and records
  p50/p95/p99 latency and throughput.
* :mod:`repro.serve.replay` -- workload replay: fire a seeded
  :meth:`QueryWorkload.query_stream` at a service and report a latency table
  (the ``pitex serve-replay`` command and ``bench_serving`` driver).
* :mod:`repro.serve.sharded` -- :class:`ProcessShardedService`: the
  process-pool backend -- one frozen engine replica per worker process,
  reconstructed from read-only ``mmap``'d store arrays, bitwise-equal to the
  thread backend (see ``docs/architecture.md``).

Safety contracts (details in each module's docstring): the store is safe to
share across threads *and* processes; the cache, both services and the
metrics objects are thread-safe; engines answer concurrent queries on one
stateless query path, and a frozen engine additionally guards its graph and
indexes against mutation while it serves.
"""

from repro.serve.store import (
    IndexStore,
    StoreEntry,
    graph_bundle_key,
    index_cache_key,
    KIND_DELAYED,
    KIND_RR,
    KIND_SHARED_GRAPH,
)
from repro.serve.cache import EngineCache, EngineCacheStats
from repro.serve.service import (
    DEFAULT_ENGINE_KEY,
    PitexService,
    QueryRequest,
    QueryResponse,
    ServiceMetrics,
)
from repro.serve.replay import ReplayReport, replay_stream
from repro.serve.sharded import (
    EngineSpec,
    ProcessShardedService,
    build_engine_from_spec,
    publish_engine_spec,
)

__all__ = [
    "IndexStore",
    "StoreEntry",
    "graph_bundle_key",
    "index_cache_key",
    "KIND_RR",
    "KIND_DELAYED",
    "KIND_SHARED_GRAPH",
    "EngineCache",
    "EngineCacheStats",
    "DEFAULT_ENGINE_KEY",
    "PitexService",
    "QueryRequest",
    "QueryResponse",
    "ServiceMetrics",
    "ReplayReport",
    "replay_stream",
    "EngineSpec",
    "ProcessShardedService",
    "build_engine_from_spec",
    "publish_engine_spec",
]
