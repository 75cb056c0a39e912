"""Online serving subsystem: persist, warm-cache and concurrently serve PITEX.

The paper's whole design (Sec. 6) rests on an offline/online asymmetry: RR-Graph
materialization is expensive, answering from it is cheap.  This package carries
that asymmetry across process and query boundaries:

* :mod:`repro.serve.store` -- :class:`IndexStore`: offline indexes serialized
  to one checksummed raw ``.npy`` per array + a JSON manifest, keyed on graph
  fingerprint / version, model hash and theta, with load-or-build semantics.
* :mod:`repro.serve.cache` -- :class:`SingleFlightLRU`: the one thread-safe
  LRU whose misses compute once per key, and :class:`EngineCache`, its policy
  for warm engines, so repeated queries skip engine construction and index
  builds.
* :mod:`repro.serve.answers` -- :class:`AnswerCache`: the LRU's epoch policy
  for frozen-engine answers, keyed by query fingerprint.
* :mod:`repro.serve.service` -- the request lifecycle both backends share
  (the :class:`Dispatcher` that routes requests to worker slots, one
  execution and one ending path) and :class:`PitexService`, the thread
  backend, which records p50/p95/p99 latency and throughput.
* :mod:`repro.serve.replay` -- workload replay: fire a seeded
  :meth:`QueryWorkload.query_stream` at a service and report a latency table
  (the ``pitex serve-replay`` command and ``bench_serving`` driver).
* :mod:`repro.serve.sharded` -- :class:`ProcessShardedService`: the
  process-pool backend -- one frozen engine replica per worker process,
  reconstructed from read-only ``mmap``'d store arrays, bitwise-equal to the
  thread backend (see ``docs/architecture.md``).

Safety contracts (details in each module's docstring): the store is safe to
share across threads *and* processes; both caches, both services and the
metrics objects are thread-safe; engines answer concurrent queries on one
stateless query path over a read-only snapshot of one graph version (writes
to the source graph reach only engines built after them) and over indexes
that fill once and are only read afterwards.
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
from repro.serve.cache import CacheStats, EngineCache, SingleFlightLRU
from repro.serve.answers import AnswerCache
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
    "CacheStats",
    "SingleFlightLRU",
    "EngineCache",
    "AnswerCache",
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
