"""Persistent on-disk store for the offline PITEX indexes.

The paper's offline/online split (Sec. 6) pays an expensive RR-Graph
materialization once so every later query is cheap -- but the seed engine
re-paid that cost in every process.  :class:`IndexStore` extends the split
across process boundaries: a built :class:`~repro.index.rr_index.RRGraphIndex`
or :class:`~repro.index.delayed.DelayedMaterializationIndex` is serialized to
one raw ``.npy`` file per flat array plus a JSON manifest, keyed on

* the graph *content fingerprint* (:meth:`TopicSocialGraph.fingerprint`),
* the graph ``version`` (mutation counter at build time),
* the tag-topic model's content hash, and
* the sampling parameter ``num_samples`` (theta).

A store lookup therefore hits only when the exact graph/model/parameters the
index was built for are presented again -- regenerating a synthetic dataset
from the same profile and seed reproduces the same fingerprint, which is what
makes the cold-process ``pitex serve-replay`` warm start work.

The manifest also records the integer seed the index was drawn from
(``index_seed``; ``null`` for an unseeded build).  A lookup that names a
seed loads only an entry drawn from exactly that seed, so an unseeded or
other-seed entry is a miss and ``load_or_build_*`` rebuilds the slot; a
lookup without a seed accepts whatever the slot holds.

Layout on disk (one directory per entry)::

    <root>/<key>/manifest.json       # provenance + each array's dtype, shape, CRC32
    <root>/<key>/arrays/<name>.npy   # one raw array per file, read as written

Writes go through a temporary directory and a final atomic rename, so a
crashed writer can never leave a half-entry that a later load would trust.
Loads only read: with ``mmap`` they map the ``.npy`` files read-only,
without it they read them into fresh buffers, and both check every array's
dtype, shape and CRC32 against the manifest.  A damaged or missing array is
a miss for an index entry and a :class:`StoreError` for a bundle.

Beyond the two index kinds, the store also persists *shared graph bundles*
(``kind="shared-graph"``): the CSR adjacency arrays, the probability matrix
and the tag-topic model of one dataset, keyed on graph fingerprint + model
hash.  Bundles are what the process-sharded serving backend
(:mod:`repro.serve.sharded`) hands to worker processes, which reconstruct
engine replicas from the same ``.npy`` files via
``np.load(..., mmap_mode="r")`` -- the float payload is then shared
page-cache memory across every worker instead of N copies.

Thread/process safety: the store holds no in-memory state beyond ``root``;
every method re-reads the disk, and writes are atomic-rename idempotent, so
any number of threads or processes may share one store directory.
"""

from __future__ import annotations

import json
import os
import shutil
import uuid
import zlib
from dataclasses import dataclass
from hashlib import sha256
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.exceptions import InvalidParameterError, StoreError
from repro.graph.digraph import TopicSocialGraph
from repro.index.delayed import DelayedMaterializationIndex
from repro.index.rr_index import RRGraphIndex
from repro.obs.clock import monotonic, wall_clock
from repro.obs.telemetry import counter
from repro.topics.model import TagTopicModel
from repro.utils.rng import SeedLike

FORMAT_VERSION = 2
KIND_RR = "rr-graphs"
KIND_DELAYED = "delaymat"
KIND_SHARED_GRAPH = "shared-graph"
KINDS = (KIND_RR, KIND_DELAYED)

MANIFEST_NAME = "manifest.json"
ARRAYS_DIR_NAME = "arrays"


@dataclass(frozen=True)
class StoreEntry:
    """One persisted index: its cache key, manifest and location."""

    key: str
    kind: str
    path: Path
    manifest: Dict

    @property
    def build_seconds(self) -> float:
        """Offline build time recorded at save time."""
        return float(self.manifest.get("build_seconds", 0.0))


def index_cache_key(
    kind: str,
    graph: TopicSocialGraph,
    model: TagTopicModel,
    num_samples: int,
) -> str:
    """The store key for an index of ``kind`` over (graph, model, theta)."""
    if kind not in KINDS:
        raise InvalidParameterError(f"unknown index kind {kind!r}; choose from {KINDS}")
    graph = graph.snapshot()  # the fingerprint and the version come from one version
    digest = sha256()
    digest.update(f"format={FORMAT_VERSION};kind={kind};".encode())
    digest.update(f"graph={graph.fingerprint()};version={graph.version};".encode())
    digest.update(f"model={model.content_hash()};theta={int(num_samples)}".encode())
    return digest.hexdigest()[:32]


def seed_tag(seed: SeedLike) -> Optional[int]:
    """The integer a build was seeded with, or ``None`` when it has none.

    Only a plain integer names a reproducible draw; an unseeded build, or
    one fed a generator, is recorded as unseeded and never matches a
    seeded lookup.
    """
    if isinstance(seed, (int, np.integer)) and not isinstance(seed, bool):
        return int(seed)
    return None


def graph_bundle_key(graph: TopicSocialGraph, model: TagTopicModel) -> str:
    """The store key of the shared graph+model bundle for (graph, model).

    Reads one version: the fingerprint and the version come from the same
    ``graph.snapshot()``.
    """
    graph = graph.snapshot()
    digest = sha256()
    digest.update(f"format={FORMAT_VERSION};kind={KIND_SHARED_GRAPH};".encode())
    digest.update(f"graph={graph.fingerprint()};version={graph.version};".encode())
    digest.update(f"model={model.content_hash()}".encode())
    return digest.hexdigest()[:32]


class IndexStore:
    """Load-or-build persistence for the offline indexes.

    Parameters
    ----------
    root:
        Directory holding the store (created on first save).
    """

    def __init__(self, root: Union[str, os.PathLike]) -> None:
        self.root = Path(root)

    # ------------------------------------------------------------------ paths
    def entry_path(self, key: str) -> Path:
        """Directory of the entry with cache key ``key``."""
        return self.root / key

    def entries(self) -> List[StoreEntry]:
        """All readable entries currently in the store."""
        found: List[StoreEntry] = []
        if not self.root.is_dir():
            return found
        for child in sorted(self.root.iterdir()):
            if child.name.startswith("."):
                continue  # in-flight staging dirs (.tmp-*) are not entries
            try:
                manifest = self._read_manifest(child.name)
            except StoreError:
                continue
            found.append(
                StoreEntry(key=child.name, kind=manifest.get("kind", "?"), path=child, manifest=manifest)
            )
        return found

    def clear(self) -> int:
        """Delete every entry; returns the number removed.

        Staging directories abandoned by a crashed writer (``.tmp-*``) are
        swept as well but not counted -- they were never readable entries.
        """
        removed = 0
        for entry in self.entries():
            shutil.rmtree(entry.path, ignore_errors=True)
            removed += 1
        if self.root.is_dir():
            for child in self.root.iterdir():
                if child.name.startswith(".tmp-"):
                    shutil.rmtree(child, ignore_errors=True)
        return removed

    # ------------------------------------------------------------------- save
    def _write_entry(self, key: str, manifest: Dict, arrays: Dict[str, np.ndarray]) -> StoreEntry:
        """Write one entry (manifest + one checked ``.npy`` per array) through a staging dir + atomic rename."""
        self.root.mkdir(parents=True, exist_ok=True)
        staging = self.root / f".tmp-{key}-{uuid.uuid4().hex[:8]}"
        (staging / ARRAYS_DIR_NAME).mkdir(parents=True)
        final = self.entry_path(key)
        manifest = dict(manifest, arrays={})
        try:
            for name, array in arrays.items():
                array = np.ascontiguousarray(array)
                np.save(staging / ARRAYS_DIR_NAME / f"{name}.npy", array, allow_pickle=False)
                manifest["arrays"][name] = {
                    "dtype": array.dtype.str,
                    "shape": list(array.shape),
                    "crc32": zlib.crc32(array),
                }
            (staging / MANIFEST_NAME).write_text(json.dumps(manifest, indent=2, sort_keys=True))
            if final.exists():
                shutil.rmtree(final)
            try:
                os.replace(staging, final)
            except OSError:
                # A concurrent writer landed the same key between our rmtree
                # and replace.  Same key => same content; their entry is as
                # good as ours, so treat the save as idempotent.
                if not (final / MANIFEST_NAME).is_file():
                    raise
        finally:
            shutil.rmtree(staging, ignore_errors=True)
        return StoreEntry(
            key=key, kind=manifest["kind"], path=self.entry_path(key), manifest=manifest
        )

    def _save(
        self,
        kind: str,
        graph: TopicSocialGraph,
        model: TagTopicModel,
        num_samples: int,
        arrays: Dict[str, np.ndarray],
        build_seconds: float,
        index_seed: Optional[int],
    ) -> StoreEntry:
        key = index_cache_key(kind, graph, model, num_samples)
        manifest = {
            "format": FORMAT_VERSION,
            "kind": kind,
            "key": key,
            "graph_fingerprint": graph.fingerprint(),
            "graph_version": graph.version,
            "num_vertices": graph.num_vertices,
            "num_edges": graph.num_edges,
            "model_hash": model.content_hash(),
            "num_samples": int(num_samples),
            "index_seed": seed_tag(index_seed),
            "build_seconds": float(build_seconds),
            "created_unix": wall_clock(),
        }
        return self._write_entry(key, manifest, arrays)

    def save_rr_index(
        self, index: RRGraphIndex, model: TagTopicModel, index_seed: Optional[int] = None
    ) -> StoreEntry:
        """Persist a built RR-Graph index drawn from ``index_seed`` (if any)."""
        return self._save(
            KIND_RR,
            index.graph,
            model,
            index.num_samples,
            index.to_arrays(),
            index.build_seconds,
            index_seed,
        )

    def save_delayed_index(
        self,
        index: DelayedMaterializationIndex,
        model: TagTopicModel,
        index_seed: Optional[int] = None,
    ) -> StoreEntry:
        """Persist a built delayed-materialization index drawn from ``index_seed``."""
        return self._save(
            KIND_DELAYED,
            index.graph,
            model,
            index.num_samples,
            index.to_arrays(),
            index.build_seconds,
            index_seed,
        )

    # ------------------------------------------------------------------- read
    def _read_manifest(self, key: str) -> Dict:
        """The decoded manifest of entry ``key``; :class:`StoreError` if absent or unreadable."""
        try:
            return json.loads((self.entry_path(key) / MANIFEST_NAME).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise StoreError(f"store entry {key!r} has no readable manifest: {exc}") from exc

    def _read_arrays(self, key: str, manifest: Dict, mmap: bool) -> Dict[str, np.ndarray]:
        """The arrays the manifest of entry ``key`` lists, each checked against its record.

        With ``mmap`` every array is a read-only ``np.memmap`` of its
        ``.npy`` file, shared page-cache memory across every process that
        maps it; without it, a fresh buffer.  Nothing is written.  An array
        whose dtype, shape or CRC32 differs from the manifest -- a flipped
        dtype character leaves the raw bytes and so the CRC unchanged -- or
        that any reader fails on raises :class:`StoreError`.
        """
        arrays_dir = self.entry_path(key) / ARRAYS_DIR_NAME
        arrays: Dict[str, np.ndarray] = {}
        for name, record in manifest.get("arrays", {}).items():
            try:
                array = np.load(
                    arrays_dir / f"{name}.npy", mmap_mode="r" if mmap else None, allow_pickle=False
                )
                intact = (
                    array.dtype.str == record["dtype"]
                    and list(array.shape) == record["shape"]
                    and zlib.crc32(array) == record["crc32"]
                )
            except Exception as exc:
                # OSError, EOFError, ValueError or a tokenizer error (an .npy
                # header), a BufferError, a malformed record: all one fault.
                raise StoreError(f"store entry {key!r}: array {name!r} is unreadable: {exc}") from exc
            if not intact:
                raise StoreError(f"store entry {key!r}: array {name!r} does not match its manifest")
            arrays[name] = array
        return arrays

    # ------------------------------------------------------------------- load
    def _load_arrays(
        self,
        kind: str,
        graph: TopicSocialGraph,
        model: TagTopicModel,
        num_samples: int,
        mmap: bool = False,
        index_seed: Optional[int] = None,
    ) -> Optional[Tuple[Dict[str, np.ndarray], Dict]]:
        key = index_cache_key(kind, graph, model, num_samples)
        try:
            manifest = self._read_manifest(key)
        except StoreError:
            return None
        # The key already encodes all of these; re-check so a hand-edited or
        # corrupted entry degrades to a miss instead of a wrong answer.
        if (
            manifest.get("format") != FORMAT_VERSION
            or manifest.get("kind") != kind
            or manifest.get("graph_fingerprint") != graph.fingerprint()
            or manifest.get("graph_version") != graph.version
            or manifest.get("model_hash") != model.content_hash()
            or manifest.get("num_samples") != int(num_samples)
        ):
            return None
        if index_seed is not None and manifest.get("index_seed") != int(index_seed):
            return None  # drawn from another seed, or unseeded
        try:
            return self._read_arrays(key, manifest, mmap), manifest
        except StoreError:
            return None  # a damaged or missing array is a miss

    def load_rr_index(
        self,
        graph: TopicSocialGraph,
        model: TagTopicModel,
        num_samples: int,
        mmap: bool = False,
        index_seed: Optional[int] = None,
    ) -> Optional[RRGraphIndex]:
        """The stored RR-Graph index for (graph, model, theta), or ``None``.

        With ``index_seed`` set, only an index drawn from exactly that seed
        loads.  With ``mmap=True`` the flat sample arrays are memory-mapped
        read-only instead of read into fresh buffers; the reconstructed index
        answers bitwise-identically either way (covered by
        ``tests/test_serve_process.py``).
        """
        graph = graph.snapshot()  # the version the manifest is checked against
        loaded = self._load_arrays(
            KIND_RR, graph, model, num_samples, mmap=mmap, index_seed=index_seed
        )
        if loaded is None:
            return None
        arrays, manifest = loaded
        return RRGraphIndex.from_arrays(
            graph, arrays, build_seconds=manifest.get("build_seconds", 0.0)
        )

    def load_delayed_index(
        self,
        graph: TopicSocialGraph,
        model: TagTopicModel,
        num_samples: int,
        mmap: bool = False,
        index_seed: Optional[int] = None,
    ) -> Optional[DelayedMaterializationIndex]:
        """The stored delayed index for (graph, model, theta), or ``None``.

        ``index_seed``, when set, admits only an index drawn from exactly
        that seed.
        """
        graph = graph.snapshot()  # the version the manifest is checked against
        loaded = self._load_arrays(
            KIND_DELAYED, graph, model, num_samples, mmap=mmap, index_seed=index_seed
        )
        if loaded is None:
            return None
        arrays, manifest = loaded
        return DelayedMaterializationIndex.from_arrays(
            graph, arrays, build_seconds=manifest.get("build_seconds", 0.0)
        )

    # --------------------------------------------------------- load or build
    def load_or_build_rr(
        self,
        graph: TopicSocialGraph,
        model: TagTopicModel,
        num_samples: int,
        seed: SeedLike = None,
    ) -> Tuple[RRGraphIndex, bool, float]:
        """Load the RR-Graph index if stored, else build and persist it.

        Returns ``(index, loaded, seconds)`` where ``loaded`` says whether the
        disk path was taken and ``seconds`` is the wall-clock cost of that
        path (load time or build time) -- the numbers ``bench_serving``
        compares.  An integer ``seed`` loads only an index drawn from that
        seed; ``None`` accepts whatever the slot holds.
        """
        started = monotonic()
        index = self.load_rr_index(graph, model, num_samples, index_seed=seed_tag(seed))
        if index is not None:
            seconds = monotonic() - started
            counter("store.load_or_build.loaded")
            return index, True, seconds
        index = RRGraphIndex(graph, num_samples, seed=seed).build()
        self.save_rr_index(index, model, index_seed=seed_tag(seed))
        seconds = monotonic() - started
        counter("store.load_or_build.built")
        return index, False, seconds

    def load_or_build_delayed(
        self,
        graph: TopicSocialGraph,
        model: TagTopicModel,
        num_samples: int,
        seed: SeedLike = None,
    ) -> Tuple[DelayedMaterializationIndex, bool, float]:
        """Load the delayed index if stored, else build and persist it.

        Seed matching works as in :meth:`load_or_build_rr`.
        """
        started = monotonic()
        index = self.load_delayed_index(graph, model, num_samples, index_seed=seed_tag(seed))
        if index is not None:
            seconds = monotonic() - started
            counter("store.load_or_build.loaded")
            return index, True, seconds
        index = DelayedMaterializationIndex(graph, num_samples, seed=seed).build()
        self.save_delayed_index(index, model, index_seed=seed_tag(seed))
        seconds = monotonic() - started
        counter("store.load_or_build.built")
        return index, False, seconds

    # --------------------------------------------------- shared graph bundles
    def save_graph_bundle(self, graph: TopicSocialGraph, model: TagTopicModel) -> StoreEntry:
        """Persist (graph, model) as a shared bundle; returns its entry.

        The bundle holds :meth:`TopicSocialGraph.to_shared_arrays` plus the
        model's matrix / prior / tag vocabulary, and is keyed by
        :func:`graph_bundle_key`.  Saving is idempotent: re-saving identical
        content lands on the same key.  Arrays, key and manifest all come
        from one ``graph.snapshot()``, so a write that lands mid-save never
        mixes two versions in one bundle.
        """
        graph = graph.snapshot()
        arrays: Dict[str, np.ndarray] = dict(graph.to_shared_arrays())
        arrays["model_matrix"] = np.ascontiguousarray(model.tag_topic_matrix, dtype=float)
        arrays["model_prior"] = np.ascontiguousarray(model.topic_prior, dtype=float)
        arrays["model_tags"] = np.asarray(model.tags, dtype=np.str_)
        key = graph_bundle_key(graph, model)
        manifest = {
            "format": FORMAT_VERSION,
            "kind": KIND_SHARED_GRAPH,
            "key": key,
            "graph_fingerprint": graph.fingerprint(),
            "graph_version": graph.version,
            "num_vertices": graph.num_vertices,
            "num_edges": graph.num_edges,
            "num_topics": graph.num_topics,
            "model_hash": model.content_hash(),
            "created_unix": wall_clock(),
        }
        return self._write_entry(key, manifest, arrays)

    def load_graph_bundle(
        self, key: str, mmap: bool = True
    ) -> Tuple[TopicSocialGraph, TagTopicModel, Dict]:
        """Reconstruct the (graph, model) of a shared bundle entry.

        With ``mmap=True`` (the default -- this is the worker-process path)
        the CSR arrays and both float matrices are read-only memory maps
        shared across every process that opens the same bundle.  The
        reconstructed graph fingerprint and model content hash are verified
        against the manifest, as is every array's dtype, shape and CRC32; a
        missing entry, a damaged array or a mismatch raises
        :class:`StoreError` rather than letting a corrupt bundle serve subtly
        wrong answers.
        """
        manifest = self._read_manifest(key)
        if manifest.get("kind") != KIND_SHARED_GRAPH or manifest.get("format") != FORMAT_VERSION:
            raise StoreError(
                f"store entry {key!r} is kind={manifest.get('kind')!r} "
                f"format={manifest.get('format')!r}, not a shared graph bundle"
            )
        arrays = self._read_arrays(key, manifest, mmap)
        graph = TopicSocialGraph.from_shared_arrays(arrays)
        model = TagTopicModel.from_shared_arrays(
            arrays["model_matrix"],
            arrays["model_prior"],
            [str(tag) for tag in arrays["model_tags"]],
        )
        if graph.fingerprint() != manifest.get("graph_fingerprint"):
            raise StoreError(f"bundle {key!r}: reconstructed graph fingerprint mismatch")
        if model.content_hash() != manifest.get("model_hash"):
            raise StoreError(f"bundle {key!r}: reconstructed model hash mismatch")
        return graph, model, manifest
