"""Tests for the persistent index store (repro.serve.store).

The load-bearing property: a loaded index answers *bitwise identically* to the
index that was saved, and a store lookup never matches across a graph
mutation, a different model, different sampling parameters, or a different
index seed.
"""

import json

import numpy as np
import pytest

from repro.core.engine import PitexEngine
from repro.datasets.synthetic import load_dataset
from repro.exceptions import InvalidParameterError, StoreError
from repro.graph.digraph import TopicSocialGraph
from repro.index.delayed import DelayedIndexEstimator, DelayedMaterializationIndex
from repro.index.rr_index import RRGraphIndex
from repro.serve.store import FORMAT_VERSION, MANIFEST_NAME, IndexStore, index_cache_key

from rr_views import graph_views


@pytest.fixture(scope="module")
def dataset():
    return load_dataset("lastfm", scale=0.08, seed=11)


@pytest.fixture
def store(tmp_path):
    return IndexStore(tmp_path / "store")


def _sample_probabilities(dataset):
    return dataset.model.edge_probabilities(dataset.graph, [0, 1])


def test_rr_index_roundtrip_is_bitwise_equal(dataset, store):
    graph, model = dataset.graph, dataset.model
    built = RRGraphIndex(graph, 80, seed=3).build()
    store.save_rr_index(built, model)
    loaded = store.load_rr_index(graph, model, 80)
    assert loaded is not None and loaded.is_built
    assert loaded.num_samples == built.num_samples
    assert loaded.containment == built.containment
    loaded_graphs, built_graphs = graph_views(loaded.to_arrays()), graph_views(built.to_arrays())
    assert [rr.root for rr in loaded_graphs] == [rr.root for rr in built_graphs]
    assert [rr.vertices for rr in loaded_graphs] == [rr.vertices for rr in built_graphs]
    probabilities = _sample_probabilities(dataset)
    for user in range(0, graph.num_vertices, 7):
        original = built.estimate(user, probabilities)
        reloaded = loaded.estimate(user, probabilities)
        assert original.value == reloaded.value
        assert original.num_samples == reloaded.num_samples
        assert original.edges_visited == reloaded.edges_visited


def test_delayed_index_roundtrip_matches_with_shared_seed(dataset, store):
    graph, model = dataset.graph, dataset.model
    built = DelayedMaterializationIndex(graph, 80, seed=3).build()
    store.save_delayed_index(built, model)
    loaded = store.load_delayed_index(graph, model, 80)
    assert loaded is not None and loaded.is_built
    assert loaded.containment_counts == built.containment_counts
    probabilities = _sample_probabilities(dataset)
    users = [u for u in range(graph.num_vertices) if built.containment_counts.get(u)][:4]
    for user in users:
        original = DelayedIndexEstimator(graph, model, built, seed=21)
        reloaded = DelayedIndexEstimator(graph, model, loaded, seed=21)
        a = original.estimate_with_probabilities(user, probabilities)
        b = reloaded.estimate_with_probabilities(user, probabilities)
        assert a.value == b.value


def test_engine_query_results_equal_with_loaded_index(dataset, store):
    graph, model = dataset.graph, dataset.model
    built = RRGraphIndex(graph, 80, seed=3).build()
    store.save_rr_index(built, model)
    loaded = store.load_rr_index(graph, model, 80)
    warm = PitexEngine(graph, model, max_samples=50, index_samples=80, default_k=2, seed=9, rr_index=loaded)
    cold = PitexEngine(graph, model, max_samples=50, index_samples=80, default_k=2, seed=9, rr_index=built)
    for user in dataset.workload("mid", 2):
        a = warm.query(user=user, k=2, method="indexest")
        b = cold.query(user=user, k=2, method="indexest")
        assert a.tag_ids == b.tag_ids
        assert a.spread == b.spread


def test_lookup_misses_when_graph_version_changes(dataset, store):
    graph, model = dataset.graph, dataset.model
    key_before = index_cache_key("rr-graphs", graph, model, 40)
    mutated = graph.copy()
    index = RRGraphIndex(mutated, 40, seed=1).build()
    store.save_rr_index(index, model)
    assert store.load_rr_index(mutated, model, 40) is not None
    source, target = next(
        (s, t)
        for s in mutated.vertices()
        for t in mutated.vertices()
        if s != t and not mutated.has_edge(s, t)
    )
    mutated.add_edge(source, target, [0.1] * mutated.num_topics)
    assert store.load_rr_index(mutated, model, 40) is None
    assert index_cache_key("rr-graphs", mutated, model, 40) != key_before


def test_a_write_mid_key_leaves_one_whole_version(dataset, monkeypatch):
    """A write that lands between the fingerprint and the version read never splits the key."""
    source = dataset.graph.copy()
    expected = index_cache_key("rr-graphs", source.snapshot(), dataset.model, 40)
    vertices = list(source.vertices())
    write = next((s, t) for s in vertices for t in vertices if s != t and not source.has_edge(s, t))
    original = TopicSocialGraph.fingerprint

    def fingerprint_then_write(self):
        result = original(self)
        if not source.has_edge(*write):
            source.add_edge(*write, [0.5] * source.num_topics)
        return result

    monkeypatch.setattr(TopicSocialGraph, "fingerprint", fingerprint_then_write)
    key = index_cache_key("rr-graphs", source, dataset.model, 40)
    monkeypatch.undo()
    assert source.has_edge(*write)  # the write did land mid-key
    assert key == expected


def test_lookup_keyed_on_model_and_theta(dataset, store):
    graph, model = dataset.graph, dataset.model
    index = RRGraphIndex(graph, 40, seed=1).build()
    store.save_rr_index(index, model)
    assert store.load_rr_index(graph, model, 40) is not None
    assert store.load_rr_index(graph, model, 41) is None
    other_matrix = model.tag_topic_matrix.copy()
    other_matrix[0, 0] += 0.05
    from repro.topics.model import TagTopicModel

    other_model = TagTopicModel(other_matrix, tags=model.tags)
    assert store.load_rr_index(graph, other_model, 40) is None


def test_corrupted_manifest_degrades_to_miss(dataset, store):
    graph, model = dataset.graph, dataset.model
    index = RRGraphIndex(graph, 30, seed=1).build()
    entry = store.save_rr_index(index, model)
    manifest = json.loads((entry.path / MANIFEST_NAME).read_text())
    manifest["graph_fingerprint"] = "tampered"
    (entry.path / MANIFEST_NAME).write_text(json.dumps(manifest))
    assert store.load_rr_index(graph, model, 30) is None


def test_load_or_build_builds_once_then_loads(dataset, store):
    graph, model = dataset.graph, dataset.model
    first, loaded_first, _ = store.load_or_build_rr(graph, model, 40, seed=2)
    assert not loaded_first and first.is_built
    second, loaded_second, _ = store.load_or_build_rr(graph, model, 40, seed=2)
    assert loaded_second
    assert second.containment == first.containment
    delayed, loaded_delayed, _ = store.load_or_build_delayed(graph, model, 40, seed=2)
    assert not loaded_delayed and delayed.is_built
    again, loaded_again, _ = store.load_or_build_delayed(graph, model, 40, seed=2)
    assert loaded_again and again.containment_counts == delayed.containment_counts


def _same_arrays(left, right):
    return left.keys() == right.keys() and all(
        np.array_equal(left[name], right[name]) for name in left
    )


def test_load_or_build_only_loads_the_seed_it_asks_for(dataset, store):
    graph, model = dataset.graph, dataset.model
    _, loaded, _ = store.load_or_build_rr(graph, model, 50, seed=7)
    assert not loaded
    eight, loaded, _ = store.load_or_build_rr(graph, model, 50, seed=8)
    assert not loaded
    fresh_eight = RRGraphIndex(graph, 50, seed=8).build().to_arrays()
    assert _same_arrays(eight.to_arrays(), fresh_eight)
    again, loaded, _ = store.load_or_build_rr(graph, model, 50, seed=8)
    assert loaded and _same_arrays(again.to_arrays(), fresh_eight)
    assert store.load_rr_index(graph, model, 50, index_seed=7) is None
    assert store.load_rr_index(graph, model, 50, index_seed=8) is not None
    # A lookup that names no seed takes whatever the slot holds.
    assert _same_arrays(store.load_rr_index(graph, model, 50).to_arrays(), fresh_eight)

    delayed_seven, _, _ = store.load_or_build_delayed(graph, model, 50, seed=7)
    delayed_eight, loaded, _ = store.load_or_build_delayed(graph, model, 50, seed=8)
    assert not loaded
    fresh = DelayedMaterializationIndex(graph, 50, seed=8).build().to_arrays()
    assert _same_arrays(delayed_eight.to_arrays(), fresh)
    assert not _same_arrays(delayed_seven.to_arrays(), fresh)


def test_unseeded_entries_never_match_a_seeded_lookup(dataset, store):
    graph, model = dataset.graph, dataset.model
    store.save_rr_index(RRGraphIndex(graph, 40, seed=3).build(), model)
    assert store.load_rr_index(graph, model, 40) is not None
    assert store.load_rr_index(graph, model, 40, index_seed=3) is None
    _, loaded, _ = store.load_or_build_rr(graph, model, 40, seed=3)
    assert not loaded
    _, loaded, _ = store.load_or_build_rr(graph, model, 40, seed=None)
    assert loaded  # an unseeded request accepts the seed-3 entry


def test_published_spec_loads_only_its_own_seed(dataset, store):
    from repro.exceptions import StoreError
    from repro.serve.sharded import build_engine_from_spec, publish_engine_spec

    graph, model = dataset.graph, dataset.model

    def publish(index_seed):
        return publish_engine_spec(
            store,
            graph,
            model,
            engine_seed=5,
            index_samples=30,
            methods=("indexest",),
            max_samples=20,
            index_seed=index_seed,
        )

    seven = publish(7)
    eight = publish(8)
    assert (seven.index_seed, eight.index_seed) == (7, 8)
    replica = build_engine_from_spec(eight)
    fresh = RRGraphIndex(graph, 30, seed=8).build().to_arrays()
    assert _same_arrays(replica.rr_index.to_arrays(), fresh)
    with pytest.raises(StoreError, match="seed=7"):
        build_engine_from_spec(seven)  # the slot now holds seed 8's draws


def test_entries_and_clear(dataset, store):
    graph, model = dataset.graph, dataset.model
    store.save_rr_index(RRGraphIndex(graph, 20, seed=1).build(), model)
    store.save_delayed_index(DelayedMaterializationIndex(graph, 20, seed=1).build(), model)
    kinds = sorted(entry.kind for entry in store.entries())
    assert kinds == ["delaymat", "rr-graphs"]
    assert store.clear() == 2
    assert store.entries() == []


def test_unknown_kind_rejected(dataset):
    with pytest.raises(InvalidParameterError):
        index_cache_key("bogus", dataset.graph, dataset.model, 10)


def test_prebuilt_index_must_match_graph_instance(dataset):
    graph, model = dataset.graph, dataset.model
    other = graph.copy()
    index = RRGraphIndex(other, 20, seed=1).build()
    with pytest.raises(InvalidParameterError):
        PitexEngine(graph, model, index_samples=20, rr_index=index)


def test_prebuilt_index_must_match_engine_theta(dataset):
    graph, model = dataset.graph, dataset.model
    index = RRGraphIndex(graph, 20, seed=1).build()
    with pytest.raises(InvalidParameterError, match="index_samples"):
        PitexEngine(graph, model, index_samples=50, rr_index=index)


def _truncate(path):
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])


def _flip_dtype(path):
    """Change the dtype character in an ``.npy`` header; the raw bytes stay as they are."""
    data = path.read_bytes()
    at = data.index(b"'descr': '") + len(b"'descr': '") + 1
    swapped = {ord("f"): b"i", ord("i"): b"u", ord("U"): b"S"}
    path.write_bytes(data[:at] + swapped[data[at]] + data[at + 1 :])


CORRUPTIONS = {
    "truncated": _truncate,
    "empty": lambda path: path.write_bytes(b""),
    "garbage": lambda path: path.write_bytes(b"not an npy file" * 8),
    "missing": lambda path: path.unlink(),
    "dtype": _flip_dtype,
}
INDEX_KINDS = {
    "rr": (RRGraphIndex, "save_rr_index", "load_rr_index", "load_or_build_rr"),
    "delayed": (
        DelayedMaterializationIndex,
        "save_delayed_index",
        "load_delayed_index",
        "load_or_build_delayed",
    ),
}


def _array_files(entry):
    files = sorted((entry.path / "arrays").glob("*.npy"))
    assert sorted(path.stem for path in files) == sorted(entry.manifest["arrays"])
    return files


def _tree(root):
    """Every path under ``root`` with its mtime and size."""
    return {
        str(path.relative_to(root)): (path.stat().st_mtime_ns, path.stat().st_size)
        for path in sorted(root.rglob("*"))
    }


@pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
@pytest.mark.parametrize("kind", sorted(INDEX_KINDS))
def test_damaged_arrays_load_as_a_miss_and_rebuild(dataset, store, kind, corruption):
    """A truncated, empty, garbage, missing or retyped ``arrays/*.npy`` is a miss, never a raise."""
    graph, model = dataset.graph, dataset.model
    index_class, save, load, load_or_build = INDEX_KINDS[kind]
    entry = getattr(store, save)(index_class(graph, 30, seed=3).build(), model, index_seed=3)
    for path in _array_files(entry):
        pristine = path.read_bytes()
        CORRUPTIONS[corruption](path)
        assert getattr(store, load)(graph, model, 30) is None, path.name
        assert getattr(store, load)(graph, model, 30, mmap=True) is None, path.name
        path.write_bytes(pristine)
    assert getattr(store, load)(graph, model, 30) is not None

    CORRUPTIONS[corruption](_array_files(entry)[0])
    rebuilt, loaded, _ = getattr(store, load_or_build)(graph, model, 30, seed=3)
    assert not loaded and rebuilt.is_built
    assert getattr(store, load)(graph, model, 30) is not None
    assert getattr(store, load)(graph, model, 30, mmap=True) is not None
    _, loaded_again, _ = getattr(store, load_or_build)(graph, model, 30, seed=3)
    assert loaded_again


@pytest.mark.parametrize("kind", sorted(INDEX_KINDS))
def test_bit_flipped_arrays_never_raise(dataset, store, kind):
    """Flipped bytes anywhere in any ``arrays/*.npy``, headers included, load as a miss.

    A flip in an ``.npy`` header breaks its parse or changes the dtype or
    shape the manifest records; a flip in the data changes the CRC32.
    """
    graph, model = dataset.graph, dataset.model
    index_class, save, load, _ = INDEX_KINDS[kind]
    entry = getattr(store, save)(index_class(graph, 30, seed=3).build(), model)
    for path in _array_files(entry):
        pristine = path.read_bytes()
        for offset in range(0, len(pristine), max(1, len(pristine) // 64)):
            damaged = bytearray(pristine)
            for position in range(offset, min(offset + 8, len(damaged))):
                damaged[position] ^= 0xFF
            path.write_bytes(bytes(damaged))
            for mmap in (False, True):
                assert getattr(store, load)(graph, model, 30, mmap=mmap) is None, (path.name, offset)
        path.write_bytes(pristine)
    assert getattr(store, load)(graph, model, 30) is not None


@pytest.mark.parametrize("kind", sorted(INDEX_KINDS))
def test_truncated_mapped_sidecar_loads_as_a_miss(dataset, store, kind):
    """The mapped and the in-memory load read the same files, so both miss."""
    graph, model = dataset.graph, dataset.model
    index_class, save, load, _ = INDEX_KINDS[kind]
    entry = getattr(store, save)(index_class(graph, 30, seed=3).build(), model)
    assert getattr(store, load)(graph, model, 30, mmap=True) is not None
    for path in _array_files(entry):
        _truncate(path)
    assert getattr(store, load)(graph, model, 30, mmap=True) is None
    assert getattr(store, load)(graph, model, 30) is None


def test_loads_write_nothing_into_the_store(dataset, store):
    graph, model = dataset.graph, dataset.model
    store.save_rr_index(RRGraphIndex(graph, 30, seed=3).build(), model)
    store.save_delayed_index(DelayedMaterializationIndex(graph, 30, seed=3).build(), model)
    bundle = store.save_graph_bundle(graph, model)
    before = _tree(store.root)
    for mmap in (False, True):
        assert store.load_rr_index(graph, model, 30, mmap=mmap) is not None
        assert store.load_delayed_index(graph, model, 30, mmap=mmap) is not None
        store.load_graph_bundle(bundle.key, mmap=mmap)
    assert _tree(store.root) == before


def test_a_format_1_npz_entry_is_a_miss_and_rebuilds(dataset, store):
    """An entry in the old layout (one compressed ``arrays.npz``) is never read."""
    import shutil

    graph, model = dataset.graph, dataset.model
    index = RRGraphIndex(graph, 30, seed=3).build()
    entry = store.save_rr_index(index, model, index_seed=3)
    shutil.rmtree(entry.path / "arrays")
    with open(entry.path / "arrays.npz", "wb") as handle:
        np.savez_compressed(handle, **index.to_arrays())  # what format 1 wrote
    manifest = {name: value for name, value in entry.manifest.items() if name != "arrays"}
    manifest.update(format=1, arrays_file="arrays.npz")
    (entry.path / MANIFEST_NAME).write_text(json.dumps(manifest))
    assert store.load_rr_index(graph, model, 30) is None
    assert store.load_rr_index(graph, model, 30, mmap=True) is None

    rebuilt, loaded, _ = store.load_or_build_rr(graph, model, 30, seed=3)
    assert not loaded and rebuilt.is_built
    assert json.loads((entry.path / MANIFEST_NAME).read_text())["format"] == FORMAT_VERSION
    assert not (entry.path / "arrays.npz").exists()
    assert store.load_or_build_rr(graph, model, 30, seed=3)[1]


@pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
def test_damaged_bundle_arrays_raise_store_error(dataset, store, corruption):
    """A bundle with a damaged array, a retyped one included, raises on both paths."""
    graph, model = dataset.graph, dataset.model
    entry = store.save_graph_bundle(graph, model)
    for path in _array_files(entry):
        pristine = path.read_bytes()
        CORRUPTIONS[corruption](path)
        for mmap in (False, True):
            with pytest.raises(StoreError):
                store.load_graph_bundle(entry.key, mmap=mmap)
        path.write_bytes(pristine)
    store.load_graph_bundle(entry.key)
