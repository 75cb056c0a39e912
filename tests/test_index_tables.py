"""The IndexEst+ cut tables, pinned array for array.

``build_pruning_tables`` (every user of an index at freeze time), the
single-user ``build_filter_structures`` (the lazy first-query path) and the
DelayMat per-user filters must all build the same structures: the same
posting arrays with the same dtypes, in the same order, and the same
uncuttable graphs.  The digests below pin those structures on instances that
stress the corners of the cut choice: the benchmark-size dataset under
several index seeds, RR-Graphs whose root has more than 64 in-slots, an index
without samples, a graph without edges, and users the index does not know.
"""

import hashlib

import numpy as np
import pytest

from repro.datasets.synthetic import load_dataset
from repro.graph.digraph import TopicSocialGraph
from repro.index.delayed import DelayedMaterializationIndex
from repro.index.pruning import PrunedIndexEstimator, build_filter_structures
from repro.index.rr_index import RRGraphIndex
from repro.index.tables import build_delayed_tables, build_pruning_tables
from repro.topics.model import TagTopicModel
from repro.utils.rng import RandomSource

from rr_views import graph_views

# sha256 over every user's structures (see ``tables_digest``).
BENCHMARK_TABLES = {
    1: "1b017eb5772d0d0544b9a1ed8e643aa8fa78399d52bf7f592fc1e779618a35f2",
    7: "acb5661a1e03960b8bbdc35535bebd627679fef1ee86a227123f9540667f798e",
    11: "0dda726f30e56b8c97311259b245c21de0782cb0001bdcf042fe56f94389eaea",
    2017: "a56ab17363be95af431de13a2ed7dcc7e6cb6e421ec368b8276f69eddf59d745",
}
WIDE_ROOT_TABLES = "abb099c9e73cb3f6c212756dbb3b2f45e91c6fb93d6a0eef90546985b98f1afc"
EMPTY_INDEX_TABLES = "64d23b75c419ce3349718ec8c1ef5fc6f3998babc317c524d096127989fc92a3"
EDGELESS_TABLES = "0b0e59d9ebe7128440bb73e60659243c71005f2db3f9b2e0331616e3509c8ad9"
UNKNOWN_USER_STRUCTURES = "a286f79e7ebe08d60ff1b6dfac3cba71e26b2f7e623021725471683612b35c03"
DELAYED_FILTERS = "52e04340adb4f2e074ba7ea2a7b31153f30f4758d3f19cb9104361fbca57db6f"
# sha256 over every user's recovered DelayMat block (see ``block_digest``).
DELAYED_BLOCKS = "4dbb524d69fa3a4f1aef217f65a37438a7707e4855fa59ce5db5cea2ad7f5c23"

# (memory_bytes, average_rr_graph_size.hex()) of the benchmark-size index
# under seed 7.
BENCHMARK_INDEX_STATS = (1557648, "0x1.e3428f5c28f5cp+6")


def hash_structures(hasher, user, structures):
    """Feed one user's posting arrays (dtype, shape, bytes) and always set."""
    hasher.update(f"user {user};".encode())
    for array in (
        structures.edge_ids,
        structures.thresholds,
        structures.rr_indices,
        structures.edge_last,
    ):
        hasher.update(f"{array.dtype.str}{array.shape};".encode())
        hasher.update(np.ascontiguousarray(array).tobytes())
    hasher.update(f"always {sorted(structures.always_candidates)};".encode())


def hash_block(hasher, user, block):
    """Feed one block's sizes, every public array attribute, its weights and root reach."""
    hasher.update(f"user {user}; {block.num_graphs} {block.num_nodes} {block.stride};".encode())
    arrays = {name: value for name, value in vars(block).items() if isinstance(value, np.ndarray)}
    arrays = {name: value for name, value in arrays.items() if not name.startswith("_")}
    arrays["weights"] = np.asarray(block.weights, dtype=np.float64)
    arrays["root_reach"] = block.root_reach()
    for name in sorted(arrays):
        array = arrays[name]
        hasher.update(f"{name}|{array.dtype.str}{array.shape};".encode())
        hasher.update(np.ascontiguousarray(array).tobytes())


def tables_digest(tables):
    """sha256 over ``{user: structures}`` in user order."""
    hasher = hashlib.sha256()
    for user in sorted(tables):
        hash_structures(hasher, user, tables[user])
    return hasher.hexdigest()


def assert_same_structures(left, right):
    for name in ("edge_ids", "thresholds", "rr_indices", "edge_last"):
        a, b = getattr(left, name), getattr(right, name)
        assert a.dtype == b.dtype, name
        assert a.shape == b.shape, name
        assert np.array_equal(a, b), name
    assert left.always_candidates == right.always_candidates


def assert_tables_match_single_user_path(index, tables, max_probabilities):
    assert sorted(tables) == sorted(index.containment)
    block = index.block()
    for user, graphs in index.containment.items():
        single = build_filter_structures(block, user, graphs, max_probabilities)
        assert_same_structures(tables[user], single)


@pytest.fixture(scope="module")
def benchmark_graph():
    """The benchmark's dataset: lastfm profile, scale 0.35, 25 tags."""
    return load_dataset("lastfm", scale=0.35, num_tags=25, seed=2017).graph


@pytest.mark.parametrize("seed", sorted(BENCHMARK_TABLES))
def test_benchmark_tables_are_pinned(benchmark_graph, seed):
    graph = benchmark_graph
    index = RRGraphIndex(graph, 200, seed=seed).build()
    maxima = graph.max_edge_probabilities()
    tables = build_pruning_tables(index, maxima)
    assert_tables_match_single_user_path(index, tables, maxima)
    assert tables_digest(tables) == BENCHMARK_TABLES[seed]


def test_index_stats_are_pinned(benchmark_graph):
    index = RRGraphIndex(benchmark_graph, 200, seed=7).build()
    views = graph_views(index.to_arrays())
    # Per graph: 8 bytes per vertex id, 4 numbers of 8 bytes per stored edge.
    per_graph = sum(8 * len(rr.vertices) + 32 * len(rr.edge_ids) for rr in views)
    containment = 8 * sum(len(graphs) for graphs in index.containment.values())
    assert index.memory_bytes() == per_graph + containment
    mean_size = float(np.mean([len(rr.vertices) for rr in views]))
    assert index.average_rr_graph_size() == mean_size
    assert (index.memory_bytes(), index.average_rr_graph_size().hex()) == BENCHMARK_INDEX_STATS


def wide_root_graph():
    """150 chained feeders each pointing at 12 hubs: a hub root has ~140 in-slots."""
    feeders, hubs = 150, 12
    graph = TopicSocialGraph(feeders + hubs, 2)
    for feeder in range(feeders):
        for hub in range(hubs):
            high = 0.9 + 0.1 * ((7 * feeder + 3 * hub) % 10) / 10.0
            graph.add_edge(feeder, feeders + hub, [high, 0.5 * high])
        if feeder + 1 < feeders:
            graph.add_edge(feeder, feeder + 1, [0.3, 0.6])
    return graph


def test_wide_root_tables_use_several_words():
    graph = wide_root_graph()
    index = RRGraphIndex(graph, 40, seed=5).build()
    assert int(np.diff(index.block().root_in_indptr).max()) > 128
    maxima = graph.max_edge_probabilities()
    tables = build_pruning_tables(index, maxima)
    assert_tables_match_single_user_path(index, tables, maxima)
    assert tables_digest(tables) == WIDE_ROOT_TABLES


def test_index_without_samples_has_empty_tables():
    graph = wide_root_graph()
    index = RRGraphIndex(graph, 0, seed=5).build()
    maxima = graph.max_edge_probabilities()
    assert build_pruning_tables(index, maxima) == {}
    structures = build_filter_structures(index.block(), 3, [], maxima)
    assert structures.edge_ids.size == 0 and not structures.always_candidates
    assert tables_digest({3: structures}) == EMPTY_INDEX_TABLES


def test_edgeless_graph_tables_are_all_uncuttable():
    graph = TopicSocialGraph(6, 2)
    index = RRGraphIndex(graph, 20, seed=2).build()
    tables = build_pruning_tables(index, graph.max_edge_probabilities())
    for user, structures in tables.items():
        assert structures.edge_ids.size == 0
        assert structures.always_candidates == set(index.graphs_containing(user))
    assert tables_digest(tables) == EDGELESS_TABLES


def test_unknown_users_get_empty_structures(benchmark_graph):
    graph = benchmark_graph
    index = RRGraphIndex(graph, 4, seed=3).build()
    maxima = graph.max_edge_probabilities()
    outside = [user for user in range(graph.num_vertices) if user not in index.containment]
    assert outside
    model = TagTopicModel(np.full((2, 1), 0.5))
    estimator = PrunedIndexEstimator(graph, model, index)
    block = index.block()
    structures = {
        "outside": estimator._structures_for(outside[0]),
        "negative": build_filter_structures(block, -1, [0, 1, 2], maxima),
        "too-large": build_filter_structures(block, graph.num_vertices + 5, [0, 3], maxima),
        "outside-with-graphs": build_filter_structures(block, outside[1], [0, 1, 2, 3], maxima),
    }
    hasher = hashlib.sha256()
    for name in sorted(structures):
        assert structures[name].edge_ids.size == 0
        assert not structures[name].always_candidates
        hash_structures(hasher, name, structures[name])
    assert hasher.hexdigest() == UNKNOWN_USER_STRUCTURES


def test_delayed_filters_match_single_user_path():
    dataset = load_dataset("lastfm", scale=0.07, seed=2017)
    graph = dataset.graph
    index = DelayedMaterializationIndex(graph, 60, seed=3).build()
    maxima = graph.max_edge_probabilities()
    blocks, filters = build_delayed_tables(
        index, maxima, lambda user: RandomSource(10_000 + user)
    )
    assert sorted(filters) == sorted(index.containment_counts)
    for user, block in blocks.items():
        single = build_filter_structures(block, user, range(block.num_graphs), maxima)
        assert_same_structures(filters[user], single)
    assert tables_digest(filters) == DELAYED_FILTERS


def test_delayed_recovery_is_pinned():
    """The recovered DelayMat blocks themselves, not only the answers matched on them."""
    graph = load_dataset("lastfm", scale=0.07, seed=2017).graph
    index = DelayedMaterializationIndex(graph, 60, seed=3).build()
    blocks, _ = build_delayed_tables(
        index, graph.max_edge_probabilities(), lambda user: RandomSource(10_000 + user)
    )
    assert sorted(blocks) == sorted(index.containment_counts)
    hasher = hashlib.sha256()
    for user in sorted(blocks):
        assert blocks[user].num_graphs == index.containment_count(user)
        hash_block(hasher, user, blocks[user])
    assert hasher.hexdigest() == DELAYED_BLOCKS
