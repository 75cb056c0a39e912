"""Tests for repro.graph.digraph."""

import threading

import numpy as np
import pytest

from repro.exceptions import GraphError, ReadOnlyGraphError, UnknownEdgeError, UnknownVertexError
from repro.graph.digraph import TopicSocialGraph


def make_triangle():
    graph = TopicSocialGraph(3, 2)
    graph.add_edge(0, 1, [0.5, 0.2])
    graph.add_edge(1, 2, [0.0, 0.9])
    graph.add_edge(2, 0, [0.3, 0.3])
    return graph


def test_basic_sizes_and_density():
    graph = make_triangle()
    assert graph.num_vertices == 3
    assert graph.num_edges == 3
    assert graph.num_topics == 2
    assert graph.density() == pytest.approx(1.0)


def test_constructor_rejects_bad_sizes():
    with pytest.raises(GraphError):
        TopicSocialGraph(0, 2)
    with pytest.raises(GraphError):
        TopicSocialGraph(3, 0)


def test_constructor_rejects_wrong_label_count():
    with pytest.raises(GraphError):
        TopicSocialGraph(3, 2, vertex_labels=["a", "b"])


def test_add_edge_rejects_self_loop_duplicate_and_bad_probabilities():
    graph = TopicSocialGraph(3, 2)
    with pytest.raises(GraphError):
        graph.add_edge(0, 0, [0.1, 0.1])
    graph.add_edge(0, 1, [0.1, 0.1])
    with pytest.raises(GraphError):
        graph.add_edge(0, 1, [0.2, 0.2])
    with pytest.raises(GraphError):
        graph.add_edge(1, 2, [0.1])
    with pytest.raises(GraphError):
        graph.add_edge(1, 2, [1.5, 0.0])
    with pytest.raises(UnknownVertexError):
        graph.add_edge(0, 9, [0.1, 0.1])


def test_neighbors_and_degrees():
    graph = make_triangle()
    assert [graph.edge_endpoints(e)[1] for e in graph.out_edges(0)] == [1]
    assert [graph.edge_endpoints(e)[0] for e in graph.in_edges(0)] == [2]
    assert graph.out_degree(0) == 1
    assert list(graph.out_degrees()) == [1, 1, 1]


def test_edge_lookup_and_endpoints():
    graph = make_triangle()
    edge_id = graph.edge_id(1, 2)
    assert graph.edge_endpoints(edge_id) == (1, 2)
    assert graph.has_edge(1, 2)
    assert not graph.has_edge(2, 1)
    with pytest.raises(UnknownEdgeError):
        graph.edge_id(2, 1)
    with pytest.raises(UnknownEdgeError):
        graph.edge_endpoints(99)


def test_probability_matrix_and_max_probabilities():
    graph = make_triangle()
    matrix = graph.probability_matrix
    assert matrix.shape == (3, 2)
    maxima = graph.max_edge_probabilities()
    assert maxima[graph.edge_id(1, 2)] == pytest.approx(0.9)
    assert maxima[graph.edge_id(0, 1)] == pytest.approx(0.5)


def test_edge_probabilities_under_posterior():
    graph = make_triangle()
    posterior = np.array([0.25, 0.75])
    probabilities = graph.edge_probabilities_under(posterior)
    expected = graph.probability_matrix @ posterior
    assert np.allclose(probabilities, expected)
    single = graph.edge_probability_under(graph.edge_id(0, 1), posterior)
    assert single == pytest.approx(0.5 * 0.25 + 0.2 * 0.75)


def test_edge_probabilities_under_wrong_length_raises():
    graph = make_triangle()
    with pytest.raises(GraphError):
        graph.edge_probabilities_under([0.5])


def test_labels_roundtrip():
    graph = TopicSocialGraph(2, 1, vertex_labels=["alice", "bob"])
    graph.add_edge(0, 1, [0.3])
    assert graph.label_of(0) == "alice"
    assert graph.label_of(1) == "bob"
    with pytest.raises(UnknownVertexError):
        graph.label_of(2)


def test_copy_is_deep():
    graph = make_triangle()
    clone = graph.copy()
    assert clone.num_edges == graph.num_edges
    clone.add_edge(0, 2, [0.1, 0.1])
    assert clone.num_edges == graph.num_edges + 1


def test_from_edges_builder_and_memory():
    graph = TopicSocialGraph.from_edges(3, 1, [(0, 1, [0.5]), (1, 2, [0.5])])
    assert graph.num_edges == 2
    assert graph.memory_bytes() > 0


def test_probability_matrix_empty_graph():
    graph = TopicSocialGraph(3, 2)
    assert graph.probability_matrix.shape == (0, 2)
    assert graph.max_edge_probabilities().shape == (0,)
    assert graph.edge_probabilities_under([0.5, 0.5]).shape == (0,)


def test_fingerprint_is_stable_and_content_addressed():
    graph = make_triangle()
    first = graph.fingerprint()
    assert first == graph.fingerprint()  # cached per version, stable
    twin = make_triangle()
    assert twin.fingerprint() == first  # same construction => same fingerprint
    reordered = TopicSocialGraph(3, 2)
    reordered.add_edge(1, 2, [0.0, 0.9])
    reordered.add_edge(0, 1, [0.5, 0.2])
    reordered.add_edge(2, 0, [0.3, 0.3])
    assert reordered.fingerprint() != first  # edge ids differ => different index keys


def test_fingerprint_changes_on_mutation():
    graph = make_triangle()
    before = graph.fingerprint()
    version = graph.version
    graph.add_edge(0, 2, [0.1, 0.1])
    assert graph.version == version + 1
    assert graph.fingerprint() != before


# ---------------------------------------------------------------- snapshots
def test_snapshot_is_one_object_per_version():
    graph = make_triangle()
    first = graph.snapshot()
    assert graph.snapshot() is first
    assert first.snapshot() is first  # a snapshot's snapshot is itself
    assert first.version == graph.version
    fingerprint = first.fingerprint()
    graph.add_edge(0, 2, [0.1, 0.1])
    second = graph.snapshot()
    assert second is not first and second.version == graph.version == first.version + 1
    assert second.has_edge(0, 2) and not first.has_edge(0, 2)
    # The write went to copies: the first snapshot still is the old version.
    assert first.num_edges == 3 and first.out_edges(0) == [0] and first.in_edges(2) == [1]
    assert first.fingerprint() == fingerprint != second.fingerprint()


def test_snapshot_shares_the_version_arrays_bit_for_bit():
    graph = make_triangle()
    snapshot = graph.snapshot()
    assert snapshot.fingerprint() == graph.fingerprint()
    assert snapshot.vertex_labels == graph.vertex_labels
    assert snapshot.probability_matrix.tobytes() == graph.probability_matrix.tobytes()
    assert np.shares_memory(snapshot.probability_matrix, graph.probability_matrix)
    for name in (
        "edge_sources",
        "edge_targets",
        "out_indptr",
        "out_targets",
        "out_edge_ids",
        "in_indptr",
        "in_sources",
        "in_edge_ids",
    ):
        ours, theirs = getattr(snapshot.csr, name), getattr(graph.csr, name)
        assert ours.tobytes() == theirs.tobytes(), name
        assert np.shares_memory(ours, theirs), name
    for vertex in graph.vertices():
        assert snapshot.out_edges(vertex) == graph.out_edges(vertex)
        assert snapshot.in_edges(vertex) == graph.in_edges(vertex)


def test_snapshot_is_read_only():
    graph = make_triangle()
    snapshot = graph.snapshot()
    with pytest.raises(ReadOnlyGraphError):
        snapshot.add_edge(0, 2, [0.1, 0.1])
    assert snapshot.num_edges == graph.num_edges == 3
    assert snapshot.copy().add_edge(0, 2, [0.1, 0.1]) == 3  # a copy is writable


def test_snapshot_taken_during_add_edge_is_one_whole_version():
    """``snapshot`` waits for a running ``add_edge``, so it never sees half an edge."""
    graph = make_triangle()
    before = graph.snapshot()
    entered, release = threading.Event(), threading.Event()

    class SlowProbabilities:
        """Blocks ``add_edge`` after it has taken the lock, until released."""

        def __array__(self, dtype=None, copy=None):
            entered.set()
            release.wait(5.0)
            return np.array([0.1, 0.4], dtype=dtype)

    writer = threading.Thread(target=graph.add_edge, args=(0, 2, SlowProbabilities()))
    writer.start()
    assert entered.wait(5.0)
    taken = []
    reader = threading.Thread(target=lambda: taken.append(graph.snapshot()))
    reader.start()
    reader.join(0.05)
    assert reader.is_alive()  # blocked behind the write
    release.set()
    writer.join()
    reader.join()
    [during] = taken
    expected = make_triangle()
    expected.add_edge(0, 2, [0.1, 0.4])
    assert during.version == before.version + 1
    assert during.fingerprint() == expected.fingerprint()
    assert during.num_edges == during.csr.num_edges == len(during.probability_matrix) == 4
    assert before.num_edges == before.csr.num_edges == len(before.probability_matrix) == 3


def test_reads_of_the_source_during_add_edge_see_one_whole_version():
    """A reader of the written graph waits for a running ``add_edge`` and never sees half an edge.

    The writer pauses between its list appends.  A reader that reaches the
    graph's lock lets it go on; one that answers without waiting reads the
    half-written lists while the writer is still paused.
    """
    graph = make_triangle()  # nothing read yet: add_edge appends to these very lists
    paused, resume = threading.Event(), threading.Event()

    class PausingList(list):
        def append(self, item):
            super().append(item)
            paused.set()
            resume.wait()

    class ResumingLock:
        """The graph's lock; a reader that takes it first lets the paused writer go on."""

        def __init__(self, lock):
            self._inner = lock

        def __enter__(self):
            resume.set()
            return self._inner.__enter__()

        def __exit__(self, *exc):
            return self._inner.__exit__(*exc)

    graph._edge_source = PausingList(graph._edge_source)
    writer = threading.Thread(target=graph.add_edge, args=(0, 2, [0.1, 0.4]))
    writer.start()
    paused.wait()
    graph._lock = ResumingLock(graph._lock)
    reads = {
        "csr": lambda: graph.csr,
        "fingerprint": graph.fingerprint,
        "probability_matrix": lambda: graph.probability_matrix,
        "edges": lambda: list(graph.edges()),
        "to_shared_arrays": graph.to_shared_arrays,
    }
    results, errors = {}, []

    def read(name):
        try:
            results[name] = reads[name]()
        except Exception as exc:  # a reader that raises fails the test below
            errors.append(f"{name}: {type(exc).__name__}: {exc}")

    readers = [threading.Thread(target=read, args=(name,)) for name in reads]
    for reader in readers:
        reader.start()
    for reader in readers:
        reader.join()
    resume.set()
    writer.join()
    assert errors == []
    expected = make_triangle()
    expected.add_edge(0, 2, [0.1, 0.4])
    assert results["fingerprint"] == expected.fingerprint() == graph.fingerprint()
    assert results["probability_matrix"].tobytes() == expected.probability_matrix.tobytes()
    assert results["edges"] == list(expected.edges())
    assert results["csr"].num_edges == 4
    arrays, whole = results["to_shared_arrays"], expected.to_shared_arrays()
    assert arrays.keys() == whole.keys()
    for name in whole:
        assert arrays[name].tobytes() == whole[name].tobytes(), name
        if name.startswith(("out_", "in_", "edge_")):
            assert getattr(results["csr"], name).tobytes() == whole[name].tobytes(), name
