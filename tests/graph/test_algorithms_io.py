"""Tests for graph algorithms and persistence."""

import numpy as np
import pytest

from repro.graph import (
    Graph,
    connected_components,
    from_networkx,
    k_hop_neighbors,
    laplacian,
    largest_component,
    load_edge_list,
    load_graph,
    num_connected_components,
    save_edge_list,
    save_graph,
    shortest_path_lengths,
    subgraph,
    to_networkx,
    within_k_hops,
)


def two_components():
    # Path 0-1-2-3 and triangle 4-5-6.
    return Graph(
        7,
        [(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (6, 4)],
        features=np.arange(14.0).reshape(7, 2),
        labels=np.array([0, 0, 1, 1, 2, 2, 2]),
    )


# ---------------------------------------------------------------------------
# Distances / neighbourhoods
# ---------------------------------------------------------------------------
def test_shortest_path_lengths():
    dist = shortest_path_lengths(two_components(), 0)
    np.testing.assert_array_equal(dist, [0, 1, 2, 3, -1, -1, -1])


def test_k_hop_neighbors_exact_distance():
    g = two_components()
    np.testing.assert_array_equal(k_hop_neighbors(g, 0, 1), [1])
    np.testing.assert_array_equal(k_hop_neighbors(g, 0, 2), [2])
    np.testing.assert_array_equal(k_hop_neighbors(g, 0, 0), [0])
    assert len(k_hop_neighbors(g, 0, 5)) == 0


def test_k_hop_validation():
    g = two_components()
    with pytest.raises(ValueError):
        k_hop_neighbors(g, 0, -1)
    with pytest.raises(ValueError):
        k_hop_neighbors(g, 99, 1)


def test_within_k_hops():
    g = two_components()
    np.testing.assert_array_equal(within_k_hops(g, 0, 2), [1, 2])
    np.testing.assert_array_equal(within_k_hops(g, 4, 1), [5, 6])


# ---------------------------------------------------------------------------
# Components
# ---------------------------------------------------------------------------
def test_connected_components():
    labels = connected_components(two_components())
    assert labels[0] == labels[3]
    assert labels[4] == labels[6]
    assert labels[0] != labels[4]
    assert num_connected_components(two_components()) == 2


def test_largest_component():
    members = largest_component(two_components())
    np.testing.assert_array_equal(members, [0, 1, 2, 3])


def test_isolated_nodes_are_components():
    g = Graph(3, [(0, 1)])
    assert num_connected_components(g) == 2


# ---------------------------------------------------------------------------
# Subgraph
# ---------------------------------------------------------------------------
def test_subgraph_remaps_and_slices():
    g = two_components()
    sub = subgraph(g, [4, 5, 6])
    assert sub.num_nodes == 3
    assert sub.num_edges == 3  # the triangle survives
    np.testing.assert_array_equal(sub.labels, [2, 2, 2])
    np.testing.assert_allclose(sub.features[0], g.features[4])


def test_subgraph_drops_cross_edges():
    g = two_components()
    sub = subgraph(g, [0, 1, 4])
    assert sub.num_edges == 1  # only (0,1); the 4-5/4-6 edges cross out


def test_subgraph_empty_raises():
    with pytest.raises(ValueError):
        subgraph(two_components(), [])


# ---------------------------------------------------------------------------
# Laplacian
# ---------------------------------------------------------------------------
def test_laplacian_rows_sum_zero():
    L = laplacian(two_components()).toarray()
    np.testing.assert_allclose(L.sum(axis=1), 0.0)
    np.testing.assert_allclose(L, L.T)


def test_normalized_laplacian_eigen_range():
    L = laplacian(two_components(), normalized=True).toarray()
    eig = np.linalg.eigvalsh(L)
    assert eig.min() > -1e-9
    assert eig.max() < 2.0 + 1e-9


def test_laplacian_nullity_equals_components():
    L = laplacian(two_components()).toarray()
    eig = np.linalg.eigvalsh(L)
    assert (np.abs(eig) < 1e-9).sum() == 2


# ---------------------------------------------------------------------------
# networkx interop
# ---------------------------------------------------------------------------
def test_to_from_networkx_roundtrip():
    g = two_components()
    nx_graph = to_networkx(g)
    assert nx_graph.number_of_edges() == g.num_edges
    back = from_networkx(nx_graph, features=g.features)
    assert back.edges == g.edges
    np.testing.assert_array_equal(back.labels, g.labels)


def test_from_networkx_relabels():
    import networkx as nx

    g = nx.Graph()
    g.add_edge("b", "a")
    out = from_networkx(g)
    assert out.num_nodes == 2
    assert out.has_edge(0, 1)


# ---------------------------------------------------------------------------
# IO
# ---------------------------------------------------------------------------
def test_npz_roundtrip(tmp_path):
    g = two_components()
    path = save_graph(g, str(tmp_path / "graph"))
    assert path.endswith(".npz")
    loaded = load_graph(path)
    assert loaded == g


def test_npz_roundtrip_without_attributes(tmp_path):
    g = Graph(4, [(0, 1), (2, 3)])
    loaded = load_graph(save_graph(g, str(tmp_path / "bare.npz")))
    assert loaded == g
    assert loaded.features is None
    assert loaded.labels is None


def test_npz_writes_current_format_version(tmp_path):
    from repro.graph.io import FORMAT_VERSION

    g = two_components()
    path = save_graph(g, str(tmp_path / "graph"))
    data = np.load(path)
    assert int(data["version"][0]) == FORMAT_VERSION == 2
    # v2 persists the sorted canonical keys, never the (E, 2) pair view.
    assert "edge_keys" in data.files and "edges" not in data.files
    np.testing.assert_array_equal(data["edge_keys"], g.edge_keys())


def test_npz_rejects_future_format_version(tmp_path):
    from repro.graph.io import FORMAT_VERSION

    g = two_components()
    path = save_graph(g, str(tmp_path / "graph"))
    data = dict(np.load(path))
    data["version"] = np.array([FORMAT_VERSION + 1])
    future = tmp_path / "future.npz"
    np.savez(future, **data)
    with pytest.raises(ValueError, match="format version"):
        load_graph(str(future))


def test_npz_reads_v1_pair_layout(tmp_path):
    g = two_components()
    legacy = tmp_path / "legacy.npz"
    np.savez(
        legacy,
        num_nodes=np.array([g.num_nodes]),
        edges=g.edge_array(),
        features=g.features,
        labels=g.labels,
    )
    loaded = load_graph(str(legacy))
    assert loaded == g


def test_npz_v1_validates_pairs(tmp_path):
    bad = tmp_path / "bad.npz"
    np.savez(bad, num_nodes=np.array([3]), edges=np.array([[0, 5]]))
    with pytest.raises(ValueError, match="out of range"):
        load_graph(str(bad))
    loops = tmp_path / "loops.npz"
    np.savez(loops, num_nodes=np.array([3]), edges=np.array([[1, 1]]))
    with pytest.raises(ValueError, match="self-loop"):
        load_graph(str(loops))


def test_edge_list_roundtrip(tmp_path):
    g = two_components()
    path = save_edge_list(g, str(tmp_path / "edges.txt"))
    loaded = load_edge_list(path, features=g.features, labels=g.labels)
    assert loaded.edges == g.edges
    assert loaded.num_nodes == g.num_nodes


def test_edge_list_infers_node_count(tmp_path):
    path = tmp_path / "edges.txt"
    path.write_text("0 1\n1 4\n")
    loaded = load_edge_list(str(path))
    assert loaded.num_nodes == 5


def _corrupt(arrays, case):
    """Apply one named corruption to the arrays of a saved graph."""
    keys, n = arrays["edge_keys"], int(arrays["num_nodes"][0])
    if case == "labels-short":
        arrays["labels"] = arrays["labels"][:-3]
    elif case == "labels-negative":
        arrays["labels"] = np.full_like(arrays["labels"], -1)
    elif case == "features-nan":
        arrays["features"] = arrays["features"].copy()
        arrays["features"][2, 1] = np.nan
    elif case == "features-short":
        arrays["features"] = arrays["features"][:-5]
    elif case == "keys-reversed":
        arrays["edge_keys"] = keys[::-1]
    elif case == "keys-twice":
        arrays["edge_keys"] = np.repeat(keys, 2)
    elif case == "keys-self-loop":
        loop = np.int64(n + 1)  # the key of (1, 1)
        arrays["edge_keys"] = np.insert(keys, np.searchsorted(keys, loop), loop)
    elif case == "keys-float":
        arrays["edge_keys"] = keys.astype(np.float64)
    elif case == "keys-past-n2":
        arrays["edge_keys"] = np.append(keys, np.int64(n) * n + 1)
    elif case == "num-nodes-zero":
        arrays["num_nodes"] = np.array([0])
    return arrays


@pytest.mark.parametrize("case, message", [
    ("labels-short", "labels shape"),
    ("labels-negative", "labels must be non-negative"),
    ("features-nan", "features must be finite"),
    ("features-short", "features have"),
    ("keys-reversed", "edge_keys must be strictly increasing"),
    ("keys-twice", "edge_keys must be strictly increasing"),
    ("keys-self-loop", "edge_keys must be canonical"),
    ("keys-float", "edge_keys must be integers"),
    ("keys-past-n2", "edge_keys must be canonical"),
    ("num-nodes-zero", "num_nodes must be positive"),
])
def test_npz_rejects_corrupt_arrays(tmp_path, case, message):
    """Each of these used to load, and the key past N^2 only failed later
    inside ``gcn_norm``."""
    from repro.datasets import load_dataset

    path = save_graph(
        load_dataset("texas", scale=0.5, seed=0), str(tmp_path / "g.npz")
    )
    arrays = _corrupt(dict(np.load(path)), case)
    np.savez(path, **arrays)
    with pytest.raises(ValueError, match=message) as info:
        load_graph(path)
    assert "\n" not in str(info.value)
