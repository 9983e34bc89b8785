"""The O(E) propagation-matrix builders against the scipy SpGEMM oracle.

``Graph.adjacency``, ``gcn_norm`` and ``row_norm`` must equal the sparse
product construction byte for byte — ``indptr``, ``indices``, ``data``,
their dtypes and the within-row column order that ``spmm`` sums in — and
a norm build must leave nothing cached on its graph.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import load_dataset
from repro.graph import (
    Graph,
    gcn_norm,
    load_graph_bundle,
    row_norm,
    save_graph_bundle,
)

from ..propagation_oracle import (
    assert_csr_bytes_equal,
    assert_untouched,
    oracle_adjacency,
    oracle_gcn_norm,
    oracle_row_norm,
)

BUILDS = [
    ("adjacency", lambda g: g.adjacency(), oracle_adjacency),
    ("gcn_norm", gcn_norm, oracle_gcn_norm),
    (
        "gcn_norm_no_loops",
        lambda g: gcn_norm(g, add_self_loops=False),
        lambda g: oracle_gcn_norm(g, add_self_loops=False),
    ),
    ("row_norm", row_norm, oracle_row_norm),
    (
        "row_norm_loops",
        lambda g: row_norm(g, add_self_loops=True),
        lambda g: oracle_row_norm(g, add_self_loops=True),
    ),
]


def assert_all_builds_match(graph):
    for name, build, oracle in BUILDS:
        try:
            assert_csr_bytes_equal(build(graph), oracle(graph))
        except AssertionError as exc:
            raise AssertionError(f"{name}: {exc}") from exc


@st.composite
def graphs(draw):
    """Random graphs from N = 1 up, edgeless and isolated nodes included."""
    n = draw(st.integers(1, 40))
    m = draw(st.integers(0, 3 * n))
    pairs = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            min_size=m, max_size=m,
        )
    )
    return Graph(n, [(u, v) for u, v in pairs if u != v])


@settings(max_examples=200, deadline=None)
@given(graphs())
def test_builders_equal_the_spgemm_oracle(graph):
    assert_all_builds_match(graph)


@pytest.mark.parametrize("graph", [
    Graph(1, []),
    Graph(5, []),
    Graph(6, [(0, 1), (1, 2)]),  # nodes 3-5 isolated
    Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]),
], ids=["n1", "edgeless", "isolated", "complete"])
def test_builders_on_corner_graphs(graph):
    assert_all_builds_match(graph)


@pytest.mark.parametrize("name", ["cornell", "chameleon"])
def test_builders_on_datasets(name):
    assert_all_builds_match(load_dataset(name, 1.0, seed=1))


@pytest.mark.parametrize(
    "name,build,_", BUILDS[1:], ids=[name for name, *_ in BUILDS[1:]]
)
def test_norm_builds_cache_nothing_on_the_graph(name, build, _):
    graph = load_dataset("cornell", 1.0, seed=1)
    build(graph)
    assert_untouched(graph)


def test_memmap_graph_builds_match(tmp_path):
    save_graph_bundle(load_dataset("texas", 1.0, seed=1), str(tmp_path))
    assert_all_builds_match(load_graph_bundle(str(tmp_path)))
