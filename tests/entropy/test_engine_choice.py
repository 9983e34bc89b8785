"""Which engine ``build_entropy_sequences`` runs, read off the ``engine``
attribute of its ``entropy.sequences`` span.

The input decides it, not an option or the storage: from
``SCREEN_AUTO_MIN`` nodes an embedding that fails the wide-sparse rule is
screened, and everything else runs the dense sorted engine.  A
bundle-loaded graph, whose entropy comes from the bundle's sidecar, runs
the engine its in-RAM twin runs.  Monkeypatching the threshold keeps the
in-RAM graphs small.
"""

import pytest

from repro.core import RareConfig
from repro.core.framework import relative_entropy
from repro.datasets import planted_partition_graph
from repro.entropy import (
    SCREEN_AUTO_MIN,
    RelativeEntropy,
    build_entropy_sequences,
    sequence,
)
from repro.entropy.sequence import _build_screened, _build_sorted
from repro.graph.storage import load_graph_bundle, save_graph_bundle
from repro.telemetry import Telemetry, use_telemetry

from ..sparse_graphs import wide_sparse_graph

N = 120
MC = 8
CONFIG = RareConfig(max_candidates=MC)


def narrow_graph(num_nodes=N):
    return planted_partition_graph(
        num_nodes=num_nodes, homophily=0.4, num_features=12, seed=3
    )


def wide_graph():
    return wide_sparse_graph(num_nodes=N, seed=3)


def in_ram(make_graph):
    """The graph and, as its in-RAM twin, itself."""
    return lambda tmp_path: (make_graph(),) * 2


def bundle_loaded(make_graph):
    """The graph saved as a bundle, its entropy sidecar written by a first
    build, then loaded back; its in-RAM twin is the graph saved."""

    def make(tmp_path):
        graph = make_graph()
        path = str(tmp_path / "bundle")
        save_graph_bundle(graph, path)
        relative_entropy(load_graph_bundle(path), CONFIG, None)
        return load_graph_bundle(path), graph

    return make


def built_with_engine(graph, entropy):
    tel = Telemetry(enabled=True)
    with use_telemetry(tel):
        seqs = build_entropy_sequences(graph, entropy, MC)
    (span,) = [s for s in tel.spans if s["name"] == "entropy.sequences"]
    return span["attrs"]["engine"], seqs


@pytest.mark.parametrize(
    "threshold, make_graph, engine",
    [
        (N + 1, in_ram(narrow_graph), "sorted"),
        (N, in_ram(narrow_graph), "screened"),
        (N, in_ram(wide_graph), "sorted"),
        (
            SCREEN_AUTO_MIN,
            bundle_loaded(lambda: narrow_graph(SCREEN_AUTO_MIN)),
            "screened",
        ),
        (SCREEN_AUTO_MIN, bundle_loaded(narrow_graph), "sorted"),
    ],
    ids=[
        "below-threshold", "narrow-at-threshold", "wide-sparse-at-threshold",
        "bundle-narrow-4096", "bundle-small",
    ],
)
def test_engine_follows_size_and_embedding(
    monkeypatch, tmp_path, threshold, make_graph, engine
):
    monkeypatch.setattr(sequence, "SCREEN_AUTO_MIN", threshold)
    graph, twin = make_graph(tmp_path)
    got, seqs = built_with_engine(graph, relative_entropy(graph, CONFIG, None))
    assert got == engine
    # Byte-equal to the engine's build on the in-RAM twin.
    direct = (_build_screened if engine == "screened" else _build_sorted)(
        twin, relative_entropy(twin, CONFIG, None), MC
    )
    for name in ("remote", "remote_scores", "flat_neighbors", "neighbor_indptr"):
        assert getattr(seqs, name).tobytes() == getattr(direct, name).tobytes()


def test_no_sparse_check_below_threshold(monkeypatch):
    """Below ``SCREEN_AUTO_MIN`` the choice costs nothing: the wide-sparse
    rule is not consulted."""

    def boom(features):
        raise AssertionError("the wide-sparse rule was checked")

    monkeypatch.setattr(sequence, "sparse_features", boom)
    graph = narrow_graph()
    got, _ = built_with_engine(graph, RelativeEntropy.from_graph(graph))
    assert got == "sorted"
