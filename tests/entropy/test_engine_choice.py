"""Which engine ``build_entropy_sequences`` runs, read off the ``engine``
attribute of its ``entropy.sequences`` span.

The input decides it, not an option: from ``SCREEN_AUTO_MIN`` nodes an
embedding that fails the wide-sparse rule is screened, and everything
else runs the dense sorted engine (a bundle-backed build, which streams
the screen, is covered in ``tests/core/test_entropy_recipe.py``).
Monkeypatching the threshold keeps the graphs small.
"""

import pytest

from repro.datasets import planted_partition_graph
from repro.entropy import RelativeEntropy, build_entropy_sequences, sequence
from repro.entropy.sequence import _build_screened, _build_sorted
from repro.telemetry import Telemetry, use_telemetry

from ..sparse_graphs import wide_sparse_graph

N = 120
MC = 8


def narrow_graph():
    return planted_partition_graph(
        num_nodes=N, homophily=0.4, num_features=12, seed=3
    )


def wide_graph():
    return wide_sparse_graph(num_nodes=N, seed=3)


def built_with_engine(graph, entropy):
    tel = Telemetry(enabled=True)
    with use_telemetry(tel):
        seqs = build_entropy_sequences(graph, entropy, MC)
    (span,) = [s for s in tel.spans if s["name"] == "entropy.sequences"]
    return span["attrs"]["engine"], seqs


@pytest.mark.parametrize(
    "threshold, make_graph, engine",
    [
        (N + 1, narrow_graph, "sorted"),
        (N, narrow_graph, "screened"),
        (N, wide_graph, "sorted"),
    ],
    ids=["below-threshold", "narrow-at-threshold", "wide-sparse-at-threshold"],
)
def test_engine_follows_size_and_embedding(
    monkeypatch, threshold, make_graph, engine
):
    monkeypatch.setattr(sequence, "SCREEN_AUTO_MIN", threshold)
    graph = make_graph()
    entropy = RelativeEntropy.from_graph(graph)
    got, seqs = built_with_engine(graph, entropy)
    assert got == engine
    direct = (_build_screened if engine == "screened" else _build_sorted)(
        graph, entropy, MC
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
