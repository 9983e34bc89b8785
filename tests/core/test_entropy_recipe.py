"""The one recipe from a ``RareConfig`` to entropy sequences
(``repro.core.framework.entropy_sequences``).

A bundle-backed graph reads its relative entropy from the bundle's
sidecar, which the first use writes, with no config field to set.  The
sequence build then picks its engine as for the in-RAM graph, so a fit on
a bundle equals the fit on the graph it was saved from.
"""

import dataclasses

import numpy as np

from repro.core import GraphRARE, RareConfig
from repro.core.framework import entropy_sequences
from repro.datasets import planted_partition_graph
from repro.graph import random_split
from repro.graph.storage import (
    has_entropy_sidecar,
    load_graph_bundle,
    save_graph_bundle,
)
from repro.telemetry import Telemetry, use_telemetry

from ..sparse_graphs import wide_sparse_graph

CONFIG = dict(k_max=3, d_max=3, max_candidates=8)


def bundle(tmp_path, graph):
    path = str(tmp_path / "bundle")
    save_graph_bundle(graph, path)
    return path


def engines(tel):
    return [
        s["attrs"]["engine"] for s in tel.spans
        if s["name"] == "entropy.sequences"
    ]


def assert_same_result(got, expected):
    """Every ``RareResult`` field but ``entropy_seconds`` is equal: floats
    exactly, the optimised graph key for key, the co-trained model
    weight for weight."""
    for f in dataclasses.fields(expected):
        a, b = getattr(got, f.name), getattr(expected, f.name)
        if f.name == "entropy_seconds":
            continue
        if f.name == "optimized_graph":
            a, b = a.edge_keys().tobytes(), b.edge_keys().tobytes()
        elif f.name == "co_trained_model":
            a, b = (
                {k: w.tobytes() for k, w in m.state_dict().items()}
                for m in (a, b)
            )
        assert a == b, f.name


def test_bundle_backed_graph_reads_its_sidecar(tmp_path):
    graph = planted_partition_graph(
        num_nodes=80, homophily=0.3, num_features=12, seed=5
    )
    path = bundle(tmp_path, graph)
    config = RareConfig(**CONFIG)
    mg = load_graph_bundle(path)
    tel = Telemetry(enabled=True)
    with use_telemetry(tel):
        built = entropy_sequences(mg, config, None)
        assert has_entropy_sidecar(path)
        read = entropy_sequences(mg, config, None)
        # The GCN-RA ablation shuffles, bundle or not.
        entropy_sequences(mg, config, np.random.default_rng(0), shuffle=True)
    # The engine the in-RAM graph runs, not one forced by the bundle.
    assert engines(tel) == ["sorted", "sorted", "reference"]
    loads = {s["attrs"]["array"] for s in tel.spans if s["name"] == "storage.load"}
    assert loads == {"entropy/Z", "entropy/profiles"}
    in_ram = entropy_sequences(graph, config, None)
    for seqs in (built, read):
        for name in (
            "remote", "remote_scores", "flat_neighbors", "neighbor_indptr",
        ):
            assert getattr(seqs, name).tobytes() == getattr(in_ram, name).tobytes()


def test_fit_on_a_bundle_writes_the_sidecar_and_equals_in_ram(tmp_path):
    """On a wide, sparse graph (which runs the dense engine in RAM) a
    bundle fit equals the in-RAM fit: on the first run, which writes the
    sidecar, and on the second, which reads it."""
    graph = wide_sparse_graph(num_nodes=60, seed=2)
    path = bundle(tmp_path, graph)
    split = random_split(graph.labels, np.random.default_rng(0))
    config = RareConfig(
        episodes=2, horizon=2, co_train_epochs=2, final_epochs=5, **CONFIG
    )
    expected = GraphRARE("gcn", config).fit(graph, split)
    for sidecar_before in (False, True):
        assert has_entropy_sidecar(path) is sidecar_before
        tel = Telemetry(enabled=True)
        with use_telemetry(tel):
            got = GraphRARE("gcn", config).fit(load_graph_bundle(path), split)
        assert engines(tel) == ["sorted"]
        assert_same_result(got, expected)
    assert has_entropy_sidecar(path)
