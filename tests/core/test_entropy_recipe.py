"""The one recipe from a ``RareConfig`` to entropy sequences
(``repro.core.framework.entropy_sequences``).

Storage follows from the graph: a bundle-backed graph writes its entropy
sidecar on first use and streams the screened engine from it, with no
config field to set; the shuffled ablation builds in RAM on any graph.
"""

import numpy as np

from repro.core import GraphRARE, RareConfig
from repro.core.framework import entropy_sequences, relative_entropy
from repro.datasets import planted_partition_graph
from repro.entropy.sequence import _build_screened
from repro.graph import random_split
from repro.graph.storage import (
    has_entropy_sidecar,
    load_graph_bundle,
    save_graph_bundle,
)
from repro.telemetry import Telemetry, use_telemetry

CONFIG = dict(k_max=3, d_max=3, max_candidates=8)


def bundle(tmp_path):
    graph = planted_partition_graph(
        num_nodes=80, homophily=0.3, num_features=12, seed=5
    )
    path = str(tmp_path / "bundle")
    save_graph_bundle(graph, path)
    return graph, path


def engines(tel):
    return [
        s["attrs"]["engine"] for s in tel.spans
        if s["name"] == "entropy.sequences"
    ]


def test_bundle_backed_graph_streams_from_its_sidecar(tmp_path):
    graph, path = bundle(tmp_path)
    config = RareConfig(**CONFIG)
    mg = load_graph_bundle(path)
    tel = Telemetry(enabled=True)
    with use_telemetry(tel):
        streamed = entropy_sequences(mg, config, None)
        # The GCN-RA ablation shuffles in RAM, bundle or not.
        entropy_sequences(mg, config, np.random.default_rng(0), shuffle=True)
    assert engines(tel) == ["screened-streamed", "reference"]
    assert has_entropy_sidecar(path)
    in_ram = _build_screened(
        graph, relative_entropy(graph, config, None), config.max_candidates
    )
    for name in ("remote", "remote_scores", "flat_neighbors", "neighbor_indptr"):
        assert getattr(streamed, name).tobytes() == getattr(in_ram, name).tobytes()


def test_fit_on_a_bundle_writes_the_sidecar_and_streams(tmp_path):
    _, path = bundle(tmp_path)
    mg = load_graph_bundle(path)
    split = random_split(np.asarray(mg.labels), np.random.default_rng(0))
    config = RareConfig(
        episodes=1, horizon=2, co_train_epochs=2, final_epochs=5, **CONFIG
    )
    assert not has_entropy_sidecar(path)
    tel = Telemetry(enabled=True)
    with use_telemetry(tel):
        GraphRARE("gcn", config).fit(mg, split, train_baseline=False)
    assert engines(tel) == ["screened-streamed"]
    assert has_entropy_sidecar(path)
