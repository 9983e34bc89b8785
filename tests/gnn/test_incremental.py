"""The reward path after the incremental engine.

Every reward is scored by the dense eval-mode forward.  What is left of
``repro.gnn.incremental`` is a shim whose ``predict_logits`` is the
model's, and ``RareConfig.incremental_reward`` is accepted but changes
nothing: an env with it on steps bit for bit like one with it off.
"""

import numpy as np
import pytest

from repro.core import RareConfig, TopologyEnv
from repro.datasets import planted_partition_graph
from repro.entropy import RelativeEntropy, build_entropy_sequences
from repro.gnn import IncrementalEvaluator, Trainer, build_backbone
from repro.graph import random_split
from repro.nn import accuracy, cross_entropy, masked_metrics
from repro.tensor import Tensor

N = 40


@pytest.fixture(scope="module")
def world():
    graph = planted_partition_graph(
        num_nodes=N, homophily=0.3, feature_signal=0.4, num_features=16,
        seed=0,
    )
    split = random_split(graph.labels, np.random.default_rng(0))
    entropy = RelativeEntropy.from_graph(graph, lam=1.0)
    sequences = build_entropy_sequences(graph, entropy, max_candidates=8)
    return graph, sequences, split


def _fresh_model_trainer(name, graph, split):
    model = build_backbone(
        name, graph.num_features, graph.num_classes,
        hidden=16, rng=np.random.default_rng(0),
    )
    trainer = Trainer(model, lr=0.05)
    trainer.fit(graph, split, epochs=3, patience=3)
    return model, trainer


def test_masked_metrics_is_bitwise_twin_of_evaluate_ops(world):
    """Given identical logits, the numpy metric twin reproduces the
    Tensor-op cross_entropy/accuracy pair exactly."""
    graph, _, split = world
    rng = np.random.default_rng(11)
    logits = rng.standard_normal((N, graph.num_classes))
    for mask in (split.train, np.flatnonzero(split.train)[:5]):
        acc, loss = masked_metrics(logits, graph.labels, mask)
        assert loss == cross_entropy(Tensor(logits), graph.labels, mask).item()
        assert acc == accuracy(logits, graph.labels, mask)
    # Empty selection mirrors cross_entropy's zero-loss convention.
    assert masked_metrics(logits, graph.labels, np.empty(0, np.int64)) == (
        0.0, 0.0,
    )


def test_shim_predict_logits_is_the_model_forward(world):
    graph, sequences, split = world
    model, _ = _fresh_model_trainer("gcn", graph, split)
    shim = IncrementalEvaluator(model, graph)
    edited = graph.add_edges([(0, N - 1), (3, 17)])
    for g in (graph, edited):
        assert shim.predict_logits(g).tobytes() == (
            model.predict_logits(g).tobytes()
        )


@pytest.mark.parametrize("num_envs", [1, 2])
@pytest.mark.parametrize(
    "backbone", ["gcn", "graphsage", "gat", "h2gcn", "mixhop"]
)
def test_incremental_flag_changes_no_reward(world, backbone, num_envs):
    """With co-training on, ``incremental_reward=True`` steps to bitwise
    the rewards, scores and losses of ``incremental_reward=False``."""
    graph, sequences, split = world
    runs = {}
    for flag in (False, True):
        model, trainer = _fresh_model_trainer(backbone, graph, split)
        config = RareConfig(
            k_max=4, d_max=4, max_candidates=8, horizon=3,
            num_envs=num_envs, incremental_reward=flag,
        )
        env = TopologyEnv(graph, sequences, model, trainer, split, config,
                          co_train=True, seed=0)
        actions = np.random.default_rng(5).integers(
            0, 3, (2 * config.horizon, num_envs, 2 * N)
        )  # two episodes per slot (autoreset)
        steps = []
        for action in actions:
            _, rewards, _, infos = env.step(action)
            steps.append(np.concatenate([
                rewards,
                [info["train_score"] for info in infos],
                [info["train_loss"] for info in infos],
            ]))
        runs[flag] = np.array(steps)
    assert runs[True].tobytes() == runs[False].tobytes()
