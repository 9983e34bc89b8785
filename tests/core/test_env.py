"""Tests for the topology-optimisation MDP environment at ``num_envs = 1``
(the batched semantics are in ``test_vec_topology.py``)."""

import numpy as np
import pytest

from repro.core import OBS_DIM, RareConfig, TopologyEnv, build_observation
from repro.datasets import planted_partition_graph
from repro.entropy import RelativeEntropy, build_entropy_sequences
from repro.gnn import Trainer, build_backbone
from repro.graph import random_split


def make_env(co_train=False, **config_overrides):
    graph = planted_partition_graph(
        num_nodes=40, homophily=0.3, feature_signal=0.4, num_features=32, seed=0
    )
    split = random_split(graph.labels, np.random.default_rng(0))
    entropy = RelativeEntropy.from_graph(graph, lam=1.0)
    sequences = build_entropy_sequences(graph, entropy, max_candidates=8)
    config = RareConfig(**{
        "k_max": 4, "d_max": 4, "max_candidates": 8, "horizon": 4,
        **config_overrides,
    })
    model = build_backbone(
        "gcn", graph.num_features, graph.num_classes,
        hidden=16, rng=np.random.default_rng(0),
    )
    trainer = Trainer(model, lr=0.05)
    env = TopologyEnv(graph, sequences, model, trainer, split, config,
                      co_train=co_train)
    return env, graph


def ones(graph, value=1):
    """One ``(1, 2N)`` action row filled with ``value`` (1 = keep)."""
    return np.full((1, 2 * graph.num_nodes), value)


def test_reset_state_is_zero():
    env, graph = make_env()
    obs = env.reset()
    assert obs.shape == (1, graph.num_nodes, OBS_DIM)
    assert env.num_envs == 1
    assert (env.k == 0).all()
    assert (env.d == 0).all()
    assert env.current_graphs == [graph]


def test_action_space_layout():
    env, graph = make_env()
    assert env.action_space.num_components == 2 * graph.num_nodes
    assert (env.action_space.nvec == 3).all()


def test_step_applies_transition():
    env, graph = make_env()
    env.reset()
    obs, reward, done, info = env.step(ones(graph, 2))  # increment all
    assert (env.k == 1).all()
    # d is clamped by node degree (isolated nodes cannot delete).
    assert (env.d <= np.minimum(1, graph.degrees())).all()
    assert not done[0]
    assert np.isfinite(reward[0])
    assert env.current_graphs[0].edges != graph.edges


def test_keep_action_is_noop():
    env, graph = make_env()
    env.reset()
    _, _, _, info = env.step(ones(graph))  # all "keep"
    assert env.current_graphs[0].edges == graph.edges
    assert info[0]["mean_k"] == 0.0


def test_state_clamped_at_bounds():
    # Three increments inside one episode (horizon 4) push past k_max=2.
    env, graph = make_env(k_max=2, d_max=2)
    env.reset()
    for _ in range(3):
        env.step(ones(graph, 2))
    assert (env.k == 2).all()
    assert (env.d == np.minimum(2, graph.degrees())).all()
    assert (env.k <= env.config.k_max).all()
    assert (env.d <= env.config.d_max).all()
    env.reset()
    for _ in range(3):
        env.step(ones(graph, 0))
    assert (env.k == 0).all()


def test_done_after_horizon():
    env, graph = make_env()
    env.reset()
    for t in range(env.config.horizon):
        _, _, done, info = env.step(ones(graph))
        assert done[0] == (t == env.config.horizon - 1)
    # Autoreset: the episode summary rides along, the state restarts.
    assert info[0]["episode"]["l"] == env.config.horizon
    assert env.t[0] == 0 and env.current_graphs[0] is graph


def test_invalid_action_shape():
    env, _ = make_env()
    env.reset()
    with pytest.raises(ValueError, match="action"):
        env.step(np.zeros(3, dtype=int))
    with pytest.raises(ValueError, match="action"):
        env.step(np.zeros(2 * env.base_graph.num_nodes, dtype=int))


def test_reward_is_delta_metric():
    env, graph = make_env()
    env.reset()
    prev_score, prev_loss = env.prev_score[0], env.prev_loss[0]
    _, reward, _, info = env.step(ones(graph))
    expected = (info[0]["train_score"] - prev_score) + env.config.lambda_r * (
        prev_loss - info[0]["train_loss"]
    )
    assert reward[0] == pytest.approx(expected)


def test_auc_reward_variant():
    env, graph = make_env(reward="auc")
    env.reset()
    (score,), (loss,) = env._scores([graph])
    assert 0.0 <= score <= 1.0


def test_co_training_tracks_best_graph():
    env, graph = make_env(co_train=True)
    env.reset()
    rng = np.random.default_rng(0)
    for _ in range(4):
        env.step(rng.integers(0, 3, (1, 2 * graph.num_nodes)))
    assert env.best_acc > 0.0
    assert env.best_graph is not None


def test_history_recorded():
    env, graph = make_env()
    env.reset()
    env.step(ones(graph))
    assert len(env.histories) == 1 and len(env.histories[0]) == 1
    assert {"reward", "homophily", "num_edges"} <= set(env.histories[0][0])


def test_build_observation_ranges():
    env, graph = make_env()
    entropy_cols = build_observation(
        env.k[0], env.d[0], graph, env.sequences, env.config
    )
    assert entropy_cols.shape == (graph.num_nodes, OBS_DIM)
    assert np.isfinite(entropy_cols).all()
    assert (entropy_cols[:, 0] == 0).all()  # k column at reset
    assert (entropy_cols[:, 2] <= 1.0).all()  # normalised degree


# ---------------------------------------------------------------------------
# Cross-episode semantics and degenerate-graph guards (regression tests)
# ---------------------------------------------------------------------------
def test_reset_accumulates_history_across_episodes():
    """Documented semantics: history and the global step counter survive
    reset() so one env yields one continuous training log."""
    env, graph = make_env()
    env.reset()
    env.step(ones(graph))
    env.step(ones(graph))
    env.reset()
    assert len(env.histories[0]) == 2
    assert env._steps_total[0] == 2
    env.step(ones(graph))
    assert len(env.histories[0]) == 3
    # The counter keeps running across episodes.
    assert env.histories[0][-1]["step"] == 3


def test_clear_history_starts_a_fresh_log():
    env, graph = make_env()
    env.reset()
    env.step(ones(graph))
    env.clear_history()
    assert env.histories == [[]]
    assert env._steps_total[0] == 0
    env.step(ones(graph))
    assert len(env.histories[0]) == 1
    assert env.histories[0][0]["step"] == 1


def test_reset_restores_episode_state():
    """Per-episode state (k, d, t, current graph) does reset."""
    env, graph = make_env()
    env.reset()
    env.step(ones(graph, 2))
    assert env.t[0] == 1
    env.reset()
    assert env.t[0] == 0
    assert (env.k == 0).all() and (env.d == 0).all()
    assert env.current_graphs[0] is graph


def test_rewire_memoization_reuses_graph_objects():
    """Repeated (k, d) states are free: the exact Graph object comes back."""
    env, graph = make_env()
    env.reset()
    env.step(ones(graph, 2))  # k=d=1 everywhere (clamped)
    first = env.current_graphs[0]
    misses = env.rewire_memo_stats["misses"]
    env.reset()
    env.step(ones(graph, 2))  # identical state again
    assert env.current_graphs[0] is first
    assert env.rewire_memo_stats["misses"] == misses
    assert env.rewire_memo_stats["hits"] >= 1


def test_build_observation_zero_remote_candidates():
    """A sequence with zero remote-candidate columns must not divide by 0."""
    from repro.entropy import EntropySequences

    graph = planted_partition_graph(
        num_nodes=12, homophily=0.5, feature_signal=0.4, num_features=8, seed=0
    )
    n = graph.num_nodes
    seqs = EntropySequences(
        remote=np.empty((n, 0), dtype=np.int64),
        remote_scores=np.empty((n, 0)),
        neighbors=[graph.neighbors(v) for v in range(n)],
        neighbor_scores=[np.zeros(len(graph.neighbors(v))) for v in range(n)],
    )
    config = RareConfig(k_max=0, d_max=2, max_candidates=1, horizon=2)
    obs = build_observation(
        np.zeros(n, dtype=np.int64), np.zeros(n, dtype=np.int64),
        graph, seqs, config,
    )
    assert obs.shape == (n, OBS_DIM)
    assert np.isfinite(obs).all()


def test_build_observation_edgeless_graph():
    """An edgeless graph (max degree 0, empty neighbour lists) is guarded."""
    from repro.entropy import RelativeEntropy, build_entropy_sequences
    from repro.graph import Graph

    rng = np.random.default_rng(0)
    graph = Graph(8, [], features=rng.standard_normal((8, 4)))
    entropy = RelativeEntropy.from_graph(graph, lam=1.0)
    seqs = build_entropy_sequences(graph, entropy, max_candidates=4)
    config = RareConfig(k_max=2, d_max=2, max_candidates=4, horizon=2)
    obs = build_observation(
        np.zeros(8, dtype=np.int64), np.zeros(8, dtype=np.int64),
        graph, seqs, config,
    )
    assert obs.shape == (8, OBS_DIM)
    assert np.isfinite(obs).all()
    assert (obs[:, 2] == 0).all()  # degree column is all zero, not NaN
