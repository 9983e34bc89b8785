"""The topology env under live edge churn.

With ``config.stream`` set, the env drains one seeded event trace at the
step prologue, before the agents' moves.  Whole fits under churn are
pinned bit for bit by the golden pins (``test_golden_fit.py``) and each
``num_envs = 1`` step by the scalar MDP oracle (``scalar_mdp.py``), across
rebases too; the memo, online window and config plumbing are checked
directly.
"""

import numpy as np
import pytest

from repro.core import RareConfig, TopologyEnv, rewire_graph
from repro.datasets import planted_partition_graph
from repro.entropy import RelativeEntropy, build_entropy_sequences
from repro.gnn import Trainer, build_backbone
from repro.graph import random_split
from repro.stream import StreamConfig

from .scalar_mdp import assert_matches_oracle


def make_parts(num_nodes=40, stream=None, **config_overrides):
    """Fresh (graph, sequences, model, trainer, split, config) — identical
    across calls, so paired envs start from the same model bytes AND the
    same churn trace (StreamConfig carries its own seed)."""
    graph = planted_partition_graph(
        num_nodes=num_nodes, homophily=0.3, feature_signal=0.4,
        num_features=32, seed=0,
    )
    split = random_split(graph.labels, np.random.default_rng(0))
    entropy = RelativeEntropy.from_graph(graph, lam=1.0)
    sequences = build_entropy_sequences(graph, entropy, max_candidates=8)
    config_overrides.setdefault("horizon", 4)
    config = RareConfig(
        k_max=4, d_max=4, max_candidates=8,
        stream=stream or StreamConfig(events_per_step=3, seed=5),
        **config_overrides,
    )
    model = build_backbone(
        "gcn", graph.num_features, graph.num_classes,
        hidden=16, rng=np.random.default_rng(0),
    )
    trainer = Trainer(model, lr=0.05)
    return graph, sequences, model, trainer, split, config


# ---------------------------------------------------------------------------
# B = 1 under churn: bitwise the scalar MDP oracle
# ---------------------------------------------------------------------------
def test_b1_churn_byte_identical():
    """Every reward, observation, score and churned base topology of the
    ``num_envs = 1`` env equals the scalar oracle's, co-training on."""
    env = TopologyEnv(*make_parts())
    actions = np.random.default_rng(3).integers(
        0, 3, (6, 2 * env.base_graph.num_nodes)
    )  # crosses one episode boundary (horizon 4)
    assert_matches_oracle(env, make_parts(), actions, True)
    assert env._stream.events_applied == 18
    env._online.verify()


# ---------------------------------------------------------------------------
# Rebases
# ---------------------------------------------------------------------------
def test_parity_survives_rebases():
    """Under a rebasing churn trace the ``num_envs = 1`` env still equals
    the scalar oracle bit for bit, and a ``num_envs = 2`` env scores each
    slot like it (the stacked builder reads nothing churn changes)."""
    stream = StreamConfig(
        regime="hubs", events_per_step=6, rebase_threshold=0.1, seed=2
    )
    single = TopologyEnv(*make_parts(stream=stream), co_train=False, seed=0)
    actions = np.random.default_rng(6).integers(
        0, 3, (10, 2 * single.base_graph.num_nodes)
    )
    assert_matches_oracle(single, make_parts(stream=stream), actions, False)
    # The hub regime at a 0.1 threshold actually rebased.
    assert single._stream.rebases >= 1
    single._online.verify()

    pair = TopologyEnv(*make_parts(stream=stream, num_envs=2),
                       co_train=False, seed=0)
    single = TopologyEnv(*make_parts(stream=stream), co_train=False, seed=0)
    pair.reset()
    single.reset()
    for step in range(10):
        both = np.concatenate([actions[step:step + 1]] * 2)
        _, rew_p, _, info_p = pair.step(both)
        _, rew_s, _, info_s = single.step(actions[step:step + 1])
        assert rew_p[0] == rew_p[1] == rew_s[0]
        assert info_p[0]["stream_version"] == info_s[0]["stream_version"]
    assert pair._stream.rebases == single._stream.rebases >= 1
    np.testing.assert_array_equal(
        pair.base_graph.edge_keys(), single.base_graph.edge_keys()
    )
    pair._online.verify()


def test_online_window_verifies_inside_the_env():
    env = TopologyEnv(*make_parts(), co_train=False)
    env.reset()
    rng = np.random.default_rng(1)
    n = env.base_graph.num_nodes
    for _ in range(8):  # autoreset crosses episode boundaries
        env.step(rng.integers(0, 3, (1, 2 * n)))
    # The env-maintained sliding window is byte-identical to rebuilding
    # every record from a fresh fully-validated graph.
    metrics = env._online.verify()
    assert metrics == env.stream_metrics()


# ---------------------------------------------------------------------------
# The ignored incremental flag under churn
# ---------------------------------------------------------------------------
def test_incremental_vs_dense_rewards_under_churn():
    """``incremental_reward`` changes nothing: the rewards under churn are
    bitwise those of the default config."""
    dense = TopologyEnv(
        *make_parts(incremental_reward=False), co_train=False
    )
    inc = TopologyEnv(
        *make_parts(incremental_reward=True), co_train=False
    )
    dense.reset()
    inc.reset()
    rng = np.random.default_rng(4)
    n = dense.base_graph.num_nodes
    for _ in range(6):
        action = rng.integers(0, 3, (1, 2 * n))
        _, rew_d, _, info_d = dense.step(action)
        _, rew_i, _, info_i = inc.step(action)
        assert rew_i[0] == rew_d[0]  # bitwise
        assert info_d[0]["num_edges"] == info_i[0]["num_edges"]
    np.testing.assert_array_equal(
        dense.base_graph.edge_keys(), inc.base_graph.edge_keys()
    )


# ---------------------------------------------------------------------------
# Memo invalidation under churn
# ---------------------------------------------------------------------------
def test_rewire_memo_is_version_keyed():
    env = TopologyEnv(*make_parts(), co_train=False)
    env.reset()
    k = np.full(env.base_graph.num_nodes, 1)
    d = np.full(env.base_graph.num_nodes, 1)
    before = env._rewired(k, d)
    assert env._rewired(k, d) is before  # same version: memo hit
    assert len(env._rewire_cache) == 1
    version = env._stream.version
    while env._stream.version == version:  # drain until effective churn
        env._advance_stream()
    # New stream version: every entry was built against an older base.
    assert len(env._rewire_cache) == 0
    after = env._rewired(k, d)
    assert after is not before
    assert after.delta is None
    np.testing.assert_array_equal(
        after.edge_keys(),
        rewire_graph(env.base_graph, env.sequences, k, d).edge_keys(),
    )


# ---------------------------------------------------------------------------
# Config plumbing
# ---------------------------------------------------------------------------
def test_rare_config_validates_stream():
    with pytest.raises(ValueError, match="regime"):
        RareConfig(stream=StreamConfig(regime="nope"))
    with pytest.raises(ValueError, match="stream"):
        RareConfig(stream="drift")
    assert RareConfig(stream=StreamConfig()).stream.window == 32
    assert RareConfig().stream is None


def test_non_streaming_env_has_no_stream_state():
    graph, sequences, model, trainer, split, _ = make_parts()
    config = RareConfig(k_max=4, d_max=4, max_candidates=8, horizon=4)
    env = TopologyEnv(
        graph, sequences, model, trainer, split, config, co_train=False
    )
    assert env._stream is None and env.stream_metrics() == {}
    _, _, _, info = env.step(env.sample_actions())
    assert "stream_version" not in info[0]
