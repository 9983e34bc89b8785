"""The topology env under live edge churn.

With ``config.stream`` set, the env drains one seeded event trace at the
step prologue, before the agents' moves.  Whole fits under churn are
pinned bit for bit by the golden pins (``test_golden_fit.py``) and each
``num_envs = 1`` step by the scalar MDP oracle (``scalar_mdp.py``); the
incremental-vs-dense axis is held to the documented 1e-9 halo class of
``docs/equivalence-policy.md``, across rebases, and the memo, online
window and config plumbing are checked directly.
"""

import numpy as np
import pytest

from repro.core import RareConfig, TopologyEnv
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
@pytest.mark.parametrize("incremental", [False, True])
def test_b1_churn_byte_identical(incremental):
    """Every reward, observation, score and churned base topology of the
    ``num_envs = 1`` env equals the scalar oracle's, with the incremental
    evaluator on or off, co-training on."""
    env = TopologyEnv(*make_parts(incremental_reward=incremental))
    actions = np.random.default_rng(3).integers(
        0, 3, (6, 2 * env.base_graph.num_nodes)
    )  # crosses one episode boundary (horizon 4)
    assert_matches_oracle(
        env, make_parts(incremental_reward=incremental), actions, True
    )
    assert env._stream.events_applied == 18
    env._online.verify()


# ---------------------------------------------------------------------------
# Rebases re-bind the root-addressed reward engines
# ---------------------------------------------------------------------------
def test_parity_survives_rebases():
    """Under a rebasing churn trace the incremental env keeps scoring like
    the dense one (the documented 1e-9 class) at every batch width,
    because a rebase re-binds the incremental evaluator and the stacked
    builder to the new root."""
    stream = StreamConfig(
        regime="hubs", events_per_step=6, rebase_threshold=0.1, seed=2
    )
    for num_envs in (1, 2):
        dense, inc = (
            TopologyEnv(
                *make_parts(stream=stream, incremental_reward=flag,
                            num_envs=num_envs),
                co_train=False, seed=0,
            )
            for flag in (False, True)
        )
        for _ in range(10):
            actions = dense.sample_actions()
            _, rew_d, _, info_d = dense.step(actions)
            _, rew_i, _, info_i = inc.step(actions)
            np.testing.assert_allclose(rew_i, rew_d, rtol=1e-9, atol=1e-9)
            assert info_d[0]["stream_version"] == info_i[0]["stream_version"]
        # The hub regime at a 0.1 threshold actually exercised the rebase
        # rebind path (evaluator + stacked builder + memo keys).
        assert inc._stream.rebases >= 1
        assert dense._stream.rebases == inc._stream.rebases
        assert inc._inc.base_graph is inc._stream.root
        assert inc._stack.delta_root is inc._stream.root
        np.testing.assert_array_equal(
            dense.base_graph.edge_keys(), inc.base_graph.edge_keys()
        )
        dense._online.verify()
        inc._online.verify()


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
# Incremental vs dense under churn: the documented 1e-9 class
# ---------------------------------------------------------------------------
def test_incremental_vs_dense_rewards_under_churn():
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
        assert rew_i[0] == pytest.approx(rew_d[0], rel=1e-9, abs=1e-9)
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
    version = env._stream.version
    while env._stream.version == version:  # drain until effective churn
        env._advance_stream()
    after = env._rewired(k, d)
    # New stream version: the memoised pre-churn graph is never served.
    assert after is not before
    assert after.delta is None or after.delta.base is env._stream.root


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
