"""Tests for the alternative RL agents (REINFORCE, A2C) and the registry."""

import numpy as np
import pytest

from repro.nn import clip_grad_norm
from repro.rl import (
    A2C,
    A2CConfig,
    NodePolicy,
    PPO,
    PPOConfig,
    Reinforce,
    ReinforceConfig,
    agent_names,
    build_agent,
)

from .toy_env import CounterEnv, counter_venv


def make_policy(seed=0):
    return NodePolicy(obs_dim=CounterEnv.OBS_DIM, hidden=32,
                      rng=np.random.default_rng(seed))


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------
def test_agent_names():
    assert agent_names() == ["a2c", "ppo", "reinforce"]


@pytest.mark.parametrize("name,cls", [("ppo", PPO), ("a2c", A2C),
                                      ("reinforce", Reinforce)])
def test_build_agent_types(name, cls):
    agent = build_agent(name, make_policy())
    assert isinstance(agent, cls)


def test_build_agent_unknown():
    with pytest.raises(ValueError, match="unknown RL algorithm"):
        build_agent("dqn", make_policy())


def test_build_agent_translates_ppo_config():
    cfg = PPOConfig(lr=0.123, gamma=0.5, entropy_coef=0.07)
    agent = build_agent("reinforce", make_policy(), cfg)
    assert isinstance(agent.config, ReinforceConfig)
    assert agent.config.lr == 0.123
    assert agent.config.gamma == 0.5
    assert agent.config.entropy_coef == 0.07


def test_build_agent_keeps_native_config():
    cfg = A2CConfig(lr=0.01)
    agent = build_agent("a2c", make_policy(), cfg)
    assert agent.config is cfg


# ---------------------------------------------------------------------------
# REINFORCE
# ---------------------------------------------------------------------------
def test_reinforce_returns_restart_at_boundaries():
    agent = Reinforce(make_policy(), ReinforceConfig(gamma=1.0))
    env = counter_venv(n=2, horizon=2)
    buf = agent.collect_rollout(env, 4)
    # Manually set rewards for a deterministic check.
    buf.rewards[:] = 1.0
    returns = agent._returns(buf)
    np.testing.assert_allclose(returns[:, 0], [2.0, 1.0, 2.0, 1.0])


def test_reinforce_batched_returns_match_per_episode_sweep():
    """Each column of the batched returns-to-go is the scalar backward
    sweep of that episode alone, bit for bit, boundaries included."""
    agent = Reinforce(make_policy(), ReinforceConfig(gamma=0.9))
    buf = agent.collect_rollout(counter_venv(3, n=2, horizon=3), 7)
    rng = np.random.default_rng(0)
    buf.rewards[:] = rng.standard_normal(buf.rewards.shape)
    buf.dones[:] = rng.random(buf.dones.shape) < 0.3
    returns = agent._returns(buf)
    for b in range(3):
        expected = np.zeros(7)
        running = 0.0
        for t in reversed(range(7)):
            if buf.dones[t, b]:
                running = 0.0
            running = buf.rewards[t, b] + 0.9 * running
            expected[t] = running
        np.testing.assert_array_equal(returns[:, b], expected)


@pytest.mark.parametrize("num_envs", [2, 4])
def test_reinforce_learns_with_batched_envs(num_envs):
    """REINFORCE runs at any batch width: ``learn`` counts ``B``
    transitions per vector step and the update sees all of them."""
    agent = Reinforce(make_policy(), rng=np.random.default_rng(0))
    history = agent.learn(
        counter_venv(num_envs, n=2, horizon=4), total_steps=32,
        rollout_steps=4,
    )
    assert sum(s.num_steps for s in history) == 32
    assert all(s.num_steps == 4 * num_envs for s in history)
    assert all(np.isfinite(s.policy_loss) for s in history)


def test_reinforce_update_stats():
    agent = Reinforce(make_policy(), rng=np.random.default_rng(0))
    env = counter_venv(n=2, horizon=4)
    buf = agent.collect_rollout(env, 4)
    stats = agent.update(buf)
    assert stats.num_steps == 4
    assert stats.value_loss == 0.0  # no critic
    assert np.isfinite(stats.policy_loss)


def test_reinforce_baseline_tracks_returns():
    agent = Reinforce(make_policy(), ReinforceConfig(baseline_decay=0.0))
    env = counter_venv(n=2, horizon=2)
    buf = agent.collect_rollout(env, 2)
    agent.update(buf)
    returns = agent._returns(buf)
    # With decay 0 the baseline equals the last mean return... after the
    # first update it is exactly the first mean (initialisation).
    assert agent._baseline == pytest.approx(float(returns.mean()))


def test_reinforce_learns_counter_env():
    env = counter_venv(n=3, horizon=6, target=3)
    agent = Reinforce(
        make_policy(), ReinforceConfig(lr=5e-3, entropy_coef=0.005),
        rng=np.random.default_rng(0),
    )
    agent.learn(env, total_steps=480, rollout_steps=24)
    early = np.mean([s.mean_reward for s in agent.history[:3]])
    late = np.mean([s.mean_reward for s in agent.history[-3:]])
    assert late > early
    assert late > 1.0


# ---------------------------------------------------------------------------
# A2C
# ---------------------------------------------------------------------------
def test_a2c_update_stats():
    agent = A2C(make_policy(), rng=np.random.default_rng(0))
    env = counter_venv(n=2, horizon=4)
    buf = agent.collect_rollout(env, 4)
    stats = agent.update(buf)
    assert stats.num_steps == 4
    assert stats.value_loss > 0.0
    assert np.isfinite(stats.policy_loss)


def test_a2c_gradient_clipping(monkeypatch):
    """Every A2C step clips through the shared ``clip_grad_norm`` with the
    configured bound, before the optimizer sees the gradients."""
    import repro.rl.a2c as a2c_module

    norms = []

    def recording_clip(params, max_norm):
        params = list(params)
        clip_grad_norm(params, max_norm)
        assert max_norm == 0.01
        norms.append(np.sqrt(sum(
            float((p.grad**2).sum()) for p in params if p.grad is not None
        )))

    monkeypatch.setattr(a2c_module, "clip_grad_norm", recording_clip)
    agent = A2C(make_policy(), A2CConfig(max_grad_norm=0.01),
                rng=np.random.default_rng(0))
    buf = agent.collect_rollout(counter_venv(n=2, horizon=4), 4)
    agent.update(buf)
    assert len(norms) == 4
    assert max(norms) <= 0.01 + 1e-9


def test_a2c_learns_counter_env():
    env = counter_venv(n=3, horizon=6, target=3)
    agent = A2C(
        make_policy(), A2CConfig(lr=5e-3, entropy_coef=0.005),
        rng=np.random.default_rng(0),
    )
    agent.learn(env, total_steps=480, rollout_steps=24)
    early = np.mean([s.mean_reward for s in agent.history[:3]])
    late = np.mean([s.mean_reward for s in agent.history[-3:]])
    assert late > early
    assert late > 1.0


# ---------------------------------------------------------------------------
# Framework integration
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("algorithm", ["a2c", "reinforce"])
def test_graphrare_with_alternative_agents(algorithm):
    from repro.core import GraphRARE, RareConfig
    from repro.datasets import planted_partition_graph
    from repro.graph import random_split

    graph = planted_partition_graph(
        num_nodes=50, num_classes=3, homophily=0.25,
        feature_signal=0.5, num_features=48, seed=0,
    )
    split = random_split(graph.labels, np.random.default_rng(0))
    cfg = RareConfig(
        rl_algorithm=algorithm, k_max=3, d_max=3, max_candidates=8,
        episodes=2, horizon=3, final_epochs=30, final_patience=8, seed=0,
    )
    result = GraphRARE("gcn", cfg).fit(graph, split, train_baseline=False)
    assert 0.0 <= result.test_acc <= 1.0


def test_rare_config_rejects_unknown_algorithm():
    from repro.core import RareConfig

    with pytest.raises(ValueError, match="rl_algorithm"):
        RareConfig(rl_algorithm="q-learning")
