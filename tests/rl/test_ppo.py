"""PPO tests: policy mechanics plus an end-to-end toy-control check."""

import numpy as np
import pytest

from repro.nn import clip_grad_norm
from repro.rl import NodePolicy, PPO, PPOConfig

from .toy_env import CounterEnv, counter_venv


@pytest.fixture
def policy():
    return NodePolicy(obs_dim=CounterEnv.OBS_DIM, hidden=32, rng=np.random.default_rng(0))


def test_policy_act_shapes(policy):
    obs = np.zeros((4, 4))
    action, log_prob, value = policy.act(obs, np.random.default_rng(0))
    assert action.shape == (8,)  # k-bank + d-bank
    assert (action >= 0).all() and (action <= 2).all()
    assert np.isfinite(log_prob)
    assert np.isfinite(value)


def test_policy_rejects_bad_obs(policy):
    with pytest.raises(ValueError):
        policy.act(np.zeros((4, 5)), np.random.default_rng(0))


def test_evaluate_actions_differentiable(policy):
    obs = np.random.default_rng(0).standard_normal((4, 4))
    action = np.zeros(8, dtype=int)
    log_prob, entropy, value = policy.evaluate_actions(obs, action)
    (log_prob + entropy + value).backward()
    assert any(p.grad is not None for p in policy.parameters())


def test_evaluate_matches_act_log_prob(policy):
    obs = np.random.default_rng(1).standard_normal((4, 4))
    rng = np.random.default_rng(2)
    action, log_prob, value = policy.act(obs, rng)
    lp, _, v = policy.evaluate_actions(obs, action)
    assert lp.item() == pytest.approx(log_prob)
    assert v.item() == pytest.approx(value)


def test_collect_rollout_length(policy):
    env = counter_venv()
    ppo = PPO(policy, rng=np.random.default_rng(0))
    buf = ppo.collect_rollout(env, 10)
    assert len(buf) == 10
    # Episode boundary after horizon=8 steps.
    assert buf.dones[7, 0]
    assert not buf.dones[8, 0]


def test_update_returns_stats(policy):
    env = counter_venv()
    ppo = PPO(policy, PPOConfig(update_epochs=1), rng=np.random.default_rng(0))
    buf = ppo.collect_rollout(env, 8)
    stats = ppo.update(buf)
    assert stats.num_steps == 8
    assert np.isfinite(stats.policy_loss)
    assert np.isfinite(stats.value_loss)
    assert stats.entropy > 0


def test_gradient_clipping_bounds_norm(policy):
    for p in policy.parameters():
        p.grad = np.ones_like(p.data) * 100.0
    clip_grad_norm(policy.parameters(), 0.001)
    total = sum(float((p.grad**2).sum()) for p in policy.parameters())
    assert np.sqrt(total) <= 0.001 + 1e-9


def test_gradient_clipping_matches_sequential_norm_sum(policy):
    """The shared clip sums squared norms parameter by parameter, in
    order, so its scale is bitwise that of a plain left-to-right loop."""
    rng = np.random.default_rng(5)
    params = policy.parameters()
    for p in params:
        p.grad = rng.standard_normal(p.data.shape)
    params[1].grad = None  # parameters without a gradient are skipped
    expected = [None if p.grad is None else p.grad.copy() for p in params]
    total = 0.0
    for g in expected:
        if g is not None:
            total += float((g**2).sum())
    scale = 0.5 / (np.sqrt(total) + 1e-12)
    clip_grad_norm(params, 0.5)
    for p, g in zip(params, expected):
        if g is None:
            assert p.grad is None
        else:
            np.testing.assert_array_equal(p.grad, g * scale)


def test_gradient_clipping_leaves_small_or_disabled_norms(policy):
    for p in policy.parameters():
        p.grad = np.full_like(p.data, 1e-6)
    clip_grad_norm(policy.parameters(), 10.0)
    clip_grad_norm(policy.parameters(), 0.0)
    assert all((p.grad == 1e-6).all() for p in policy.parameters())


def test_ppo_learns_counter_env():
    """End-to-end: mean episode reward should rise toward the optimum."""
    env = counter_venv(n=3, horizon=6, target=3)
    policy = NodePolicy(obs_dim=CounterEnv.OBS_DIM, hidden=32, rng=np.random.default_rng(0))
    ppo = PPO(
        policy,
        PPOConfig(lr=5e-3, update_epochs=4, entropy_coef=0.005),
        rng=np.random.default_rng(0),
    )
    ppo.learn(env, total_steps=360, rollout_steps=24)
    early = np.mean([s.mean_reward for s in ppo.history[:3]])
    late = np.mean([s.mean_reward for s in ppo.history[-3:]])
    assert late > early, f"PPO did not improve: {early} -> {late}"
    # Optimal per-step reward is 6 (every counter moves toward target each
    # step until saturation); insist on clear progress beyond random (~0).
    assert late > 1.5


def test_learn_respects_total_steps(policy):
    env = counter_venv()
    ppo = PPO(policy, PPOConfig(update_epochs=1), rng=np.random.default_rng(0))
    history = ppo.learn(env, total_steps=20, rollout_steps=8)
    assert sum(s.num_steps for s in history) == 20
