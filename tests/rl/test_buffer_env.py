"""Tests for the rollout buffer's GAE at ``B = 1`` and the action space."""

import numpy as np
import pytest

from repro.rl import BatchedRolloutBuffer, MultiDiscreteSpace


# ---------------------------------------------------------------------------
# Spaces
# ---------------------------------------------------------------------------
def test_space_sample_and_contains():
    space = MultiDiscreteSpace([3, 3, 5])
    rng = np.random.default_rng(0)
    for _ in range(20):
        a = space.sample(rng)
        assert space.contains(a)


def test_space_rejects_invalid():
    space = MultiDiscreteSpace([3, 3])
    assert not space.contains(np.array([3, 0]))
    assert not space.contains(np.array([0.5, 1.0]))
    assert not space.contains(np.array([0, 0, 0]))


def test_space_validation():
    with pytest.raises(ValueError):
        MultiDiscreteSpace([[3, 3]])
    with pytest.raises(ValueError):
        MultiDiscreteSpace([0, 3])


def test_space_repr():
    assert "4 x 3" in repr(MultiDiscreteSpace([3, 3, 3, 3]))


# ---------------------------------------------------------------------------
# Buffer / GAE
# ---------------------------------------------------------------------------
def make_buffer(rewards, values, dones, gamma=0.9, lam=0.8):
    buf = BatchedRolloutBuffer(
        max(len(rewards), 1), 1, obs_shape=(2, 2), action_dim=4,
        gamma=gamma, gae_lambda=lam,
    )
    for r, v, d in zip(rewards, values, dones):
        buf.add(np.zeros((1, 2, 2)), np.zeros((1, 4), dtype=int),
                [r], [v], [0.0], [d])
    return buf


def gae(buf, last_value=0.0):
    """Flat ``(advantages, returns)`` of a ``B = 1`` buffer."""
    adv, ret = buf.compute_advantages(np.array([last_value]))
    return adv[:, 0], ret[:, 0]


def reference_gae(rewards, values, dones, last_value, gamma, lam):
    n = len(rewards)
    adv = np.zeros(n)
    gae = 0.0
    for t in reversed(range(n)):
        next_v = 0.0 if dones[t] else (values[t + 1] if t + 1 < n else last_value)
        nonterm = 0.0 if dones[t] else 1.0
        delta = rewards[t] + gamma * next_v * nonterm - values[t]
        gae = delta + gamma * lam * nonterm * gae
        adv[t] = gae
    return adv


def test_gae_matches_reference_implementation():
    rng = np.random.default_rng(0)
    rewards = rng.standard_normal(10)
    values = rng.standard_normal(10)
    dones = [False] * 9 + [True]
    buf = make_buffer(rewards, values, dones)
    adv, ret = gae(buf, last_value=0.5)
    expected = reference_gae(rewards, values, dones, 0.5, 0.9, 0.8)
    np.testing.assert_allclose(adv, expected)
    np.testing.assert_allclose(ret, expected + values)


def test_gae_single_step_terminal():
    buf = make_buffer([1.0], [0.3], [True])
    adv, ret = gae(buf)
    assert adv[0] == pytest.approx(1.0 - 0.3)
    assert ret[0] == pytest.approx(1.0)


def test_gae_bootstrap_uses_last_value():
    buf = make_buffer([0.0], [0.0], [False], gamma=1.0, lam=1.0)
    adv, _ = gae(buf, last_value=2.0)
    assert adv[0] == pytest.approx(2.0)


def test_gae_resets_at_episode_boundary():
    # Episode boundary between t=1 and t=2: reward at t=2 must not leak back.
    rewards = [0.0, 0.0, 100.0]
    values = [0.0, 0.0, 0.0]
    dones = [False, True, True]
    buf = make_buffer(rewards, values, dones, gamma=1.0, lam=1.0)
    adv, _ = gae(buf)
    assert adv[0] == pytest.approx(0.0)
    assert adv[2] == pytest.approx(100.0)


def test_gamma_lambda_one_gives_monte_carlo():
    rewards = [1.0, 1.0, 1.0]
    values = [0.0, 0.0, 0.0]
    buf = make_buffer(rewards, values, [False, False, True], gamma=1.0, lam=1.0)
    adv, ret = gae(buf)
    np.testing.assert_allclose(ret, [3.0, 2.0, 1.0])


def test_empty_buffer_raises():
    with pytest.raises(ValueError):
        make_buffer([], [], []).compute_advantages()
