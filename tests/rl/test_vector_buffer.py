"""Property tests for the batched rollout buffer's GAE.

The contract: batched GAE over B episodes is *byte-identical* to B
independent scalar GAE recursions (the oracle below) — including every
done-mask edge (done at the last step, mid-rollout boundaries, all-done,
never-done) and the truncation bootstrap.
"""

import numpy as np
import pytest

from repro.rl import BatchedRolloutBuffer


def fill_batched(rewards, values, dones, gamma=0.9, lam=0.8):
    """Build a batched buffer from (T, B) arrays (obs/actions are dummies)."""
    T, B = rewards.shape
    buf = BatchedRolloutBuffer(
        T, B, obs_shape=(2, 2), action_dim=4, gamma=gamma, gae_lambda=lam
    )
    for t in range(T):
        buf.add(
            np.zeros((B, 2, 2)),
            np.zeros((B, 4), dtype=np.int64),
            rewards[t],
            values[t],
            np.zeros(B),
            dones[t],
        )
    return buf


def single_env_gae(rewards, values, dones, last_value, gamma=0.9, lam=0.8):
    """Episode-b oracle: the scalar GAE(lambda) recursion, one transition
    at a time."""
    n = len(rewards)
    advantages = np.zeros(n)
    gae = 0.0
    for t in reversed(range(n)):
        if dones[t]:
            next_value = 0.0
            next_non_terminal = 0.0
        else:
            next_value = values[t + 1] if t + 1 < n else last_value
            next_non_terminal = 1.0
        delta = rewards[t] + gamma * next_value * next_non_terminal - values[t]
        gae = delta + gamma * lam * next_non_terminal * gae
        advantages[t] = gae
    return advantages, advantages + np.asarray(values)


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("T,B", [(1, 1), (7, 3), (16, 8), (5, 1)])
def test_batched_gae_byte_identical_to_single(seed, T, B):
    rng = np.random.default_rng(seed)
    rewards = rng.standard_normal((T, B))
    values = rng.standard_normal((T, B))
    dones = rng.random((T, B)) < 0.3
    last_values = np.where(dones[-1], 0.0, rng.standard_normal(B))

    buf = fill_batched(rewards, values, dones)
    adv, ret = buf.compute_advantages(last_values)
    assert adv.shape == (T, B) and ret.shape == (T, B)

    for b in range(B):
        adv_b, ret_b = single_env_gae(
            rewards[:, b], values[:, b], dones[:, b], float(last_values[b])
        )
        # Byte-identical, not just allclose.
        np.testing.assert_array_equal(adv[:, b], adv_b)
        np.testing.assert_array_equal(ret[:, b], ret_b)


@pytest.mark.parametrize(
    "dones_col",
    [
        [False, False, False],  # truncated: bootstrap flows in
        [False, False, True],   # ends exactly on a boundary
        [True, True, True],     # every step terminal
        [False, True, False],   # boundary mid-rollout
    ],
)
def test_batched_gae_done_mask_edges(dones_col):
    T = len(dones_col)
    rewards = np.arange(1.0, T + 1)[:, None] * np.array([[1.0, -2.0]])
    values = 0.5 * np.ones((T, 2))
    dones = np.array([dones_col, dones_col]).T
    last = np.where(dones[-1], 0.0, 2.0)
    buf = fill_batched(rewards, values, dones, gamma=1.0, lam=1.0)
    adv, ret = buf.compute_advantages(last)
    for b in range(2):
        adv_b, ret_b = single_env_gae(
            rewards[:, b], values[:, b], dones[:, b], float(last[b]),
            gamma=1.0, lam=1.0,
        )
        np.testing.assert_array_equal(adv[:, b], adv_b)
        np.testing.assert_array_equal(ret[:, b], ret_b)


def test_stored_bootstrap_used_by_default():
    rng = np.random.default_rng(0)
    rewards = rng.standard_normal((4, 2))
    values = rng.standard_normal((4, 2))
    dones = np.zeros((4, 2), dtype=bool)
    buf = fill_batched(rewards, values, dones)
    buf.set_bootstrap(np.zeros((2, 2, 2)), np.array([1.5, -0.5]))
    adv_default, _ = buf.compute_advantages()
    adv_explicit, _ = buf.compute_advantages(np.array([1.5, -0.5]))
    np.testing.assert_array_equal(adv_default, adv_explicit)
    # Without a stored bootstrap the default is zeros (single-env default).
    buf2 = fill_batched(rewards, values, dones)
    adv_zero, _ = buf2.compute_advantages()
    np.testing.assert_array_equal(
        adv_zero, buf2.compute_advantages(np.zeros(2))[0]
    )


def test_flatten_is_time_major():
    T, B = 3, 2
    buf = BatchedRolloutBuffer(T, B, obs_shape=(1,), action_dim=2)
    for t in range(T):
        buf.add(
            np.array([[t * 10.0], [t * 10.0 + 1]]),
            np.zeros((B, 2), dtype=np.int64),
            np.array([t * 10.0, t * 10.0 + 1]),
            np.zeros(B),
            np.zeros(B),
            np.zeros(B, dtype=bool),
        )
    # i = t * B + b
    np.testing.assert_array_equal(
        buf.flat_rewards(), [0.0, 1.0, 10.0, 11.0, 20.0, 21.0]
    )
    np.testing.assert_array_equal(
        buf.flat_observations().ravel(), [0.0, 1.0, 10.0, 11.0, 20.0, 21.0]
    )
    assert len(buf) == T * B


def test_capacity_and_empty_guards():
    buf = BatchedRolloutBuffer(1, 1, obs_shape=(1,), action_dim=2)
    with pytest.raises(ValueError, match="empty"):
        buf.compute_advantages()
    buf.add(np.zeros((1, 1)), np.zeros((1, 2), dtype=np.int64),
            np.zeros(1), np.zeros(1), np.zeros(1), np.zeros(1, dtype=bool))
    assert buf.full
    with pytest.raises(ValueError, match="full"):
        buf.add(np.zeros((1, 1)), np.zeros((1, 2), dtype=np.int64),
                np.zeros(1), np.zeros(1), np.zeros(1), np.zeros(1, dtype=bool))
    with pytest.raises(ValueError):
        BatchedRolloutBuffer(0, 1, obs_shape=(1,), action_dim=2)
    with pytest.raises(ValueError, match="last_values"):
        buf.compute_advantages(np.zeros(3))


def test_single_buffer_bootstrap_api():
    """A ``B = 1`` buffer carries its truncation bootstrap."""
    buf = BatchedRolloutBuffer(1, 1, obs_shape=(2, 2), action_dim=4)
    assert buf.last_values is None and buf.last_obs is None
    buf.add(np.zeros((1, 2, 2)), np.zeros((1, 4), dtype=np.int64),
            [1.0], [0.5], [0.0], [False])
    buf.set_bootstrap(np.ones((1, 2, 2)), [0.25])
    assert buf.last_values[0] == 0.25
    assert np.array_equal(buf.last_obs, np.ones((1, 2, 2)))
    adv, _ = buf.compute_advantages()
    assert adv[0, 0] == 1.0 + 0.99 * 0.25 - 0.5
