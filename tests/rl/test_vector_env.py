"""Tests for the rollout layer: the SyncVecEnv toy-env adapter, batched
policy methods, and the one collection path (against CounterEnv)."""

import numpy as np
import pytest

from repro.rl import A2C, NodePolicy, PPO, PPOConfig

from .toy_env import CounterEnv, SyncVecEnv, counter_venv


def make_policy(seed=0):
    return NodePolicy(obs_dim=CounterEnv.OBS_DIM, hidden=32,
                      rng=np.random.default_rng(seed))


# ---------------------------------------------------------------------------
# SyncVecEnv semantics
# ---------------------------------------------------------------------------
def test_sync_vec_env_shapes_and_autoreset():
    B, horizon = 3, 4
    venv = SyncVecEnv([CounterEnv(n=2, horizon=horizon) for _ in range(B)])
    obs = venv.reset()
    assert obs.shape == (B, 2, CounterEnv.OBS_DIM)
    for t in range(horizon):
        actions = np.stack([venv.action_space.sample(np.random.default_rng(t))
                            for _ in range(B)])
        obs, rewards, dones, infos = venv.step(actions)
        assert obs.shape == (B, 2, CounterEnv.OBS_DIM)
        assert rewards.shape == (B,) and dones.shape == (B,)
        assert len(infos) == B
    # Horizon reached simultaneously everywhere.
    assert dones.all()
    for info in infos:
        assert "terminal_observation" in info
        assert info["episode"]["l"] == horizon
    # Autoreset: the returned observation is the next episode's start.
    fresh = CounterEnv(n=2, horizon=horizon).reset()
    for b in range(B):
        np.testing.assert_array_equal(obs[b], fresh)


def test_sync_vec_env_matches_manual_loop():
    venv = SyncVecEnv([CounterEnv(n=2, horizon=3) for _ in range(2)])
    manual = [CounterEnv(n=2, horizon=3) for _ in range(2)]
    obs_v = venv.reset()
    obs_m = np.stack([env.reset() for env in manual])
    np.testing.assert_array_equal(obs_v, obs_m)
    rng = np.random.default_rng(0)
    for _ in range(5):
        actions = np.stack([venv.action_space.sample(rng) for _ in range(2)])
        obs_v, rew_v, done_v, _ = venv.step(actions)
        rows = []
        for b, env in enumerate(manual):
            o, r, d, _ = env.step(actions[b])
            if d:
                o = env.reset()
            rows.append((o, r, d))
        np.testing.assert_array_equal(obs_v, np.stack([r[0] for r in rows]))
        np.testing.assert_array_equal(rew_v, [r[1] for r in rows])
        np.testing.assert_array_equal(done_v, [r[2] for r in rows])


def test_sync_vec_env_validates():
    with pytest.raises(ValueError):
        SyncVecEnv([])
    venv = SyncVecEnv([CounterEnv(), CounterEnv()])
    venv.reset()
    with pytest.raises(ValueError, match="action rows"):
        venv.step(np.zeros((3, 16), dtype=int))


def test_sync_vec_env_seeds_envs_only_once():
    """A base seed is consumed by the first reset only — later resets let
    each env's stream continue instead of replaying it every rollout."""

    class SeedRecordingEnv(CounterEnv):
        def __init__(self):
            super().__init__()
            self.seeds_seen = []

        def reset(self, seed=None):
            self.seeds_seen.append(seed)
            return super().reset()

    envs = [SeedRecordingEnv(), SeedRecordingEnv()]
    venv = SyncVecEnv(envs, seed=3)
    venv.reset()
    venv.reset()
    for env in envs:
        assert env.seeds_seen[0] is not None
        assert env.seeds_seen[1] is None
    # Distinct envs get distinct spawned seeds.
    assert envs[0].seeds_seen[0] != envs[1].seeds_seen[0]
    # An explicit reseed hands out fresh seeds exactly once again.
    venv.reset(seed=4)
    venv.reset()
    for env in envs:
        assert env.seeds_seen[2] is not None
        assert env.seeds_seen[3] is None


def test_sync_vec_env_sample_actions_reproducible():
    a = SyncVecEnv([CounterEnv() for _ in range(3)], seed=5).sample_actions()
    b = SyncVecEnv([CounterEnv() for _ in range(3)], seed=5).sample_actions()
    np.testing.assert_array_equal(a, b)
    # Per-env streams are independent: env 0's draw is stable as B grows.
    c = SyncVecEnv([CounterEnv() for _ in range(5)], seed=5).sample_actions()
    np.testing.assert_array_equal(a[0], c[0])


# ---------------------------------------------------------------------------
# Batched policy methods
# ---------------------------------------------------------------------------
def test_act_batch_b1_byte_identical_to_act():
    policy = make_policy()
    obs = np.random.default_rng(1).standard_normal((4, CounterEnv.OBS_DIM))
    a1, lp1, v1 = policy.act(obs, np.random.default_rng(9))
    a2, lp2, v2 = policy.act_batch(obs[None], np.random.default_rng(9))
    np.testing.assert_array_equal(a1, a2[0])
    assert lp1 == lp2[0]
    assert v1 == v2[0]
    assert policy.value(obs).item() == policy.value_batch(obs[None])[0]


def test_act_batch_matches_per_env_evaluation():
    policy = make_policy()
    rng = np.random.default_rng(2)
    obs_batch = rng.standard_normal((5, 4, CounterEnv.OBS_DIM))
    actions, log_probs, values = policy.act_batch(obs_batch, rng)
    assert actions.shape == (5, 8)
    assert (actions >= 0).all() and (actions <= 2).all()
    for b in range(5):
        lp, _, v = policy.evaluate_actions(obs_batch[b], actions[b])
        assert lp.item() == pytest.approx(log_probs[b], rel=1e-12)
        assert v.item() == pytest.approx(values[b], rel=1e-12)


def test_act_batch_rejects_bad_shapes():
    policy = make_policy()
    with pytest.raises(ValueError, match="batched observation"):
        policy.act_batch(np.zeros((4, CounterEnv.OBS_DIM)),
                         np.random.default_rng(0))
    with pytest.raises(ValueError, match="batched observation"):
        policy.act_batch(np.zeros((2, 4, CounterEnv.OBS_DIM + 1)),
                         np.random.default_rng(0))


# ---------------------------------------------------------------------------
# Vectorized collection / learning
# ---------------------------------------------------------------------------
def test_collect_vectorized_b1_byte_identical():
    """At ``B = 1`` the collector is the scalar loop ``act -> step ->
    obs = reset() if done else next_obs``, transition for transition:
    the buffer matches a hand-rolled single-env loop byte for byte."""
    ppo = PPO(make_policy(), rng=np.random.default_rng(7))
    buf = ppo.collect_rollout(counter_venv(), 10)

    policy, rng, env = make_policy(), np.random.default_rng(7), CounterEnv()
    obs = env.reset()
    rows = []
    for _ in range(10):
        action, log_prob, value = policy.act(obs, rng)
        next_obs, reward, done, _ = env.step(action)
        rows.append((obs, action, reward, value, log_prob, done))
        obs = env.reset() if done else next_obs
    np.testing.assert_array_equal(
        np.stack([r[0] for r in rows]), buf.flat_observations()
    )
    np.testing.assert_array_equal(
        np.stack([r[1] for r in rows]), buf.flat_actions()
    )
    np.testing.assert_array_equal([r[2] for r in rows], buf.flat_rewards())
    np.testing.assert_array_equal([r[3] for r in rows], buf.values[:, 0])
    np.testing.assert_array_equal([r[4] for r in rows], buf.flat_log_probs())
    np.testing.assert_array_equal([r[5] for r in rows], buf.dones[:, 0])
    assert buf.last_values[0] == policy.value(obs).item()


def test_learn_vectorized_b1_byte_identical():
    """``learn`` at ``B = 1`` is exactly its collect/update iterations
    (24 steps in rollouts of 8), parameter for parameter."""
    ppo_a = PPO(make_policy(), PPOConfig(update_epochs=1),
                rng=np.random.default_rng(3))
    ppo_a.learn(counter_venv(), total_steps=24, rollout_steps=8)
    ppo_b = PPO(make_policy(), PPOConfig(update_epochs=1),
                rng=np.random.default_rng(3))
    env = counter_venv()
    for _ in range(3):
        ppo_b.update(ppo_b.collect_rollout(env, 8))
    for p_a, p_b in zip(ppo_a.policy.parameters(), ppo_b.policy.parameters()):
        np.testing.assert_array_equal(p_a.data, p_b.data)
    assert ppo_a.history == ppo_b.history


@pytest.mark.parametrize("agent_cls", [PPO, A2C])
def test_vectorized_learn_counts_batched_transitions(agent_cls):
    agent = agent_cls(make_policy(), rng=np.random.default_rng(0))
    venv = counter_venv(4, n=2, horizon=4)
    history = agent.learn(venv, total_steps=32, rollout_steps=4)
    assert sum(s.num_steps for s in history) == 32
    assert all(s.num_steps == 16 for s in history)  # 4 steps x 4 envs


def test_ppo_learns_counter_env_vectorized():
    """End-to-end: batched collection still improves the policy."""
    venv = counter_venv(4, n=3, horizon=6, target=3)
    policy = make_policy()
    ppo = PPO(
        policy,
        PPOConfig(lr=5e-3, update_epochs=2, entropy_coef=0.005),
        rng=np.random.default_rng(0),
    )
    ppo.learn(venv, total_steps=360, rollout_steps=12)
    early = np.mean([s.mean_reward for s in ppo.history[:2]])
    late = np.mean([s.mean_reward for s in ppo.history[-2:]])
    assert late > early, f"vectorized PPO did not improve: {early} -> {late}"


def test_truncation_bootstrap_recorded_on_collect():
    """Satellite fix: a rollout cut mid-episode carries a value-net
    bootstrap instead of the implicit 0.0."""
    ppo = PPO(make_policy(), rng=np.random.default_rng(0))
    env = counter_venv(n=2, horizon=8)
    buf = ppo.collect_rollout(env, 5)  # stops 3 steps before the boundary
    assert not buf.dones[-1, 0]
    assert buf.last_values is not None
    expected = ppo.policy.value(buf.last_obs[0]).item()
    assert buf.last_values[0] == pytest.approx(expected)
    # Ending exactly on the boundary zeroes the bootstrap.
    buf2 = ppo.collect_rollout(env, 8)
    assert buf2.dones[-1, 0]
    assert buf2.last_values[0] == 0.0
