"""Toy environments for the RL tests, and the adapter that runs them.

The agents collect through one path, the batched
:class:`~repro.rl.vector.VecEnv` contract.  A toy single-episode env
(:class:`Env`, e.g. :class:`CounterEnv`) meets it through
:class:`SyncVecEnv`, which steps ``B`` plain envs in a Python loop with
gym-style autoreset — ``SyncVecEnv([CounterEnv()])`` is the ``B = 1``
case.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence, Tuple

import numpy as np

from repro.rl import MultiDiscreteSpace, VecEnv


class Env:
    """The classic step/reset contract.

    Observations are arrays of shape ``(num_components_over_2?, features)``
    defined by the concrete environment; ``step`` returns
    ``(obs, reward, done, info)``.  Environments with internal randomness
    should accept an optional ``seed`` keyword on ``reset`` (gym-style) so
    :class:`SyncVecEnv` can hand each episode an independent spawned
    stream.
    """

    action_space: MultiDiscreteSpace

    def reset(self) -> np.ndarray:
        """Start a new episode; returns its first observation."""
        raise NotImplementedError

    def step(self, action: np.ndarray) -> Tuple[np.ndarray, float, bool, Dict[str, Any]]:
        """Apply ``action``; returns ``(obs, reward, done, info)``."""
        raise NotImplementedError


class SyncVecEnv(VecEnv):
    """Step ``B`` independent env instances sequentially with autoreset.

    ``SyncVecEnv([env])`` is how a toy single env meets the one rollout
    path of the agents (``B = 1``).

    Parameters
    ----------
    envs:
        The per-episode environments; all must share one action space
        layout.
    seed:
        Optional base seed.  When given, per-env seeds are spawned from one
        :class:`numpy.random.SeedSequence` and passed to ``env.reset(seed=
        ...)`` on the first reset — envs whose ``reset`` does not accept a
        seed may only be used unseeded.
    """

    def __init__(self, envs: Sequence[Env], seed: int | None = None) -> None:
        if not envs:
            raise ValueError("SyncVecEnv needs at least one environment")
        self.envs = list(envs)
        self.num_envs = len(self.envs)
        self.action_space = self.envs[0].action_space
        self._spawn_rngs(seed)
        self.episode_returns = np.zeros(self.num_envs)
        self.episode_lengths = np.zeros(self.num_envs, dtype=np.int64)

    def _spawn_rngs(self, seed: int | None) -> None:
        self._seed = seed
        children = np.random.SeedSequence(seed).spawn(self.num_envs)
        self.rngs = [np.random.default_rng(c) for c in children]
        # Deterministic per-env integer seeds for envs that accept
        # ``reset(seed=...)``; only materialised for an explicit base seed,
        # and consumed by exactly one reset — later resets let each env's
        # stream continue instead of replaying it.
        self._pending_env_seeds = (
            [int(c.generate_state(1)[0]) for c in children]
            if seed is not None
            else None
        )

    # ------------------------------------------------------------------
    def reset(self, seed: int | None = None) -> np.ndarray:
        """Reset every env; ``(B, ...)`` stacked first observations.

        A ``seed`` respawns the per-env generators and hands each env one
        derived seed on this reset only.
        """
        if seed is not None:
            self._spawn_rngs(seed)
        self.episode_returns[:] = 0.0
        self.episode_lengths[:] = 0
        if self._pending_env_seeds is not None:
            obs = [
                env.reset(seed=s)
                for env, s in zip(self.envs, self._pending_env_seeds)
            ]
            self._pending_env_seeds = None
        else:
            obs = [env.reset() for env in self.envs]
        return np.stack(obs)

    def step(
        self, actions: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, List[Dict[str, Any]]]:
        """Step every env with its action row, autoresetting finished
        episodes; ``(obs, rewards, dones, infos)``."""
        actions = np.asarray(actions)
        if actions.shape[0] != self.num_envs:
            raise ValueError(
                f"expected {self.num_envs} action rows, got {actions.shape}"
            )
        obs_out, rewards, dones, infos = [], [], [], []
        for b, env in enumerate(self.envs):
            obs, reward, done, info = env.step(actions[b])
            self.episode_returns[b] += reward
            self.episode_lengths[b] += 1
            info = dict(info)
            if done:
                info["terminal_observation"] = obs
                info["episode"] = {
                    "r": float(self.episode_returns[b]),
                    "l": int(self.episode_lengths[b]),
                }
                self.episode_returns[b] = 0.0
                self.episode_lengths[b] = 0
                obs = env.reset()
            obs_out.append(obs)
            rewards.append(float(reward))
            dones.append(bool(done))
            infos.append(info)
        return (
            np.stack(obs_out),
            np.asarray(rewards),
            np.asarray(dones, dtype=bool),
            infos,
        )

    def sample_actions(self) -> np.ndarray:
        """One uniformly random action per env, ``(B, num_components)``,
        from each env's own generator."""
        return np.stack(
            [self.action_space.sample(rng) for rng in self.rngs]
        )


class CounterEnv(Env):
    """Toy multi-discrete control problem with the GraphRARE action layout.

    Each of ``n`` counters starts at 0 and should reach its target; actions
    are (dec / keep / inc) per counter for two banks (mirroring the k and d
    banks).  Reward is the decrease in total distance to target — directly
    analogous to the paper's Delta-accuracy reward.
    """

    OBS_DIM = 4

    def __init__(self, n=4, horizon=8, target=3):
        self.n = n
        self.horizon = horizon
        self.target = np.full(2 * n, float(target))
        self.action_space = MultiDiscreteSpace([3] * 2 * n)

    def _obs(self):
        # Row i describes counter i in both banks: (value, gap) x 2.
        k_state, d_state = self.state[: self.n], self.state[self.n :]
        k_gap = self.target[: self.n] - k_state
        d_gap = self.target[self.n :] - d_state
        return np.stack(
            [k_state / 5.0, k_gap / 5.0, d_state / 5.0, d_gap / 5.0], axis=1
        )

    def reset(self):
        self.state = np.zeros(2 * self.n)
        self.t = 0
        return self._obs()

    def step(self, action):
        before = np.abs(self.target - self.state).sum()
        self.state += np.asarray(action) - 1.0
        after = np.abs(self.target - self.state).sum()
        self.t += 1
        done = self.t >= self.horizon
        return self._obs(), float(before - after), done, {}


def counter_venv(num_envs: int = 1, seed=None, **kwargs) -> SyncVecEnv:
    """``num_envs`` :class:`CounterEnv` instances behind one
    :class:`SyncVecEnv`."""
    return SyncVecEnv([CounterEnv(**kwargs) for _ in range(num_envs)],
                      seed=seed)
