"""Sequential vectorized wrapper around a list of single environments.

:class:`SyncVecEnv` is the reference twin of the batched execution layer:
it implements the :class:`~repro.rl.vector.base.VecEnv` contract by simply
stepping ``B`` ordinary :class:`~repro.rl.env.Env` instances in a Python
loop.  It earns no speed, but it defines the semantics — the equivalence
tests pit :class:`~repro.rl.vector.topology.VecTopologyEnv` against it, and
any toy env (the test-suite's ``CounterEnv``) can be vectorized with it.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence, Tuple

import numpy as np

from ..env import Env
from .base import VecEnv


class SyncVecEnv(VecEnv):
    """Step ``B`` independent env instances sequentially with autoreset.

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
