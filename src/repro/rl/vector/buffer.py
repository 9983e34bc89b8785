"""Preallocated ``(T, B, ...)`` rollout storage with batched GAE.

The one rollout buffer: dense numpy arrays for a fixed-length rollout of
``B`` episodes (``B = 1`` for a single env), with GAE(lambda) computed over
the whole batch axis in one backward sweep.  Column ``b`` of the
advantage/return arrays is byte-identical to the scalar per-episode GAE
recursion for episode ``b`` (the property tests assert exact equality
against a scalar oracle, including every done-mask edge case) — the
arithmetic is the same float64 expression evaluated per batch column.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np


class BatchedRolloutBuffer:
    """Fixed-capacity trajectory storage for ``B`` parallel episodes.

    Parameters
    ----------
    num_steps:
        ``T``, the rollout length (transitions per environment).
    num_envs:
        ``B``, the batch width.
    obs_shape:
        Per-env observation shape (e.g. ``(N, OBS_DIM)``).
    action_dim:
        Flat per-env action length (``2N`` for the topology MDP).
    """

    def __init__(
        self,
        num_steps: int,
        num_envs: int,
        obs_shape: tuple,
        action_dim: int,
        gamma: float = 0.99,
        gae_lambda: float = 0.95,
    ) -> None:
        if num_steps < 1 or num_envs < 1:
            raise ValueError("num_steps and num_envs must be >= 1")
        self.num_steps = int(num_steps)
        self.num_envs = int(num_envs)
        self.gamma = gamma
        self.gae_lambda = gae_lambda
        T, B = self.num_steps, self.num_envs
        self.observations = np.zeros((T, B) + tuple(obs_shape))
        self.actions = np.zeros((T, B, int(action_dim)), dtype=np.int64)
        self.rewards = np.zeros((T, B))
        self.values = np.zeros((T, B))
        self.log_probs = np.zeros((T, B))
        self.dones = np.zeros((T, B), dtype=bool)
        self.pos = 0
        self.last_obs: Optional[np.ndarray] = None
        self.last_values: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    def add(
        self,
        obs: np.ndarray,
        actions: np.ndarray,
        rewards: np.ndarray,
        values: np.ndarray,
        log_probs: np.ndarray,
        dones: np.ndarray,
    ) -> None:
        """Record one batched transition (arrays with leading dim ``B``)."""
        if self.pos >= self.num_steps:
            raise ValueError(
                f"buffer full: capacity {self.num_steps} steps"
            )
        t = self.pos
        self.observations[t] = obs
        self.actions[t] = actions
        self.rewards[t] = rewards
        self.values[t] = values
        self.log_probs[t] = log_probs
        self.dones[t] = dones
        self.pos = t + 1

    def set_bootstrap(
        self, last_obs: np.ndarray, last_values: np.ndarray
    ) -> None:
        """Store the truncation bootstrap: the observation following the
        final transition and its value estimates (zeroed where the final
        transition ended an episode)."""
        self.last_obs = np.asarray(last_obs)
        self.last_values = np.asarray(last_values, dtype=np.float64)

    def __len__(self) -> int:
        """Total stored transitions across the batch (``pos * B``)."""
        return self.pos * self.num_envs

    @property
    def full(self) -> bool:
        """Whether all ``num_steps`` vector steps are stored."""
        return self.pos == self.num_steps

    # ------------------------------------------------------------------
    def compute_advantages(
        self, last_values: Optional[np.ndarray] = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Batched GAE(lambda); returns ``(advantages, returns)`` of shape
        ``(pos, B)``.

        ``last_values`` bootstraps the state following each episode's final
        transition; defaults to the stored bootstrap (or zeros when none
        was recorded).  Done masking is per column: a ``done`` at
        ``(t, b)`` zeroes both the bootstrap term and the GAE carry-over
        for that episode only.
        """
        T = self.pos
        if T == 0:
            raise ValueError("cannot compute advantages of an empty buffer")
        B = self.num_envs
        if last_values is None:
            last_values = (
                self.last_values
                if self.last_values is not None
                else np.zeros(B)
            )
        last_values = np.asarray(last_values, dtype=np.float64)
        if last_values.shape != (B,):
            raise ValueError(
                f"last_values must have shape ({B},), got {last_values.shape}"
            )
        advantages = np.zeros((T, B))
        gae = np.zeros(B)
        for t in reversed(range(T)):
            non_terminal = 1.0 - self.dones[t]
            next_values = self.values[t + 1] if t + 1 < T else last_values
            delta = (
                self.rewards[t]
                + self.gamma * next_values * non_terminal
                - self.values[t]
            )
            gae = delta + self.gamma * self.gae_lambda * non_terminal * gae
            advantages[t] = gae
        returns = advantages + self.values[:T]
        return advantages, returns

    # ------------------------------------------------------------------
    # Flat (time-major) views for the per-sample update loops.  Index
    # ``i = t * B + b``; with ``B = 1`` this is exactly the time order of
    # a single env.
    # ------------------------------------------------------------------
    def flat_observations(self) -> np.ndarray:
        """Observations as ``(T * B, N, obs_dim)``, time-major."""
        T = self.pos
        return self.observations[:T].reshape(
            (T * self.num_envs,) + self.observations.shape[2:]
        )

    def flat_actions(self) -> np.ndarray:
        """Actions as ``(T * B, action_dim)``, time-major."""
        T = self.pos
        return self.actions[:T].reshape(T * self.num_envs, -1)

    def flat_log_probs(self) -> np.ndarray:
        """Rollout log-probabilities as ``(T * B,)``, time-major."""
        return self.log_probs[: self.pos].reshape(-1)

    def flat_rewards(self) -> np.ndarray:
        """Rewards as ``(T * B,)``, time-major."""
        return self.rewards[: self.pos].reshape(-1)

    def compute_flat_advantages(self) -> Tuple[np.ndarray, np.ndarray]:
        """Time-major flattened ``(advantages, returns)`` using the stored
        bootstrap values."""
        advantages, returns = self.compute_advantages()
        return advantages.reshape(-1), returns.reshape(-1)
