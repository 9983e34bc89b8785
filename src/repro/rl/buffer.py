"""Rollout storage with Generalised Advantage Estimation.

The batched twin — preallocated ``(T, B, ...)`` storage with GAE vectorized
over the batch axis — lives in :mod:`repro.rl.vector.buffer`; its per-episode
results are byte-identical to this buffer's.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np


@dataclass
class RolloutBuffer:
    """Trajectory storage for one or more episodes of the topology MDP."""

    gamma: float = 0.99
    gae_lambda: float = 0.95
    observations: List[np.ndarray] = field(default_factory=list)
    actions: List[np.ndarray] = field(default_factory=list)
    rewards: List[float] = field(default_factory=list)
    values: List[float] = field(default_factory=list)
    log_probs: List[float] = field(default_factory=list)
    dones: List[bool] = field(default_factory=list)
    last_obs: Optional[np.ndarray] = None
    """Observation following the final stored transition (set by the
    collectors; ``None`` for hand-built buffers)."""
    last_value: Optional[float] = None
    """Truncation bootstrap: the value estimate of :attr:`last_obs` at
    collection time, zero when the final transition ended an episode.
    ``None`` means no bootstrap was recorded (hand-built buffer)."""

    def set_bootstrap(self, last_obs: np.ndarray, last_value: float) -> None:
        """Record the truncation bootstrap at collection time.

        A rollout cut mid-episode must bootstrap the unfinished return from
        the value net; storing it here (instead of recomputing at update
        time from agent-private state) makes the buffer self-contained.
        """
        self.last_obs = np.asarray(last_obs)
        self.last_value = float(last_value)

    def add(
        self,
        obs: np.ndarray,
        action: np.ndarray,
        reward: float,
        value: float,
        log_prob: float,
        done: bool,
    ) -> None:
        """Append one transition."""
        self.observations.append(np.asarray(obs))
        self.actions.append(np.asarray(action))
        self.rewards.append(float(reward))
        self.values.append(float(value))
        self.log_probs.append(float(log_prob))
        self.dones.append(bool(done))

    def __len__(self) -> int:
        return len(self.rewards)

    def clear(self) -> None:
        """Drop every stored transition (the bootstrap is kept)."""
        for lst in (
            self.observations,
            self.actions,
            self.rewards,
            self.values,
            self.log_probs,
            self.dones,
        ):
            lst.clear()
        self.last_obs = None
        self.last_value = None

    def compute_advantages(self, last_value: float = 0.0) -> tuple:
        """GAE(lambda) advantages and discounted returns.

        ``last_value`` bootstraps the value of the state following the final
        transition (zero when that transition ended an episode).
        Returns ``(advantages, returns)`` as float arrays.
        """
        n = len(self)
        if n == 0:
            raise ValueError("cannot compute advantages of an empty buffer")
        advantages = np.zeros(n)
        gae = 0.0
        for t in reversed(range(n)):
            if self.dones[t]:
                next_value = 0.0
                next_non_terminal = 0.0
            else:
                next_value = self.values[t + 1] if t + 1 < n else last_value
                next_non_terminal = 1.0
            delta = (
                self.rewards[t]
                + self.gamma * next_value * next_non_terminal
                - self.values[t]
            )
            gae = delta + self.gamma * self.gae_lambda * next_non_terminal * gae
            advantages[t] = gae
        returns = advantages + np.asarray(self.values)
        return advantages, returns
