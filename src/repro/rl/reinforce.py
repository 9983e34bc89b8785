"""REINFORCE (Monte-Carlo policy gradient) with a moving-average baseline.

The paper notes (Sec. IV-B) that "in addition to the PPO algorithm, other
reinforcement learning algorithms can also be conveniently applied to the
proposed framework"; this module and :mod:`repro.rl.a2c` make that claim
concrete.  REINFORCE is the simplest possible agent: no critic, whole-
episode returns, a scalar baseline to cut variance.  It collects through
the same batched collector as PPO/A2C, so any batch width works.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..nn import Adam
from .policy import NodePolicy
from .ppo import PPOStats
from .vector.base import VecEnv
from .vector.buffer import BatchedRolloutBuffer
from .vector.rollout import collect_vectorized_rollout, learn_loop


@dataclass
class ReinforceConfig:
    """Hyper-parameters of the REINFORCE update."""

    lr: float = 3e-3
    gamma: float = 0.99
    entropy_coef: float = 0.01
    baseline_decay: float = 0.9
    """Exponential moving-average factor for the scalar return baseline."""


class Reinforce:
    """Episodic policy-gradient agent with the same driver API as PPO."""

    def __init__(
        self,
        policy: NodePolicy,
        config: Optional[ReinforceConfig] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        self.policy = policy
        self.config = config or ReinforceConfig()
        self.rng = rng or np.random.default_rng(0)
        self.optimizer = Adam(policy.parameters(), lr=self.config.lr)
        self.history: List[PPOStats] = []
        self._baseline = 0.0
        self._baseline_initialised = False

    # ------------------------------------------------------------------
    def collect_rollout(
        self, env: VecEnv, num_steps: int
    ) -> BatchedRolloutBuffer:
        """Run the policy for ``num_steps`` batched steps (the value slots
        are recorded but unused)."""
        return collect_vectorized_rollout(
            self.policy, env, num_steps, self.rng, gamma=self.config.gamma
        )

    def _returns(self, buffer: BatchedRolloutBuffer) -> np.ndarray:
        """Discounted returns-to-go, ``(T, B)``: one backward sweep over
        the batch axis, restarting each column at its episode
        boundaries."""
        returns = np.zeros((buffer.pos, buffer.num_envs))
        running = np.zeros(buffer.num_envs)
        for t in reversed(range(buffer.pos)):
            running = buffer.rewards[t] + self.config.gamma * np.where(
                buffer.dones[t], 0.0, running
            )
            returns[t] = running
        return returns

    def update(self, buffer: BatchedRolloutBuffer) -> PPOStats:
        """One REINFORCE gradient step over the rollout."""
        cfg = self.config
        returns = self._returns(buffer).reshape(-1)  # time-major samples

        mean_return = float(returns.mean())
        if not self._baseline_initialised:
            self._baseline = mean_return
            self._baseline_initialised = True
        else:
            self._baseline = (
                cfg.baseline_decay * self._baseline
                + (1.0 - cfg.baseline_decay) * mean_return
            )
        advantages = returns - self._baseline

        # One batched gradient step per rollout: per-sample Adam steps make
        # REINFORCE collapse (later samples see a policy already moved by
        # earlier ones while their advantages are stale).
        observations = buffer.flat_observations()
        actions = buffer.flat_actions()
        policy_losses, entropies = [], []
        self.optimizer.zero_grad()
        scale = 1.0 / max(len(buffer), 1)
        for idx in range(len(buffer)):
            log_prob, entropy, _ = self.policy.evaluate_actions(
                observations[idx], actions[idx]
            )
            loss = (-log_prob * advantages[idx] - cfg.entropy_coef * entropy) * scale
            loss.backward()
            policy_losses.append(-log_prob.item() * advantages[idx])
            entropies.append(entropy.item())
        self.optimizer.step()

        stats = PPOStats(
            mean_reward=float(buffer.flat_rewards().mean()),
            policy_loss=float(np.mean(policy_losses)),
            value_loss=0.0,
            entropy=float(np.mean(entropies)),
            num_steps=len(buffer),
        )
        self.history.append(stats)
        return stats

    def learn(
        self,
        env: VecEnv,
        total_steps: int,
        rollout_steps: int = 16,
    ) -> List[PPOStats]:
        """Alternate rollouts and updates until ``total_steps`` (see
        :meth:`PPO.learn`)."""
        return learn_loop(self, env, total_steps, rollout_steps)
