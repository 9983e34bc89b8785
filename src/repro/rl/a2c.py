"""Advantage Actor-Critic (A2C), synchronous single-worker variant.

A middle ground between REINFORCE and PPO: a learned critic provides the
baseline and bootstrapping (via GAE), but the policy update is a single
unclipped gradient step per rollout.  Shares the rollout/update/learn API
with :class:`repro.rl.PPO` — the one collector over any
:class:`repro.rl.vector.VecEnv` and its collection-time truncation
bootstrap — so the GraphRARE framework can swap agents via
``RareConfig.rl_algorithm``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..nn import Adam, clip_grad_norm
from .policy import NodePolicy
from .ppo import PPOStats
from .vector.base import VecEnv
from .vector.buffer import BatchedRolloutBuffer
from .vector.rollout import collect_vectorized_rollout, learn_loop


@dataclass
class A2CConfig:
    """Hyper-parameters of the A2C update."""

    lr: float = 3e-3
    gamma: float = 0.99
    gae_lambda: float = 0.95
    value_coef: float = 0.5
    entropy_coef: float = 0.01
    max_grad_norm: float = 0.5
    normalize_advantages: bool = True


class A2C:
    """Single-worker A2C with GAE advantages."""

    def __init__(
        self,
        policy: NodePolicy,
        config: Optional[A2CConfig] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        self.policy = policy
        self.config = config or A2CConfig()
        self.rng = rng or np.random.default_rng(0)
        self.optimizer = Adam(policy.parameters(), lr=self.config.lr)
        self.history: List[PPOStats] = []

    # ------------------------------------------------------------------
    def collect_rollout(
        self, env: VecEnv, num_steps: int
    ) -> BatchedRolloutBuffer:
        """Run the policy in ``env`` for ``num_steps`` batched steps, with
        the truncation bootstrap attached (see :meth:`PPO.collect_rollout`)."""
        return collect_vectorized_rollout(
            self.policy,
            env,
            num_steps,
            self.rng,
            gamma=self.config.gamma,
            gae_lambda=self.config.gae_lambda,
        )

    def update(self, buffer: BatchedRolloutBuffer) -> PPOStats:
        """One joint actor-critic gradient step per sample of the rollout."""
        cfg = self.config
        advantages, returns = buffer.compute_flat_advantages()
        if cfg.normalize_advantages and len(advantages) > 1:
            advantages = (advantages - advantages.mean()) / (advantages.std() + 1e-8)
        observations = buffer.flat_observations()
        actions = buffer.flat_actions()

        policy_losses, value_losses, entropies = [], [], []
        for idx in range(len(buffer)):
            log_prob, entropy, value = self.policy.evaluate_actions(
                observations[idx], actions[idx]
            )
            policy_loss = -log_prob * advantages[idx]
            value_err = value - returns[idx]
            value_loss = value_err * value_err
            loss = (
                policy_loss + cfg.value_coef * value_loss
                - cfg.entropy_coef * entropy
            )
            self.optimizer.zero_grad()
            loss.backward()
            clip_grad_norm(self.policy.parameters(), cfg.max_grad_norm)
            self.optimizer.step()
            policy_losses.append(policy_loss.item())
            value_losses.append(value_loss.item())
            entropies.append(entropy.item())

        stats = PPOStats(
            mean_reward=float(buffer.flat_rewards().mean()),
            policy_loss=float(np.mean(policy_losses)),
            value_loss=float(np.mean(value_losses)),
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
        """Alternate collection and updates (see :meth:`PPO.learn`)."""
        return learn_loop(self, env, total_steps, rollout_steps)
