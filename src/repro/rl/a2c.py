"""Advantage Actor-Critic (A2C), synchronous single-worker variant.

A middle ground between REINFORCE and PPO: a learned critic provides the
baseline and bootstrapping (via GAE), but the policy update is a single
unclipped gradient step per rollout.  Shares the rollout/update/learn API
with :class:`repro.rl.PPO` — including the vectorized collection path over
:class:`repro.rl.vector.VecEnv` batches and the collection-time truncation
bootstrap — so the GraphRARE framework can swap agents via
``RareConfig.rl_algorithm``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Union

import numpy as np

from ..nn import Adam, clip_grad_norm
from .buffer import RolloutBuffer
from .env import Env
from .policy import NodePolicy
from .ppo import (
    AnyRolloutBuffer,
    PPOStats,
    learn_loop,
    mean_buffer_reward,
    rollout_advantages,
    rollout_samples,
)
from .vector.base import VecEnv
from .vector.buffer import BatchedRolloutBuffer
from .vector.rollout import collect_vectorized_rollout


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
        self._last_obs = None

    # ------------------------------------------------------------------
    def collect_rollout(self, env: Env, num_steps: int) -> RolloutBuffer:
        """Run the policy in ``env`` for ``num_steps`` transitions, with
        the truncation bootstrap attached (see :meth:`PPO.collect_rollout`)."""
        buffer = RolloutBuffer(
            gamma=self.config.gamma, gae_lambda=self.config.gae_lambda
        )
        obs = env.reset()
        done = False
        for _ in range(num_steps):
            action, log_prob, value = self.policy.act(obs, self.rng)
            next_obs, reward, done, _ = env.step(action)
            buffer.add(obs, action, reward, value, log_prob, done)
            obs = env.reset() if done else next_obs
        self._last_obs = obs
        buffer.set_bootstrap(
            obs, 0.0 if done else self.policy.value(obs).item()
        )
        return buffer

    def collect_vectorized_rollout(
        self, venv: VecEnv, num_steps: int
    ) -> BatchedRolloutBuffer:
        """Batched collection: ``num_steps * B`` transitions in one pass."""
        return collect_vectorized_rollout(
            self.policy,
            venv,
            num_steps,
            self.rng,
            gamma=self.config.gamma,
            gae_lambda=self.config.gae_lambda,
        )

    def update(self, buffer: AnyRolloutBuffer) -> PPOStats:
        """One joint actor-critic gradient step over the rollout."""
        cfg = self.config
        advantages, returns = rollout_advantages(buffer)
        if cfg.normalize_advantages and len(advantages) > 1:
            advantages = (advantages - advantages.mean()) / (advantages.std() + 1e-8)
        observations, actions, _ = rollout_samples(buffer)

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
            mean_reward=mean_buffer_reward(buffer),
            policy_loss=float(np.mean(policy_losses)),
            value_loss=float(np.mean(value_losses)),
            entropy=float(np.mean(entropies)),
            num_steps=len(buffer),
        )
        self.history.append(stats)
        return stats

    def learn(
        self,
        env: Union[Env, VecEnv],
        total_steps: int,
        rollout_steps: int = 16,
    ):
        """Alternate collection and updates; accepts plain or batched envs
        (see :meth:`PPO.learn`)."""
        return learn_loop(self, env, total_steps, rollout_steps)
