"""Proximal Policy Optimization (Schulman et al., 2017) [35].

The clipped-surrogate variant with GAE, value-loss and entropy-bonus terms,
as implemented by Stable-Baselines3 [33], which the paper uses.  Works with
any :class:`repro.rl.vector.VecEnv` — a single environment is the
``B = 1`` case — through the one collector
:func:`repro.rl.vector.collect_vectorized_rollout`.  The GraphRARE topology
environment is :class:`repro.core.TopologyEnv`.

Truncation bootstrap: the collector records the value estimate of the
state *following* the final transition on the buffer itself
(:meth:`BatchedRolloutBuffer.set_bootstrap`), zeroed when that transition
ended an episode — a rollout cut mid-episode therefore bootstraps its GAE
from the value net rather than an implicit 0.0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..nn import Adam, clip_grad_norm
from ..tensor import ops
from .policy import NodePolicy
from .vector.base import VecEnv
from .vector.buffer import BatchedRolloutBuffer
from .vector.rollout import collect_vectorized_rollout, learn_loop


@dataclass
class PPOConfig:
    """Hyper-parameters of the PPO update."""

    lr: float = 3e-3
    gamma: float = 0.99
    gae_lambda: float = 0.95
    clip_range: float = 0.2
    value_coef: float = 0.5
    entropy_coef: float = 0.01
    update_epochs: int = 4
    max_grad_norm: float = 0.5
    normalize_advantages: bool = True


@dataclass
class PPOStats:
    """Diagnostics from one learning iteration."""

    mean_reward: float
    policy_loss: float
    value_loss: float
    entropy: float
    num_steps: int


class PPO:
    """PPO driver: collect a rollout from an env, then update the policy."""

    def __init__(
        self,
        policy: NodePolicy,
        config: Optional[PPOConfig] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        self.policy = policy
        self.config = config or PPOConfig()
        self.rng = rng or np.random.default_rng(0)
        self.optimizer = Adam(policy.parameters(), lr=self.config.lr)
        self.history: List[PPOStats] = []

    # ------------------------------------------------------------------
    def collect_rollout(
        self, env: VecEnv, num_steps: int
    ) -> BatchedRolloutBuffer:
        """Run the policy in ``env`` for ``num_steps`` batched steps
        (``num_steps * B`` transitions), bootstrap attached."""
        return collect_vectorized_rollout(
            self.policy,
            env,
            num_steps,
            self.rng,
            gamma=self.config.gamma,
            gae_lambda=self.config.gae_lambda,
        )

    # ------------------------------------------------------------------
    def update(self, buffer: BatchedRolloutBuffer) -> PPOStats:
        """One PPO learning phase over the collected rollout, sample by
        sample in time-major order."""
        cfg = self.config
        advantages, returns = buffer.compute_flat_advantages()
        if cfg.normalize_advantages and len(advantages) > 1:
            advantages = (advantages - advantages.mean()) / (advantages.std() + 1e-8)
        observations = buffer.flat_observations()
        actions = buffer.flat_actions()
        old_log_probs = buffer.flat_log_probs()

        policy_losses, value_losses, entropies = [], [], []
        for _ in range(cfg.update_epochs):
            order = self.rng.permutation(len(buffer))
            for idx in order:
                obs = observations[idx]
                action = actions[idx]
                old_log_prob = old_log_probs[idx]
                adv = advantages[idx]
                ret = returns[idx]

                log_prob, entropy, value = self.policy.evaluate_actions(obs, action)
                ratio = ops.exp(log_prob - old_log_prob)
                surr1 = ratio * adv
                surr2 = ops.clamp(ratio, 1.0 - cfg.clip_range, 1.0 + cfg.clip_range) * adv
                policy_loss = -ops.minimum(surr1, surr2)
                value_err = value - ret
                value_loss = value_err * value_err
                loss = (
                    policy_loss
                    + cfg.value_coef * value_loss
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

    # ------------------------------------------------------------------
    def learn(
        self,
        env: VecEnv,
        total_steps: int,
        rollout_steps: int = 16,
    ) -> List[PPOStats]:
        """Alternate rollout collection and updates until ``total_steps``
        transitions (``rollout_steps * B`` per iteration; see
        :func:`~repro.rl.vector.learn_loop`)."""
        return learn_loop(self, env, total_steps, rollout_steps)
