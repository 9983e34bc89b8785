"""Proximal Policy Optimization (Schulman et al., 2017) [35].

The clipped-surrogate variant with GAE, value-loss and entropy-bonus terms,
as implemented by Stable-Baselines3 [33], which the paper uses.  Works with
any :class:`repro.rl.env.Env` — and, through
:func:`repro.rl.vector.collect_vectorized_rollout`, with any
:class:`repro.rl.vector.VecEnv`: :meth:`PPO.learn` detects a batched env by
its ``num_envs`` attribute and collects ``B`` episodes per rollout in one
vectorized pass.  The GraphRARE topology environments live in
``repro.core`` (sequential) and ``repro.rl.vector`` (batched).

Truncation bootstrap: both collection paths record the value estimate of
the state *following* the final transition on the buffer itself
(:meth:`RolloutBuffer.set_bootstrap`), zeroed when that transition ended an
episode — a rollout cut mid-episode therefore bootstraps
``compute_advantages(last_value=...)`` from the value net rather than an
implicit 0.0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from ..nn import Adam, clip_grad_norm
from ..tensor import ops
from .buffer import RolloutBuffer
from .env import Env
from .policy import NodePolicy
from .vector.base import VecEnv
from .vector.buffer import BatchedRolloutBuffer
from .vector.rollout import collect_vectorized_rollout

AnyRolloutBuffer = Union[RolloutBuffer, BatchedRolloutBuffer]


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


def rollout_samples(
    buffer: AnyRolloutBuffer,
) -> Tuple[Sequence, Sequence, Sequence]:
    """``(observations, actions, old_log_probs)`` as flat per-sample
    sequences, for either buffer flavour.

    Batched buffers flatten time-major (``i = t * B + b``); with ``B = 1``
    the sample order is exactly the single-env time order, so the two
    collection paths feed the update loop identical streams.
    """
    if isinstance(buffer, BatchedRolloutBuffer):
        return (
            buffer.flat_observations(),
            buffer.flat_actions(),
            buffer.flat_log_probs(),
        )
    return buffer.observations, buffer.actions, buffer.log_probs


def rollout_advantages(
    buffer: AnyRolloutBuffer,
) -> Tuple[np.ndarray, np.ndarray]:
    """Flat GAE ``(advantages, returns)`` with the truncation bootstrap.

    Collector-built buffers carry their bootstrap (recorded by
    ``set_bootstrap`` at collection time); a hand-built buffer without one
    gets the single-env default of 0.0.
    """
    if isinstance(buffer, BatchedRolloutBuffer):
        return buffer.compute_flat_advantages()
    last_value = buffer.last_value if buffer.last_value is not None else 0.0
    return buffer.compute_advantages(last_value)


def learn_loop(agent, env, total_steps: int, rollout_steps: int):
    """The shared collect/update driver behind ``PPO.learn``/``A2C.learn``.

    Dispatches on the env flavour: a plain :class:`Env` collects
    ``rollout_steps`` sequential transitions per iteration, a
    :class:`~repro.rl.vector.VecEnv` (detected by ``num_envs``) collects
    ``rollout_steps * B`` in one batched pass (the final iteration shrinks
    its step count so the batch never overshoots ``total_steps`` by more
    than ``B - 1`` transitions).
    """
    num_envs = getattr(env, "num_envs", None)
    collected = 0
    while collected < total_steps:
        if num_envs is None:
            steps = min(rollout_steps, total_steps - collected)
            buffer = agent.collect_rollout(env, steps)
        else:
            remaining = total_steps - collected
            steps = min(rollout_steps, -(-remaining // num_envs))
            buffer = agent.collect_vectorized_rollout(env, steps)
        agent.update(buffer)
        collected += len(buffer)
    return agent.history


def mean_buffer_reward(buffer: AnyRolloutBuffer) -> float:
    """Mean per-transition reward over everything stored."""
    if isinstance(buffer, BatchedRolloutBuffer):
        return float(buffer.flat_rewards().mean())
    return float(np.mean(buffer.rewards))


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
        self._last_obs: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    def collect_rollout(self, env: Env, num_steps: int) -> RolloutBuffer:
        """Run the policy in ``env`` for ``num_steps`` transitions."""
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
        # Truncation bootstrap, recorded at collection time: zero when the
        # rollout ended exactly at an episode boundary, otherwise the value
        # net's estimate of the next (unfinished) state.
        buffer.set_bootstrap(
            obs, 0.0 if done else self.policy.value(obs).item()
        )
        return buffer

    def collect_vectorized_rollout(
        self, venv: VecEnv, num_steps: int
    ) -> BatchedRolloutBuffer:
        """Run the policy in a batched env for ``num_steps`` vector steps
        (``num_steps * B`` transitions)."""
        return collect_vectorized_rollout(
            self.policy,
            venv,
            num_steps,
            self.rng,
            gamma=self.config.gamma,
            gae_lambda=self.config.gae_lambda,
        )

    # ------------------------------------------------------------------
    def update(self, buffer: AnyRolloutBuffer) -> PPOStats:
        """One PPO learning phase over the collected rollout (either
        flavour)."""
        cfg = self.config
        advantages, returns = rollout_advantages(buffer)
        if cfg.normalize_advantages and len(advantages) > 1:
            advantages = (advantages - advantages.mean()) / (advantages.std() + 1e-8)
        observations, actions, old_log_probs = rollout_samples(buffer)

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
            mean_reward=mean_buffer_reward(buffer),
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
        env: Union[Env, VecEnv],
        total_steps: int,
        rollout_steps: int = 16,
    ) -> List[PPOStats]:
        """Alternate rollout collection and updates until ``total_steps``.

        ``env`` may be a plain :class:`Env` or a batched
        :class:`~repro.rl.vector.VecEnv` (detected by ``num_envs``); a
        batched env collects ``rollout_steps * B`` transitions per
        iteration.
        """
        return learn_loop(self, env, total_steps, rollout_steps)
