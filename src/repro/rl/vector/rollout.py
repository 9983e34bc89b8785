"""Rollout collection and the collect/update driver shared by every agent.

:func:`collect_vectorized_rollout` is the one collector PPO, A2C and
REINFORCE delegate to: it drives a :class:`~repro.rl.vector.base.VecEnv`
for ``T`` steps with :meth:`NodePolicy.act_batch` (a single trunk pass over
all ``B * N`` node rows), records into a :class:`BatchedRolloutBuffer`, and
finishes with the truncation bootstrap — value estimates of the
observations following the final transition, zeroed for episodes that
ended exactly there.  A single environment is the ``B = 1`` case.
:func:`learn_loop` alternates collection and updates until a transition
budget is spent.
"""

from __future__ import annotations

import numpy as np

from .base import VecEnv
from .buffer import BatchedRolloutBuffer


def collect_vectorized_rollout(
    policy,
    venv: VecEnv,
    num_steps: int,
    rng: np.random.Generator,
    gamma: float = 0.99,
    gae_lambda: float = 0.95,
) -> BatchedRolloutBuffer:
    """Run ``policy`` in ``venv`` for ``num_steps`` batched transitions.

    Returns a full :class:`BatchedRolloutBuffer` (``num_steps * B``
    transitions) with the bootstrap already attached.
    """
    if num_steps < 1:
        raise ValueError(f"num_steps must be >= 1, got {num_steps}")
    obs = venv.reset()
    buffer = BatchedRolloutBuffer(
        num_steps,
        venv.num_envs,
        obs_shape=obs.shape[1:],
        action_dim=venv.action_space.num_components,
        gamma=gamma,
        gae_lambda=gae_lambda,
    )
    for _ in range(num_steps):
        actions, log_probs, values = policy.act_batch(obs, rng)
        next_obs, rewards, dones, _ = venv.step(actions)
        buffer.add(obs, actions, rewards, values, log_probs, dones)
        obs = next_obs
    # Truncation bootstrap (value of the state after the final transition);
    # zero where that transition ended an episode — ``obs`` is then already
    # the next episode's start and must not leak into this one's return.
    final_dones = buffer.dones[buffer.pos - 1]
    if final_dones.all():
        last_values = np.zeros(venv.num_envs)
    else:
        last_values = np.where(final_dones, 0.0, policy.value_batch(obs))
    buffer.set_bootstrap(obs, last_values)
    return buffer


def learn_loop(agent, env: VecEnv, total_steps: int, rollout_steps: int):
    """The collect/update driver behind every agent's ``learn``.

    Each iteration collects ``rollout_steps * B`` transitions through
    ``agent.collect_rollout`` and hands them to ``agent.update``; the final
    iteration shrinks its step count so the batch never overshoots
    ``total_steps`` by more than ``B - 1`` transitions.  Returns
    ``agent.history``.
    """
    num_envs = env.num_envs
    collected = 0
    while collected < total_steps:
        steps = min(rollout_steps, -(-(total_steps - collected) // num_envs))
        agent.update(agent.collect_rollout(env, steps))
        collected += steps * num_envs
    return agent.history
