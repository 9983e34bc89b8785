"""Agent registry: swap the RL algorithm behind GraphRARE by name."""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from .a2c import A2C, A2CConfig
from .policy import NodePolicy
from .ppo import PPO, PPOConfig
from .reinforce import Reinforce, ReinforceConfig

Agent = Union[PPO, A2C, Reinforce]

AGENTS = {
    "ppo": (PPO, PPOConfig),
    "a2c": (A2C, A2CConfig),
    "reinforce": (Reinforce, ReinforceConfig),
}


def agent_names() -> list:
    """The registered algorithm names, sorted."""
    return sorted(AGENTS)


def build_agent(
    name: str,
    policy: NodePolicy,
    config=None,
    rng: Optional[np.random.Generator] = None,
) -> Agent:
    """Instantiate an RL agent by name.

    ``config`` may be an instance of the agent's own config class or None
    (defaults).  A PPOConfig passed to a non-PPO agent is translated field
    by field where names overlap, so :class:`repro.core.RareConfig` can
    carry one config object regardless of the selected algorithm.
    """
    try:
        cls, cfg_cls = AGENTS[name.lower()]
    except KeyError:
        raise ValueError(
            f"unknown RL algorithm {name!r}; choose from {agent_names()}"
        ) from None
    if config is not None and not isinstance(config, cfg_cls):
        shared = {
            field: getattr(config, field)
            for field in cfg_cls.__dataclass_fields__
            if hasattr(config, field)
        }
        config = cfg_cls(**shared)
    return cls(policy, config, rng=rng)
