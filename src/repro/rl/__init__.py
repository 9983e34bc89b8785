"""Deep RL substrate: PPO/A2C/REINFORCE with multi-discrete actions
(replaces OpenAI Gym + Stable-Baselines3).

Every agent collects through one path, as Stable-Baselines3 runs a single
env as a width-1 ``DummyVecEnv``: a :class:`VecEnv` steps ``B`` episodes
at once (``B = 1`` is the sequential case), :func:`collect_vectorized_rollout`
fills a preallocated :class:`BatchedRolloutBuffer` with one policy
forward per step, and each agent's ``update`` consumes that buffer.
"""

from .a2c import A2C, A2CConfig
from .distributions import Categorical, MultiDiscreteDistribution
from .env import MultiDiscreteSpace
from .policy import NodePolicy
from .ppo import PPO, PPOConfig, PPOStats
from .registry import AGENTS, agent_names, build_agent
from .reinforce import Reinforce, ReinforceConfig
from .vector import BatchedRolloutBuffer, VecEnv, collect_vectorized_rollout

__all__ = [
    "A2C",
    "A2CConfig",
    "AGENTS",
    "BatchedRolloutBuffer",
    "Categorical",
    "MultiDiscreteDistribution",
    "MultiDiscreteSpace",
    "NodePolicy",
    "PPO",
    "PPOConfig",
    "PPOStats",
    "Reinforce",
    "ReinforceConfig",
    "VecEnv",
    "agent_names",
    "build_agent",
    "collect_vectorized_rollout",
]
