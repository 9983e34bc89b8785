"""Rollout subsystem: the env contract, batched storage and collection.

Public surface:

* :class:`VecEnv` — the batched step/reset/autoreset contract every
  environment implements (:class:`repro.core.TopologyEnv` is the
  GraphRARE MDP; a single env is ``num_envs = 1``).
* :class:`BatchedRolloutBuffer` — preallocated ``(T, B, ...)`` storage
  with vectorized GAE over the batch axis.
* :func:`collect_vectorized_rollout` — the one collection loop every
  agent uses, and :func:`learn_loop`, the collect/update driver.
* :class:`StackedGraphBuilder` — block-diagonal stacking of derived
  graphs, the batched reward forward of the env and of ``repro serve``.
"""

from .base import VecEnv
from .buffer import BatchedRolloutBuffer
from .rollout import collect_vectorized_rollout, learn_loop
from .stacked import StackedGraphBuilder

__all__ = [
    "BatchedRolloutBuffer",
    "StackedGraphBuilder",
    "VecEnv",
    "collect_vectorized_rollout",
    "learn_loop",
]
