"""The environment contract.

A :class:`VecEnv` steps ``B`` independent episodes of the same MDP at once
(``B = 1`` is a single environment):
observations are stacked along a leading batch axis, rewards/dones are
``(B,)`` arrays, and ``info`` is a list of ``B`` per-episode dicts.

Autoreset semantics (gym ``VectorEnv``-style): when episode ``b`` ends,
``step`` returns ``done[b] = True``, stores the final observation under
``info[b]["terminal_observation"]`` and an ``info[b]["episode"]`` summary
(``{"r": return, "l": length}``), and the returned ``obs[b]`` is already the
first observation of the *next* episode, so the collector never calls
``reset`` mid-rollout.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

import numpy as np

from ..env import MultiDiscreteSpace


class VecEnv:
    """Abstract batched step/reset contract.

    Attributes
    ----------
    num_envs:
        ``B``, the number of episodes stepped in parallel.
    action_space:
        The *per-episode* action space; ``step`` takes a ``(B, A)`` array
        with one row per episode.
    """

    num_envs: int
    action_space: MultiDiscreteSpace

    def reset(self, seed: int | None = None) -> np.ndarray:
        """Start fresh episodes in every slot; returns ``(B, *obs_shape)``."""
        raise NotImplementedError

    def step(
        self, actions: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, List[Dict[str, Any]]]:
        """Advance every episode one transition.

        Returns ``(obs, rewards, dones, infos)`` with shapes
        ``(B, *obs_shape)``, ``(B,)``, ``(B,)`` and a length-``B`` list.
        Finished episodes are automatically reset (see module docstring).
        """
        raise NotImplementedError

    def sample_actions(self) -> np.ndarray:
        """One uniformly random action per episode, ``(B, A)``."""
        raise NotImplementedError
