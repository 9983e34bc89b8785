"""The multi-discrete action space of the topology MDP (replaces OpenAI
Gym [2]'s spaces).

``A = [a^k_1..a^k_N, a^d_1..a^d_N]`` with three choices per component
(Sec. IV-B).  The step/reset contract is :class:`repro.rl.vector.VecEnv`.
"""

from __future__ import annotations

import numpy as np


class MultiDiscreteSpace:
    """A vector of independent discrete components.

    ``nvec[i]`` is the number of choices for component ``i``.  Observations
    of the GraphRARE topology MDP are per-node feature rows; actions are
    integer vectors with one entry per component.
    """

    def __init__(self, nvec) -> None:
        self.nvec = np.asarray(nvec, dtype=np.int64)
        if self.nvec.ndim != 1 or (self.nvec < 1).any():
            raise ValueError("nvec must be a 1-D vector of positive ints")

    @property
    def num_components(self) -> int:
        """Number of independent discrete components."""
        return len(self.nvec)

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        """A uniformly random action."""
        return rng.integers(0, self.nvec)

    def contains(self, action) -> bool:
        """Whether ``action`` is an integer vector inside the space."""
        action = np.asarray(action)
        return (
            action.shape == self.nvec.shape
            and np.issubdtype(action.dtype, np.integer)
            and (action >= 0).all()
            and (action < self.nvec).all()
        )

    def __repr__(self) -> str:
        uniq = np.unique(self.nvec)
        if len(uniq) == 1:
            return f"MultiDiscrete({len(self.nvec)} x {uniq[0]})"
        return f"MultiDiscrete({self.nvec.tolist()})"

