"""Probability distributions for the PPO policy.

The GraphRARE action space is multi-discrete: one ternary choice
(decrement / keep / increment) per node for ``k`` and for ``d``.  The joint
distribution factorises over components, so log-probabilities and entropies
are sums of per-component categorical terms, each one fused op
(:func:`repro.tensor.ops.categorical_log_prob` /
:func:`~repro.tensor.ops.categorical_entropy`).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..tensor import Tensor, ops


class Categorical:
    """A batch of categorical distributions parameterised by logits.

    ``logits`` has shape ``(batch, num_choices)``; every method stays inside
    the autograd graph so PPO losses can backpropagate through it.
    """

    def __init__(self, logits: Tensor) -> None:
        if logits.ndim != 2:
            raise ValueError(f"logits must be 2-D, got shape {logits.shape}")
        self.logits = logits
        self._log_probs: Optional[Tensor] = None

    @property
    def log_probs(self) -> Tensor:
        """Per-row log-softmax of the logits (differentiable), built on
        first use."""
        if self._log_probs is None:
            self._log_probs = ops.log_softmax(self.logits, axis=-1)
        return self._log_probs

    @property
    def probs(self) -> np.ndarray:
        """Per-row choice probabilities (a plain array)."""
        return np.exp(self.log_probs.data)

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        """Draw one choice per row (outside the autograd graph)."""
        p = self.probs
        cdf = p.cumsum(axis=-1)
        u = rng.random((p.shape[0], 1))
        return (u > cdf).sum(axis=-1).astype(np.int64)

    def log_prob(self, actions: np.ndarray) -> Tensor:
        """Per-row log-probability of ``actions`` (differentiable)."""
        return ops.categorical_log_prob(self.logits, actions)

    def entropy(self) -> Tensor:
        """Per-row entropy (differentiable)."""
        return ops.categorical_entropy(self.logits)


class MultiDiscreteDistribution:
    """Independent categoricals sharing one logits tensor.

    ``logits`` has shape ``(num_components, num_choices)``; the joint
    log-probability of an action vector is the sum over components, and the
    joint entropy is likewise additive.
    """

    def __init__(self, logits: Tensor) -> None:
        self._cat = Categorical(logits)

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        """Draw one choice per component (outside the autograd graph)."""
        return self._cat.sample(rng)

    def log_prob(self, actions: np.ndarray) -> Tensor:
        """Joint log-probability (scalar tensor)."""
        return ops.sum(self._cat.log_prob(actions))

    def entropy(self) -> Tensor:
        """Joint entropy (scalar tensor)."""
        return ops.sum(self._cat.entropy())

    @property
    def probs(self) -> np.ndarray:
        """Per-component choice probabilities (a plain array)."""
        return self._cat.probs
