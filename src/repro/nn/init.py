"""Weight initialisation schemes (Glorot/Xavier and He/Kaiming)."""

from __future__ import annotations

import numpy as np


def glorot_uniform(fan_in: int, fan_out: int, rng: np.random.Generator) -> np.ndarray:
    """Xavier/Glorot uniform initialisation, the PyG default for GNN layers."""
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


def he_uniform(fan_in: int, fan_out: int, rng: np.random.Generator) -> np.ndarray:
    """He/Kaiming uniform initialisation for ReLU networks."""
    limit = np.sqrt(6.0 / fan_in)
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


def zeros(*shape: int) -> np.ndarray:
    """A float64 array of zeros with the given shape (bias initialisation)."""
    return np.zeros(shape)
