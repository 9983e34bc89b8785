"""Dense layers and elementwise modules (Linear, MLP, activations, Dropout)."""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np
import scipy.sparse as sp

from ..tensor import Tensor, ops
from . import init
from .module import Module, Parameter

ACTIVATIONS: dict[str, Callable[[Tensor], Tensor]] = {
    "relu": ops.relu,
    "tanh": ops.tanh,
    "sigmoid": ops.sigmoid,
    "elu": ops.elu,
    "leaky_relu": ops.leaky_relu,
    "identity": lambda x: x,
}


def get_activation(name: str) -> Callable[[Tensor], Tensor]:
    """Look up an activation function by name."""
    try:
        return ACTIVATIONS[name]
    except KeyError:
        raise ValueError(
            f"unknown activation {name!r}; choose from {sorted(ACTIVATIONS)}"
        ) from None


class Linear(Module):
    """Affine map ``y = x W + b`` with Glorot-initialised weights.

    A dense ``x`` with a bias runs as one :func:`repro.tensor.ops.affine`.
    ``x`` may also be a constant scipy sparse matrix (the CSR feature
    operand of :func:`repro.gnn.features_tensor`): ``x W`` then runs
    through :func:`repro.tensor.ops.spmm`, whose backward is ``xᵀ G``
    for the weight alone, and the bias is added after it.
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        rng: np.random.Generator,
        bias: bool = True,
    ) -> None:
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(init.glorot_uniform(in_features, out_features, rng))
        self.bias = Parameter(init.zeros(out_features)) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        if sp.issparse(x):
            out = ops.spmm(x, self.weight)
            return out if self.bias is None else out + self.bias
        if self.bias is None:
            return ops.matmul(x, self.weight)
        return ops.affine(x, self.weight, self.bias)

    def __repr__(self) -> str:
        return f"Linear({self.in_features}, {self.out_features})"


class Dropout(Module):
    """Inverted dropout module; a no-op in eval mode."""

    def __init__(self, p: float, rng: np.random.Generator) -> None:
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError(f"dropout probability must be in [0, 1), got {p}")
        self.p = p
        self._rng = rng

    def forward(self, x: Tensor) -> Tensor:
        return ops.dropout(x, self.p, self._rng, training=self.training)

    def __repr__(self) -> str:
        return f"Dropout(p={self.p})"


def bind_dropout_rng(module: Module, rng: np.random.Generator) -> None:
    """Draw the masks of every :class:`Dropout` in ``module`` from ``rng``.

    A model handed from one run to the next (a warm start) otherwise keeps
    drawing from the generator it was built with, so its masks would
    depend on everything else that generator served in the earlier run.
    """
    for m in module.modules():
        if isinstance(m, Dropout):
            m._rng = rng


class MLP(Module):
    """Multi-layer perceptron with configurable hidden sizes.

    Used both as a classifier baseline and as the embedding function
    ``phi(.)`` in the node feature entropy (Eq. 3) as well as the PPO
    policy/value trunks.
    """

    def __init__(
        self,
        in_features: int,
        hidden: Sequence[int],
        out_features: int,
        rng: np.random.Generator,
        activation: str = "relu",
        dropout: float = 0.0,
    ) -> None:
        super().__init__()
        sizes = [in_features, *hidden, out_features]
        self.layers = [
            Linear(a, b, rng) for a, b in zip(sizes[:-1], sizes[1:])
        ]
        self.activation = activation
        self._act = get_activation(activation)
        self.dropout: Optional[Dropout] = Dropout(dropout, rng) if dropout > 0 else None

    def forward(self, x: Tensor) -> Tensor:
        for i, layer in enumerate(self.layers):
            x = layer(x)
            if i < len(self.layers) - 1:
                x = self._act(x)
                if self.dropout is not None:
                    x = self.dropout(x)
        return x

    def __repr__(self) -> str:
        shape = " -> ".join(
            [str(self.layers[0].in_features)] + [str(l.out_features) for l in self.layers]
        )
        return f"MLP({shape}, activation={self.activation})"
