"""Optimizers (SGD with momentum, Adam with decoupled weight decay) and
global-norm gradient clipping."""

from __future__ import annotations

from typing import Iterable, List, Sequence

import numpy as np

from .module import Parameter


def clip_grad_norm(params: Iterable[Parameter], max_norm: float) -> None:
    """Scale gradients in place so their global L2 norm is ``<= max_norm``.

    The SB3 clip the RL agents apply after every backward: the squared
    norms of the parameters that have a gradient are summed in order, and
    if the norm exceeds ``max_norm`` every gradient is multiplied by
    ``max_norm / (norm + 1e-12)``.  ``max_norm <= 0`` disables clipping.
    """
    if max_norm <= 0:
        return
    grads = [p.grad for p in params if p.grad is not None]
    total = 0.0
    for grad in grads:
        total += float((grad**2).sum())
    norm = np.sqrt(total)
    if norm > max_norm:
        scale = max_norm / (norm + 1e-12)
        for grad in grads:
            grad *= scale


class Optimizer:
    """Base optimizer over a fixed parameter list."""

    def __init__(self, params: Sequence[Parameter], lr: float) -> None:
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.params: List[Parameter] = list(params)
        if not self.params:
            raise ValueError("optimizer received an empty parameter list")
        self.lr = lr

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()

    def step(self) -> None:
        raise NotImplementedError


class SGD(Optimizer):
    """Stochastic gradient descent with optional momentum."""

    def __init__(
        self, params: Sequence[Parameter], lr: float, momentum: float = 0.0
    ) -> None:
        super().__init__(params, lr)
        self.momentum = momentum
        self._velocity = [np.zeros_like(p.data) for p in self.params]

    def step(self) -> None:
        for p, v in zip(self.params, self._velocity):
            if p.grad is None:
                continue
            if self.momentum > 0:
                v *= self.momentum
                v += p.grad
                p.data -= self.lr * v
            else:
                p.data -= self.lr * p.grad


class Adam(Optimizer):
    """Adam with (decoupled) weight decay, matching the paper's optimiser.

    The paper trains all GNNs with Adam, learning rate 0.05 and weight decay
    in {5e-5, 5e-6}.
    """

    def __init__(
        self,
        params: Sequence[Parameter],
        lr: float = 1e-3,
        betas: tuple = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(params, lr)
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]
        self._t = 0

    def step(self) -> None:
        self._t += 1
        bc1 = 1.0 - self.beta1**self._t
        bc2 = 1.0 - self.beta2**self._t
        for p, m, v in zip(self.params, self._m, self._v):
            if p.grad is None:
                continue
            grad = p.grad
            m *= self.beta1
            m += (1.0 - self.beta1) * grad
            v *= self.beta2
            v += (1.0 - self.beta2) * grad**2
            m_hat = m / bc1
            v_hat = v / bc2
            update = m_hat / (np.sqrt(v_hat) + self.eps)
            if self.weight_decay > 0:
                update = update + self.weight_decay * p.data
            p.data -= self.lr * update


class RMSprop(Optimizer):
    """RMSprop: adaptive per-parameter learning rates without momentum bias."""

    def __init__(
        self,
        params: Sequence[Parameter],
        lr: float = 1e-3,
        alpha: float = 0.99,
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(params, lr)
        self.alpha = alpha
        self.eps = eps
        self.weight_decay = weight_decay
        self._sq = [np.zeros_like(p.data) for p in self.params]

    def step(self) -> None:
        for p, sq in zip(self.params, self._sq):
            if p.grad is None:
                continue
            grad = p.grad
            sq *= self.alpha
            sq += (1.0 - self.alpha) * grad**2
            update = grad / (np.sqrt(sq) + self.eps)
            if self.weight_decay > 0:
                update = update + self.weight_decay * p.data
            p.data -= self.lr * update
