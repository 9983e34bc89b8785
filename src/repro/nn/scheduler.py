"""Learning-rate schedulers for the optimizers in :mod:`repro.nn.optim`."""

from __future__ import annotations

import numpy as np

from .optim import Optimizer


class LRScheduler:
    """Base scheduler: call :meth:`step` once per epoch."""

    def __init__(self, optimizer: Optimizer) -> None:
        self.optimizer = optimizer
        self.base_lr = optimizer.lr
        self.epoch = 0

    def get_lr(self) -> float:
        """The learning rate for the current :attr:`epoch`."""
        raise NotImplementedError

    def step(self) -> float:
        """Advance one epoch and apply the new learning rate."""
        self.epoch += 1
        lr = self.get_lr()
        self.optimizer.lr = lr
        return lr


class StepLR(LRScheduler):
    """Multiply the learning rate by ``gamma`` every ``step_size`` epochs."""

    def __init__(self, optimizer: Optimizer, step_size: int, gamma: float = 0.5):
        super().__init__(optimizer)
        if step_size < 1:
            raise ValueError(f"step_size must be >= 1, got {step_size}")
        self.step_size = step_size
        self.gamma = gamma

    def get_lr(self) -> float:
        """``base_lr * gamma ** (epoch // step_size)``."""
        return self.base_lr * self.gamma ** (self.epoch // self.step_size)


class CosineAnnealingLR(LRScheduler):
    """Cosine decay from the base learning rate to ``min_lr``."""

    def __init__(self, optimizer: Optimizer, total_epochs: int, min_lr: float = 0.0):
        super().__init__(optimizer)
        if total_epochs < 1:
            raise ValueError(f"total_epochs must be >= 1, got {total_epochs}")
        self.total_epochs = total_epochs
        self.min_lr = min_lr

    def get_lr(self) -> float:
        """The cosine-annealed rate between the base rate and ``min_lr``."""
        progress = min(self.epoch, self.total_epochs) / self.total_epochs
        return self.min_lr + 0.5 * (self.base_lr - self.min_lr) * (
            1.0 + np.cos(np.pi * progress)
        )


class LinearWarmupLR(LRScheduler):
    """Linear ramp from 0 to the base rate over ``warmup_epochs`` epochs."""

    def __init__(self, optimizer: Optimizer, warmup_epochs: int):
        super().__init__(optimizer)
        if warmup_epochs < 1:
            raise ValueError(f"warmup_epochs must be >= 1, got {warmup_epochs}")
        self.warmup_epochs = warmup_epochs

    def get_lr(self) -> float:
        """``base_lr * min(1, epoch / warmup_epochs)``."""
        return self.base_lr * min(1.0, self.epoch / self.warmup_epochs)
