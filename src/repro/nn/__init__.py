"""Minimal neural-network library built on ``repro.tensor``."""

from .early_stopping import EarlyStopping
from .layers import (
    ACTIVATIONS,
    MLP,
    Dropout,
    Linear,
    bind_dropout_rng,
    get_activation,
)
from .loss import (
    accuracy,
    cross_entropy,
    cross_entropy_label_smoothing,
    macro_auc,
    masked_metrics,
    mse_loss,
)
from .module import Module, Parameter
from .metrics import ClassificationReport, classification_report, confusion_matrix
from .optim import SGD, Adam, Optimizer, RMSprop, clip_grad_norm
from .scheduler import CosineAnnealingLR, LinearWarmupLR, LRScheduler, StepLR

__all__ = [
    "ACTIVATIONS",
    "Adam",
    "Dropout",
    "EarlyStopping",
    "Linear",
    "MLP",
    "Module",
    "Optimizer",
    "Parameter",
    "RMSprop",
    "SGD",
    "StepLR",
    "LRScheduler",
    "LinearWarmupLR",
    "CosineAnnealingLR",
    "ClassificationReport",
    "classification_report",
    "confusion_matrix",
    "cross_entropy_label_smoothing",
    "accuracy",
    "bind_dropout_rng",
    "clip_grad_norm",
    "cross_entropy",
    "get_activation",
    "macro_auc",
    "masked_metrics",
    "mse_loss",
]
