"""Autograd substrate for the GraphRARE reproduction (replaces PyTorch).

Two layers (see ``docs/architecture.md``):

* :class:`Function` — the public custom-op API every op registers
  through (see ``docs/custom-ops.md``); under an enabled telemetry
  session it times every op's forward and backward;
* :mod:`repro.tensor.ops` — the op surface, thin wrappers over private
  ``Function`` subclasses that compute with plain numpy/scipy.

:mod:`repro.tensor.sparse` holds the wide-sparse rule: which dense
feature matrices the GNN input and the entropy Gram blocks keep as CSR.
"""

from . import ops
from .function import Function
from .grad_check import gradcheck, numerical_gradient
from .tensor import Tensor, is_grad_enabled, no_grad, unbroadcast

__all__ = [
    "Function",
    "Tensor",
    "gradcheck",
    "is_grad_enabled",
    "no_grad",
    "numerical_gradient",
    "ops",
    "unbroadcast",
]
