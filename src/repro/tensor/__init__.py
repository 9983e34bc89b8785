"""Autograd substrate for the GraphRARE reproduction (replaces PyTorch).

Three layers (see ``docs/architecture.md``):

* :mod:`repro.tensor.backends` — pluggable kernel backends (numpy
  reference, optional numba acceleration) selected per run;
* :class:`Function` — the public custom-op API every op registers
  through (see ``docs/custom-ops.md``);
* :mod:`repro.tensor.ops` — the op surface, thin wrappers over private
  ``Function`` subclasses.

:mod:`repro.tensor.sparse` holds the wide-sparse rule: which dense
feature matrices the GNN input and the entropy Gram blocks keep as CSR.
"""

from . import backends, ops
from .backends import active_backend, resolve_backend, use_backend
from .function import Function
from .grad_check import gradcheck, numerical_gradient
from .tensor import Tensor, is_grad_enabled, no_grad, unbroadcast

__all__ = [
    "Function",
    "Tensor",
    "active_backend",
    "backends",
    "gradcheck",
    "is_grad_enabled",
    "no_grad",
    "numerical_gradient",
    "ops",
    "resolve_backend",
    "unbroadcast",
    "use_backend",
]
