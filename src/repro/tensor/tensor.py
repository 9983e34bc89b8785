"""Reverse-mode automatic differentiation over numpy arrays.

This module is the substrate that replaces PyTorch in the GraphRARE
reproduction.  A :class:`Tensor` wraps a ``numpy.ndarray`` and records the
operations applied to it; calling :meth:`Tensor.backward` propagates
gradients to every tensor created with ``requires_grad=True``.

The engine is intentionally small: only the operations needed by the GNN
backbones, the PPO implementation, and the entropy module are provided (see
``repro.tensor.ops``).  Gradient correctness is property-tested against
numerical differentiation in ``tests/tensor``.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from typing import Callable, Iterable, Iterator, Optional, Sequence, Union

import numpy as np

ArrayLike = Union[np.ndarray, float, int, Sequence]

#: Whether ops record the autograd graph in the current context (each
#: thread starts with recording on; :func:`no_grad` turns it off).
_GRAD_ENABLED: ContextVar[bool] = ContextVar("repro_grad_enabled", default=True)


@contextmanager
def no_grad() -> Iterator[None]:
    """Scope in which ops compute values but record no autograd graph.

    Results created inside never require grad, so eval-mode forwards
    (``evaluate``, ``predict_logits``, reward scoring) neither keep their
    intermediates alive nor pay for the bookkeeping.  The values are
    bitwise those of the same ops outside the scope.

    Examples
    --------
    >>> w = Tensor([2.0], requires_grad=True)
    >>> with no_grad():
    ...     y = w * 3.0
    >>> y.requires_grad
    False
    """
    token = _GRAD_ENABLED.set(False)
    try:
        yield
    finally:
        _GRAD_ENABLED.reset(token)


def is_grad_enabled() -> bool:
    """``False`` inside a :func:`no_grad` scope, else ``True``."""
    return _GRAD_ENABLED.get()


def _as_array(data: ArrayLike) -> np.ndarray:
    """Coerce ``data`` to a float64 numpy array (shared dtype of the engine)."""
    if isinstance(data, np.ndarray):
        if data.dtype != np.float64:
            return data.astype(np.float64)
        return data
    return np.asarray(data, dtype=np.float64)


def unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum ``grad`` down to ``shape``, undoing numpy broadcasting.

    Used by binary-op backward functions: if an operand of shape ``shape``
    was broadcast up to ``grad.shape`` during the forward pass, the gradient
    contributions along the broadcast axes must be summed.
    """
    if grad.shape == shape:
        return grad
    # Sum over leading axes added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were size-1 in the original shape.
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    # A reduction that already has the shape is returned as is: the engine
    # keeps an array that owns its data without copying it.
    return grad if grad.shape == shape else grad.reshape(shape)


class Tensor:
    """A node in the autodiff graph.

    Parameters
    ----------
    data:
        Array-like payload; stored as ``float64``.
    requires_grad:
        Whether gradients should be accumulated into :attr:`grad` during
        :meth:`backward`.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents")

    def __init__(self, data: ArrayLike, requires_grad: bool = False) -> None:
        self.data = _as_array(data)
        self.requires_grad = bool(requires_grad)
        self.grad: Optional[np.ndarray] = None
        self._backward: Optional[Callable[[np.ndarray], None]] = None
        self._parents: tuple = ()

    # ------------------------------------------------------------------
    # Introspection helpers
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple:
        """Shape of the underlying array."""
        return self.data.shape

    @property
    def ndim(self) -> int:
        """Number of array dimensions."""
        return self.data.ndim

    @property
    def size(self) -> int:
        """Total number of elements."""
        return self.data.size

    def numpy(self) -> np.ndarray:
        """Return the underlying array (no copy)."""
        return self.data

    def item(self) -> float:
        """The single element of a scalar tensor, as a python float."""
        return float(self.data)

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but cut from the graph."""
        return Tensor(self.data, requires_grad=False)

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{grad_flag})"

    def __len__(self) -> int:
        return len(self.data)

    # ------------------------------------------------------------------
    # Graph construction
    # ------------------------------------------------------------------
    @staticmethod
    def _make(
        data: np.ndarray,
        parents: Iterable["Tensor"],
        backward: Callable[[np.ndarray], None],
    ) -> "Tensor":
        """Create a result tensor wired into the graph.

        ``backward`` receives the upstream gradient and is responsible for
        calling :meth:`_accumulate` on each parent that requires grad.
        Inside :func:`no_grad` the result is a constant.
        """
        parents = tuple(parents)
        out = Tensor(
            data,
            requires_grad=_GRAD_ENABLED.get()
            and any(p.requires_grad for p in parents),
        )
        if out.requires_grad:
            out._parents = parents
            out._backward = backward
        return out

    def _accumulate(self, grad: np.ndarray, fresh: bool = False) -> None:
        """Add ``grad`` into this tensor's gradient buffer.

        The first contribution becomes the buffer without a copy when the
        caller vouches that nothing else holds it (``fresh``: not the
        upstream gradient, not handed to another input) and it owns its
        data, is writeable and has this tensor's dtype and shape.  Any
        other first contribution — a view, a read-only or broadcast
        array, a numpy scalar, an array shared between inputs — is
        copied, so later contributions can be added in place.
        """
        if not self.requires_grad:
            return
        if self.grad is not None:
            self.grad += grad
        elif (
            fresh
            and type(grad) is np.ndarray
            and grad.flags.owndata
            and grad.flags.writeable
            and grad.dtype == self.data.dtype
            and grad.shape == self.data.shape
        ):
            self.grad = grad
        else:
            self.grad = np.empty_like(self.data)
            np.copyto(self.grad, grad)

    def zero_grad(self) -> None:
        """Reset the accumulated gradient to ``None``."""
        self.grad = None

    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Backpropagate from this tensor.

        ``grad`` defaults to ones (scalar outputs may omit it, matching the
        usual ``loss.backward()`` idiom).
        """
        fresh = grad is None
        if fresh:
            grad = np.ones_like(self.data)
        else:
            grad = _as_array(grad)
            if grad.shape != self.data.shape:
                raise ValueError(
                    f"gradient shape {grad.shape} does not match tensor "
                    f"shape {self.data.shape}"
                )

        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited and parent.requires_grad:
                    stack.append((parent, False))

        self._accumulate(grad, fresh=fresh)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # ------------------------------------------------------------------
    # Arithmetic (delegates to repro.tensor.ops to avoid duplication)
    # ------------------------------------------------------------------
    def _coerce(self, other: ArrayLike) -> "Tensor":
        return other if isinstance(other, Tensor) else Tensor(other)

    def __add__(self, other):
        from . import ops

        return ops.add(self, self._coerce(other))

    __radd__ = __add__

    def __sub__(self, other):
        from . import ops

        return ops.sub(self, self._coerce(other))

    def __rsub__(self, other):
        from . import ops

        return ops.sub(self._coerce(other), self)

    def __mul__(self, other):
        from . import ops

        return ops.mul(self, self._coerce(other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        from . import ops

        return ops.div(self, self._coerce(other))

    def __rtruediv__(self, other):
        from . import ops

        return ops.div(self._coerce(other), self)

    def __neg__(self):
        from . import ops

        return ops.neg(self)

    def __pow__(self, exponent: float):
        from . import ops

        return ops.pow(self, exponent)

    def __matmul__(self, other):
        from . import ops

        return ops.matmul(self, self._coerce(other))

    # Convenience methods mirroring the functional API ------------------
    def sum(self, axis=None, keepdims: bool = False):
        """Alias for :func:`repro.tensor.ops.sum`."""
        from . import ops

        return ops.sum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims: bool = False):
        """Alias for :func:`repro.tensor.ops.mean`."""
        from . import ops

        return ops.mean(self, axis=axis, keepdims=keepdims)

    def reshape(self, *shape):
        """Alias for :func:`repro.tensor.ops.reshape` (shape may be splatted)."""
        from . import ops

        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return ops.reshape(self, shape)

    def transpose(self):
        """Alias for :func:`repro.tensor.ops.transpose` (2-D only)."""
        from . import ops

        return ops.transpose(self)

    @property
    def T(self):
        """Transposed view, like ``ndarray.T``."""
        return self.transpose()
