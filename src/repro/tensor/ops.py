"""Functional operations on :class:`repro.tensor.Tensor`.

Every op here is a thin public wrapper over a private
:class:`repro.tensor.Function` subclass — the Function is the *single*
mechanism by which an operation registers into the autograd graph (one
instance per call, ``forward``/``backward`` overrides), and the wrapper
preserves the historical call signature.  Constant (non-``Tensor``)
operands are accepted wherever a scalar or array makes sense.

Every op computes with plain numpy/scipy, so the float sequences the
equivalence contracts pin are the ones written here.  Under an enabled
telemetry session each op's forward and backward are timed into
``op.<Name>.fwd_s`` / ``.bwd_s`` by :class:`~repro.tensor.Function`.  A
handful of ops (``sqrt``, ``mean``, ``min``, ``var``, ``std``) remain
compositions of the primitives and therefore ride the same machinery.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np
import scipy.sparse as sp

from .function import Function
from .tensor import Tensor, unbroadcast


def _t(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


# ---------------------------------------------------------------------------
# Elementwise binary ops
# ---------------------------------------------------------------------------
class _Add(Function):
    def forward(self, a, b):
        self._shapes = (a.shape, b.shape)
        return a + b

    def backward(self, grad):
        sa, sb = self._shapes
        return unbroadcast(grad, sa), unbroadcast(grad, sb)


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise ``a + b`` with numpy broadcasting."""
    return _Add()(a, b)


class _Sub(Function):
    def forward(self, a, b):
        self._shapes = (a.shape, b.shape)
        return a - b

    def backward(self, grad):
        sa, sb = self._shapes
        return unbroadcast(grad, sa), unbroadcast(-grad, sb)


def sub(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise ``a - b`` with numpy broadcasting."""
    return _Sub()(a, b)


class _Mul(Function):
    def forward(self, a, b):
        self.save_for_backward(a, b)
        return a * b

    def backward(self, grad):
        a, b = self.saved_for_backward
        return (
            unbroadcast(grad * b, a.shape),
            unbroadcast(grad * a, b.shape),
        )


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise ``a * b`` with numpy broadcasting."""
    return _Mul()(a, b)


class _Div(Function):
    def forward(self, a, b):
        self.save_for_backward(a, b)
        return a / b

    def backward(self, grad):
        a, b = self.saved_for_backward
        return (
            unbroadcast(grad / b, a.shape),
            unbroadcast(-grad * a / (b**2), b.shape),
        )


def div(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise ``a / b`` with numpy broadcasting."""
    return _Div()(a, b)


class _Minimum(Function):
    def forward(self, a, b):
        self._shapes = (a.shape, b.shape)
        self._take_a = a <= b
        return np.where(self._take_a, a, b)

    def backward(self, grad):
        sa, sb = self._shapes
        return (
            unbroadcast(grad * self._take_a, sa),
            unbroadcast(grad * ~self._take_a, sb),
        )


def minimum(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise minimum; the gradient flows to the smaller operand.

    Ties route the gradient to ``a`` (consistent with a sub-gradient choice).
    """
    return _Minimum()(a, b)


class _Maximum(Function):
    def forward(self, a, b):
        self._shapes = (a.shape, b.shape)
        self._take_a = a >= b
        return np.where(self._take_a, a, b)

    def backward(self, grad):
        sa, sb = self._shapes
        return (
            unbroadcast(grad * self._take_a, sa),
            unbroadcast(grad * ~self._take_a, sb),
        )


def maximum(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise maximum; ties route the gradient to ``a``."""
    return _Maximum()(a, b)


# ---------------------------------------------------------------------------
# Elementwise unary ops
# ---------------------------------------------------------------------------
class _Neg(Function):
    def forward(self, a):
        return -a

    def backward(self, grad):
        return -grad


def neg(a: Tensor) -> Tensor:
    """Elementwise negation."""
    return _Neg()(a)


class _Pow(Function):
    def __init__(self, exponent: float) -> None:
        self._exponent = exponent

    def forward(self, a):
        self.save_for_backward(a)
        return a**self._exponent

    def backward(self, grad):
        (a,) = self.saved_for_backward
        return grad * self._exponent * a ** (self._exponent - 1)


def pow(a: Tensor, exponent: float) -> Tensor:  # noqa: A001
    """Elementwise power with a constant exponent."""
    return _Pow(exponent)(a)


class _Exp(Function):
    def forward(self, a):
        out = np.exp(a)
        self.save_for_backward(out)
        return out

    def backward(self, grad):
        (out,) = self.saved_for_backward
        return grad * out


def exp(a: Tensor) -> Tensor:
    """Elementwise ``e**a``."""
    return _Exp()(a)


class _Log(Function):
    def forward(self, a):
        self.save_for_backward(a)
        return np.log(a)

    def backward(self, grad):
        (a,) = self.saved_for_backward
        return grad / a


def log(a: Tensor) -> Tensor:
    """Elementwise natural logarithm."""
    return _Log()(a)


def sqrt(a: Tensor) -> Tensor:
    """Elementwise square root (as ``a ** 0.5``)."""
    return pow(a, 0.5)


class _Abs(Function):
    def forward(self, a):
        self._sign = np.sign(a)
        return np.abs(a)

    def backward(self, grad):
        return grad * self._sign


def abs(a: Tensor) -> Tensor:  # noqa: A001 - mirrors numpy naming
    """Elementwise absolute value (zero gradient at 0)."""
    return _Abs()(a)


class _Clamp(Function):
    def __init__(self, lo: Optional[float], hi: Optional[float]) -> None:
        self._lo = lo
        self._hi = hi

    def forward(self, a):
        out = np.clip(a, self._lo, self._hi)
        passthrough = np.ones_like(a)
        if self._lo is not None:
            passthrough = passthrough * (a >= self._lo)
        if self._hi is not None:
            passthrough = passthrough * (a <= self._hi)
        self._passthrough = passthrough
        return out

    def backward(self, grad):
        return grad * self._passthrough


def clamp(a: Tensor, lo: Optional[float] = None, hi: Optional[float] = None) -> Tensor:
    """Clamp values to ``[lo, hi]``; the gradient is zero where clipped."""
    return _Clamp(lo, hi)(a)


class _Relu(Function):
    def forward(self, a):
        self._mask = a > 0
        return a * self._mask

    def backward(self, grad):
        return grad * self._mask


def relu(a: Tensor) -> Tensor:
    """Rectified linear unit."""
    return _Relu()(a)


class _LeakyRelu(Function):
    def __init__(self, negative_slope: float) -> None:
        self._slope = negative_slope

    def forward(self, a):
        self._scale = np.where(a > 0, 1.0, self._slope)
        return a * self._scale

    def backward(self, grad):
        return grad * self._scale


def leaky_relu(a: Tensor, negative_slope: float = 0.2) -> Tensor:
    """Leaky ReLU with the given negative-side slope."""
    return _LeakyRelu(negative_slope)(a)


class _Elu(Function):
    def __init__(self, alpha: float) -> None:
        self._alpha = alpha

    def forward(self, a):
        pos = a > 0
        neg_part = self._alpha * (np.exp(np.minimum(a, 0.0)) - 1.0)
        self._pos = pos
        self._neg_part = neg_part
        return np.where(pos, a, neg_part)

    def backward(self, grad):
        return grad * np.where(self._pos, 1.0, self._neg_part + self._alpha)


def elu(a: Tensor, alpha: float = 1.0) -> Tensor:
    """Exponential linear unit."""
    return _Elu(alpha)(a)


class _Tanh(Function):
    def forward(self, a):
        out = np.tanh(a)
        self.save_for_backward(out)
        return out

    def backward(self, grad):
        # grad * (1 - out**2) in one buffer: the same floats without two
        # full-size temporaries.
        (out,) = self.saved_for_backward
        local = out * out
        np.subtract(1.0, local, out=local)
        local *= grad
        return local


def tanh(a: Tensor) -> Tensor:
    """Elementwise hyperbolic tangent."""
    return _Tanh()(a)


class _Sigmoid(Function):
    def forward(self, a):
        out = 1.0 / (1.0 + np.exp(-a))
        self.save_for_backward(out)
        return out

    def backward(self, grad):
        (out,) = self.saved_for_backward
        return grad * out * (1.0 - out)


def sigmoid(a: Tensor) -> Tensor:
    """Elementwise logistic sigmoid."""
    return _Sigmoid()(a)


# ---------------------------------------------------------------------------
# Reductions and shape ops
# ---------------------------------------------------------------------------
class _Sum(Function):
    def __init__(self, axis, keepdims: bool) -> None:
        self._axis = axis
        self._keepdims = keepdims

    def forward(self, a):
        self._shape = a.shape
        return a.sum(axis=self._axis, keepdims=self._keepdims)

    def backward(self, grad):
        g = grad
        ndim = len(self._shape)
        if self._axis is not None and not self._keepdims:
            axes = self._axis if isinstance(self._axis, tuple) else (self._axis,)
            for ax in sorted(ax % ndim for ax in axes):
                g = np.expand_dims(g, ax)
        return np.broadcast_to(g, self._shape).copy()


def sum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:  # noqa: A001
    """Sum reduction over ``axis`` (all axes when ``None``)."""
    return _Sum(axis, keepdims)(a)


def mean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    """Mean reduction (composed from :func:`sum`)."""
    a = _t(a)
    if axis is None:
        count = a.size
    else:
        axes = axis if isinstance(axis, tuple) else (axis,)
        count = int(np.prod([a.shape[ax] for ax in axes]))
    return sum(a, axis=axis, keepdims=keepdims) * (1.0 / count)


class _Reshape(Function):
    def __init__(self, shape: tuple) -> None:
        self._target = shape

    def forward(self, a):
        self._shape = a.shape
        return a.reshape(self._target)

    def backward(self, grad):
        return grad.reshape(self._shape)


def reshape(a: Tensor, shape: tuple) -> Tensor:
    """Reshape to ``shape`` (a view-compatible adjoint reshape on backward)."""
    return _Reshape(shape)(a)


class _Transpose(Function):
    def forward(self, a):
        return a.T

    def backward(self, grad):
        return grad.T


def transpose(a: Tensor) -> Tensor:
    """Matrix transpose (``a.T``)."""
    return _Transpose()(a)


class _Concat(Function):
    def __init__(self, axis: int) -> None:
        self._axis = axis

    def forward(self, *arrays):
        sizes = [arr.shape[self._axis] for arr in arrays]
        self._offsets = np.cumsum([0] + sizes)
        return np.concatenate(arrays, axis=self._axis)

    def backward(self, grad):
        grads = []
        offsets = self._offsets
        for start, stop in zip(offsets[:-1], offsets[1:]):
            index = [slice(None)] * grad.ndim
            index[self._axis] = slice(start, stop)
            grads.append(grad[tuple(index)])
        return tuple(grads)


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along ``axis``."""
    return _Concat(axis)(*tensors)


class _Stack(Function):
    def __init__(self, axis: int) -> None:
        self._axis = axis

    def forward(self, *arrays):
        return np.stack(arrays, axis=self._axis)

    def backward(self, grad):
        return tuple(np.moveaxis(grad, self._axis, 0))


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new ``axis``."""
    return _Stack(axis)(*tensors)


# ---------------------------------------------------------------------------
# Linear algebra
# ---------------------------------------------------------------------------
class _Matmul(Function):
    def forward(self, a, b):
        self.save_for_backward(a, b)
        return a @ b

    def backward(self, grad):
        a, b = self.saved_for_backward
        need_a, need_b = self.needs_input_grad
        return (
            grad @ b.T if need_a else None,
            a.T @ grad if need_b else None,
        )


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Dense matrix product ``a @ b``."""
    return _Matmul()(a, b)


class _Affine(Function):
    def forward(self, x, weight, bias):
        if x.ndim != 2:
            raise ValueError(f"affine needs a 2-D input, got shape {x.shape}")
        self.save_for_backward(x, weight)
        out = x @ weight
        out += bias
        return out

    def backward(self, grad):
        x, weight = self.saved_for_backward
        need_x, need_w, need_b = self.needs_input_grad
        return (
            grad @ weight.T if need_x else None,
            x.T @ grad if need_w else None,
            grad.sum(axis=0) if need_b else None,
        )


def affine(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """``x @ weight + bias`` for a 2-D ``x`` and a 1-D ``bias``, as one op.

    The bias is added in place into the product, so the op allocates one
    ``(N, out)`` array where ``matmul`` followed by ``add`` allocates two.
    Its values and its three gradients ``(grad @ weightᵀ, xᵀ @ grad,
    grad.sum(axis=0))`` are bitwise those of that composite.
    """
    return _Affine()(x, weight, bias)


class _Spmm(Function):
    def __init__(self, matrix: sp.spmatrix) -> None:
        self._matrix = matrix.tocsr()
        self._transposed: Optional[sp.spmatrix] = None

    def forward(self, x):
        return np.asarray(self._matrix @ x)

    def backward(self, grad):
        if self._transposed is None:
            self._transposed = self._matrix.T.tocsr()
        return np.asarray(self._transposed @ grad)


def spmm(matrix: sp.spmatrix, x: Tensor) -> Tensor:
    """Multiply a *constant* scipy sparse matrix by a dense tensor.

    The sparse operand carries no gradient (it encodes graph structure);
    the gradient w.r.t. ``x`` is ``matrix.T @ grad``.  The CSR transpose is
    only needed for that backward pass, so it is constructed lazily on the
    first backward call and memoised for the call's lifetime — eval-mode
    forwards (the reward evaluations dominating the RL loop) never build it.
    """
    return _Spmm(matrix)(x)


# ---------------------------------------------------------------------------
# Indexing
# ---------------------------------------------------------------------------
class _GatherRows(Function):
    def __init__(self, index: np.ndarray) -> None:
        self._index = np.asarray(index, dtype=np.int64)

    def forward(self, x):
        self._shape = x.shape
        return x[self._index]

    def backward(self, grad):
        buf = np.zeros(self._shape)
        np.add.at(buf, self._index, grad)
        return buf


def gather_rows(x: Tensor, index: np.ndarray) -> Tensor:
    """Select rows ``x[index]``; duplicate indices are supported."""
    return _GatherRows(index)(x)


class _ScatterAddRows(Function):
    def __init__(self, index: np.ndarray, num_rows: int) -> None:
        self._index = np.asarray(index, dtype=np.int64)
        self._num_rows = num_rows

    def forward(self, src):
        return segment_sum_array(src, self._index, self._num_rows)

    def backward(self, grad):
        return grad[self._index]


def scatter_add_rows(src: Tensor, index: np.ndarray, num_rows: int) -> Tensor:
    """Sum rows of ``src`` into ``num_rows`` buckets given by ``index``.

    The inverse of :func:`gather_rows`: ``out[i] = sum_{j: index[j]=i} src[j]``.
    The forward values come from :func:`segment_sum_array`.
    """
    return _ScatterAddRows(index, num_rows)(src)


class _GatherCols(Function):
    def __init__(self, index: np.ndarray) -> None:
        self._index = index

    def forward(self, x):
        self._shape = x.shape
        return x[:, self._index]

    def backward(self, grad):
        buf = np.zeros(self._shape)
        np.add.at(buf.T, self._index, grad.T)
        return buf


def gather_cols(x: Tensor, index) -> Tensor:
    """Select columns ``x[:, index]``; duplicate indices are supported.

    The column twin of :func:`gather_rows` (head slicing in GAT / MixHop
    block selection) without the transpose-gather-transpose dance.
    ``index`` may be an integer array or a ``slice``.
    """
    x = _t(x)
    if isinstance(index, slice):
        index = np.arange(*index.indices(x.shape[1]))
    index = np.asarray(index, dtype=np.int64)
    return _GatherCols(index)(x)


# ---------------------------------------------------------------------------
# Softmax family
# ---------------------------------------------------------------------------
class _LogSoftmax(Function):
    def __init__(self, axis: int) -> None:
        self._axis = axis

    def forward(self, a):
        shifted = a - a.max(axis=self._axis, keepdims=True)
        log_z = np.log(np.exp(shifted).sum(axis=self._axis, keepdims=True))
        out = shifted - log_z
        self.save_for_backward(np.exp(out))
        return out

    def backward(self, grad):
        (softmax_data,) = self.saved_for_backward
        return grad - softmax_data * grad.sum(axis=self._axis, keepdims=True)


def log_softmax(a: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable ``log(softmax(a))`` along ``axis``."""
    return _LogSoftmax(axis)(a)


class _Softmax(Function):
    def __init__(self, axis: int) -> None:
        self._axis = axis

    def forward(self, a):
        shifted = a - a.max(axis=self._axis, keepdims=True)
        e = np.exp(shifted)
        out = e / e.sum(axis=self._axis, keepdims=True)
        self.save_for_backward(out)
        return out

    def backward(self, grad):
        (out,) = self.saved_for_backward
        inner = (grad * out).sum(axis=self._axis, keepdims=True)
        return out * (grad - inner)


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    """Softmax along ``axis``."""
    return _Softmax(axis)(a)


def _shifted_exp(logits: np.ndarray):
    """``(shifted, e, e_sum)`` of the stable softmax over the last axis —
    the float sequence :class:`_LogSoftmax` and :class:`_Softmax` run."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return shifted, e, e.sum(axis=-1, keepdims=True)


class _CategoricalLogProb(Function):
    def __init__(self, actions: np.ndarray) -> None:
        self._actions = np.asarray(actions, dtype=np.int64)

    def forward(self, logits):
        if logits.ndim != 2 or self._actions.shape != logits.shape[:1]:
            raise ValueError(
                f"need (R, C) logits and R actions, got logits "
                f"{logits.shape} and actions {self._actions.shape}"
            )
        shifted, e, e_sum = _shifted_exp(logits)
        self._rows = np.arange(logits.shape[0])
        self.save_for_backward(e, e_sum)
        return (shifted - np.log(e_sum))[self._rows, self._actions]

    def backward(self, grad):
        e, e_sum = self.saved_for_backward
        out = e / e_sum * -grad[:, None]
        out[self._rows, self._actions] += grad
        return out


def categorical_log_prob(logits: Tensor, actions: np.ndarray) -> Tensor:
    """Per-row log-probability ``log_softmax(logits)[i, actions[i]]``.

    One fused op for the categorical log-likelihood of ``(R, C)``
    ``logits`` at integer ``actions`` of length ``R``.  Its values are
    bitwise those of the composite ``sum(log_softmax(logits) *
    one_hot(actions), axis=-1)``; the backward is ``g · (one_hot - p)``
    per row, with ``p`` the row softmax.
    """
    return _CategoricalLogProb(actions)(logits)


class _CategoricalEntropy(Function):
    def forward(self, logits):
        if logits.ndim != 2:
            raise ValueError(f"logits must be 2-D, got shape {logits.shape}")
        shifted, e, e_sum = _shifted_exp(logits)
        p = e / e_sum
        log_p = shifted - np.log(e_sum)
        entropy = -(p * log_p).sum(axis=-1)
        self.save_for_backward(p, log_p, entropy)
        return entropy

    def backward(self, grad):
        p, log_p, entropy = self.saved_for_backward
        return -grad[:, None] * p * (log_p + entropy[:, None])


def categorical_entropy(logits: Tensor) -> Tensor:
    """Per-row entropy ``-sum(p * log p)`` of ``(R, C)`` ``logits``.

    One fused op whose values are bitwise those of the composite
    ``-sum(softmax(logits) * log_softmax(logits), axis=-1)``; the backward
    is ``-g · p · (log p + H)`` per row.
    """
    return _CategoricalEntropy()(logits)


def segment_softmax_array(
    data: np.ndarray, segment_ids: np.ndarray, num_segments: int
) -> np.ndarray:
    """Plain-array segment softmax — the float core of :func:`segment_softmax`.

    Entries sharing a segment id are normalised together; the per-segment
    max is subtracted for numerical stability.  This is the exact float
    sequence the Tensor op runs (:class:`_SegmentSoftmax` calls it).  Per
    segment the accumulation order equals the order in which that
    segment's entries appear in ``data``.
    """
    data = np.asarray(data)
    segment_ids = np.asarray(segment_ids, dtype=np.int64)
    seg_max = np.full((num_segments,) + data.shape[1:], -np.inf)
    np.maximum.at(seg_max, segment_ids, data)
    shifted = data - seg_max[segment_ids]
    e = np.exp(shifted)
    denom = np.zeros((num_segments,) + data.shape[1:])
    np.add.at(denom, segment_ids, e)
    return e / denom[segment_ids]


def segment_sum_array(
    data: np.ndarray, segment_ids: np.ndarray, num_segments: int
) -> np.ndarray:
    """Plain-array segment sum — the float core of :func:`scatter_add_rows`.

    ``out[i] = sum_{j: segment_ids[j] = i} data[j]``, accumulated in the
    order the entries appear in ``data``.
    """
    data = np.asarray(data)
    segment_ids = np.asarray(segment_ids, dtype=np.int64)
    out = np.zeros((num_segments,) + data.shape[1:])
    np.add.at(out, segment_ids, data)
    return out


class _SegmentSoftmax(Function):
    def __init__(self, segment_ids: np.ndarray, num_segments: int) -> None:
        self._segment_ids = np.asarray(segment_ids, dtype=np.int64)
        self._num_segments = num_segments

    def forward(self, logits):
        out = segment_softmax_array(
            logits, self._segment_ids, self._num_segments
        )
        self.save_for_backward(out)
        return out

    def backward(self, grad):
        (out,) = self.saved_for_backward
        weighted = grad * out
        seg_sum = segment_sum_array(
            weighted, self._segment_ids, self._num_segments
        )
        return weighted - out * seg_sum[self._segment_ids]


def segment_softmax(logits: Tensor, segment_ids: np.ndarray, num_segments: int) -> Tensor:
    """Softmax over variable-sized segments (edge-softmax for GAT).

    ``logits`` has shape ``(E,)`` or ``(E, H)``; entries sharing a segment id
    (destination node) are normalised together.  The per-segment max used for
    numerical stability is treated as a constant, which leaves the gradient
    of the softmax unchanged.  The forward values come from
    :func:`segment_softmax_array`.
    """
    return _SegmentSoftmax(segment_ids, num_segments)(logits)


# ---------------------------------------------------------------------------
# Regularisation
# ---------------------------------------------------------------------------
class _Dropout(Function):
    def __init__(self, mask: np.ndarray) -> None:
        self._mask = mask

    def forward(self, a):
        return a * self._mask

    def backward(self, grad):
        return grad * self._mask


def dropout(a: Tensor, p: float, rng: np.random.Generator, training: bool = True) -> Tensor:
    """Inverted dropout: zero entries with probability ``p`` and rescale.

    A scipy sparse ``a`` (the constant CSR feature operand of
    :func:`repro.gnn.features_tensor`) is masked on its stored nonzeros
    only — one draw per nonzero instead of per entry — and returned as a
    new CSR matrix sharing ``a``'s index arrays; it carries no gradient.
    """
    a = a.tocsr() if sp.issparse(a) else _t(a)
    if not training or p <= 0.0:
        return a
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability must be in [0, 1), got {p}")
    if sp.issparse(a):
        mask = (rng.random(a.data.shape) >= p) / (1.0 - p)
        return sp.csr_matrix((a.data * mask, a.indices, a.indptr), shape=a.shape)
    mask = (rng.random(a.shape) >= p) / (1.0 - p)
    return _Dropout(mask)(a)


class _Max(Function):
    def __init__(self, axis, keepdims: bool) -> None:
        self._axis = axis
        self._keepdims = keepdims

    def forward(self, a):
        out = a.max(axis=self._axis, keepdims=self._keepdims)
        self.save_for_backward(a, out)
        return out

    def backward(self, grad):
        a, out = self.saved_for_backward
        g = grad
        axis = self._axis
        if axis is not None and not self._keepdims:
            axes = axis if isinstance(axis, tuple) else (axis,)
            for ax in sorted(ax % a.ndim for ax in axes):
                g = np.expand_dims(g, ax)
                out = np.expand_dims(out, ax)
        elif axis is None:
            g = np.asarray(g).reshape((1,) * a.ndim)
            out = np.asarray(out).reshape((1,) * a.ndim)
        mask = a == out
        # Split gradient across ties to keep the adjoint consistent.
        counts = mask.sum(
            axis=axis if axis is not None else None, keepdims=True
        )
        return np.broadcast_to(g, a.shape) * mask / counts


def max(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:  # noqa: A001
    """Max reduction; gradient flows to the (first) maximal entries."""
    return _Max(axis, keepdims)(a)


def min(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:  # noqa: A001
    """Min reduction (via max of the negation)."""
    return neg(max(neg(_t(a)), axis=axis, keepdims=keepdims))


def var(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    """Population variance (ddof=0), differentiable."""
    a = _t(a)
    mu = mean(a, axis=axis, keepdims=True)
    centered = a - mu
    return mean(centered * centered, axis=axis, keepdims=keepdims)


def std(a: Tensor, axis=None, keepdims: bool = False, eps: float = 1e-12) -> Tensor:
    """Standard deviation with a small epsilon for gradient stability."""
    return sqrt(var(a, axis=axis, keepdims=keepdims) + eps)


class _Log1p(Function):
    def forward(self, a):
        self.save_for_backward(a)
        return np.log1p(a)

    def backward(self, grad):
        (a,) = self.saved_for_backward
        return grad / (1.0 + a)


def log1p(a: Tensor) -> Tensor:
    """``log(1 + a)`` computed stably."""
    return _Log1p()(a)


class _Softplus(Function):
    def forward(self, a):
        out = np.logaddexp(0.0, a)
        with np.errstate(over="ignore"):
            self._sig = 1.0 / (1.0 + np.exp(-a))
        return out

    def backward(self, grad):
        return grad * self._sig


def softplus(a: Tensor) -> Tensor:
    """``log(1 + exp(a))`` with the overflow-safe formulation."""
    return _Softplus()(a)


class _Where(Function):
    def __init__(self, condition: np.ndarray) -> None:
        self._condition = np.asarray(condition, dtype=bool)

    def forward(self, a, b):
        self._shapes = (a.shape, b.shape)
        return np.where(self._condition, a, b)

    def backward(self, grad):
        sa, sb = self._shapes
        return (
            unbroadcast(grad * self._condition, sa),
            unbroadcast(grad * ~self._condition, sb),
        )


def where(condition: np.ndarray, a: Tensor, b: Tensor) -> Tensor:
    """Elementwise select by a constant boolean mask."""
    return _Where(condition)(a, b)
