"""The public ``Function`` custom-op API (``repro.tensor.function``).

Every op in ``repro.tensor.ops`` is a ``Function`` subclass; this suite
pins the lifecycle contract (one instance per call, ``save_for_backward``,
backend resolution at call time), the subclass registry, and — the bulk —
a gradcheck sweep that covers every Function-migrated op in ``ops``.  The
sweep is exhaustive by construction: a test asserts that the case table
names every ``Function`` subclass defined in the ops module, so adding an
op without a gradcheck case fails here.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.tensor import Function, Tensor, gradcheck, ops
from repro.tensor.function import FUNCTION_REGISTRY
from repro.tensor.backends import TensorBackend, active_backend, use_backend

rng = np.random.default_rng(0)


# ---------------------------------------------------------------------------
# Lifecycle
# ---------------------------------------------------------------------------
class _Square(Function):
    def forward(self, x):
        self.save_for_backward(x)
        return x * x

    def backward(self, grad):
        (x,) = self.saved_for_backward
        return 2.0 * x * grad


def test_function_instances_are_single_use():
    fn = _Square()
    fn(Tensor(np.ones(3)))
    with pytest.raises(RuntimeError, match="twice"):
        fn(Tensor(np.ones(3)))


def test_save_for_backward_roundtrip():
    x = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
    out = _Square()(x)
    out.backward(np.ones(3))
    np.testing.assert_array_equal(x.grad, 2.0 * x.data)


def test_base_class_requires_overrides():
    with pytest.raises(NotImplementedError):
        Function()(Tensor(np.ones(2)))

    class _NoBackward(Function):
        def forward(self, x):
            return x + 1.0

    out = _NoBackward()(Tensor(np.ones(2), requires_grad=True))
    with pytest.raises(NotImplementedError):
        out.backward(np.ones(2))


def test_call_resolves_the_active_backend():
    captured = {}

    class _Probe(Function):
        def forward(self, x):
            captured["backend"] = self.backend
            return x

        def backward(self, grad):
            return grad

    marker = TensorBackend()
    with use_backend(marker):
        _Probe()(Tensor(np.ones(2)))
    assert captured["backend"] is marker


def test_call_prefers_a_pinned_input_backend():
    captured = {}

    class _Probe(Function):
        def forward(self, x, y):
            captured["backend"] = self.backend
            return x + y

        def backward(self, grad):
            return grad, grad

    pin = TensorBackend()
    _Probe()(Tensor(np.ones(2), backend=pin), Tensor(np.ones(2)))
    assert captured["backend"] is pin


def test_raw_arrays_are_promoted_to_tensors():
    out = _Square()(np.array([2.0, 3.0]))
    assert isinstance(out, Tensor)
    np.testing.assert_array_equal(out.data, [4.0, 9.0])


def test_backward_arity_is_checked():
    class _Wrong(Function):
        def forward(self, x, y):
            return x + y

        def backward(self, grad):
            return grad  # should be (grad, grad)

    x = Tensor(np.ones(2), requires_grad=True)
    out = _Wrong()(x, Tensor(np.ones(2)))
    with pytest.raises(RuntimeError, match="grad"):
        out.backward(np.ones(2))


def test_subclasses_register_themselves():
    assert FUNCTION_REGISTRY["_Square"] is _Square
    assert "_Matmul" in FUNCTION_REGISTRY


# ---------------------------------------------------------------------------
# Gradcheck sweep over every Function-migrated op
# ---------------------------------------------------------------------------
_A = rng.normal(size=(3, 4))
_B = rng.normal(size=(3, 4))
_POS = 0.5 + rng.random((3, 4))
_OFF_ZERO = np.where(np.abs(_A) < 0.2, 0.3, _A)  # away from relu/abs kinks
_SPARSE = sp.random(5, 5, density=0.4, random_state=0, format="csr")
_SEG = np.repeat(np.arange(3), 2)

# Registry class name -> (wrapper call, differentiable inputs).
GRADCHECK_CASES = {
    "_Add": (lambda a, b: ops.add(a, b), [_A, rng.normal(size=4)]),
    "_Sub": (lambda a, b: ops.sub(a, b), [_A, rng.normal(size=4)]),
    "_Mul": (lambda a, b: ops.mul(a, b), [_A, _B]),
    "_Div": (lambda a, b: ops.div(a, b), [_A, _POS]),
    "_Minimum": (lambda a, b: ops.minimum(a, b), [_A, _B + 0.05]),
    "_Maximum": (lambda a, b: ops.maximum(a, b), [_A, _B + 0.05]),
    "_Neg": (lambda a: ops.neg(a), [_A]),
    "_Pow": (lambda a: ops.pow(a, 3.0), [_POS]),
    "_Exp": (lambda a: ops.exp(a), [_A]),
    "_Log": (lambda a: ops.log(a), [_POS]),
    "_Abs": (lambda a: ops.abs(a), [_OFF_ZERO]),
    "_Clamp": (lambda a: ops.clamp(a, -0.9, 0.9), [_OFF_ZERO]),
    "_Relu": (lambda a: ops.relu(a), [_OFF_ZERO]),
    "_LeakyRelu": (lambda a: ops.leaky_relu(a, 0.1), [_OFF_ZERO]),
    "_Elu": (lambda a: ops.elu(a, 1.0), [_OFF_ZERO]),
    "_Tanh": (lambda a: ops.tanh(a), [_A]),
    "_Sigmoid": (lambda a: ops.sigmoid(a), [_A]),
    "_Sum": (lambda a: ops.sum(a, axis=0, keepdims=True), [_A]),
    "_Reshape": (lambda a: ops.reshape(a, (4, 3)), [_A]),
    "_Transpose": (lambda a: ops.transpose(a), [_A]),
    "_Concat": (lambda a, b: ops.concat([a, b], axis=1), [_A, _B]),
    "_Stack": (lambda a, b: ops.stack([a, b], axis=0), [_A, _B]),
    "_Matmul": (
        lambda a, b: ops.matmul(a, b),
        [rng.normal(size=(3, 5)), rng.normal(size=(5, 2))],
    ),
    "_Spmm": (lambda x: ops.spmm(_SPARSE, x), [rng.normal(size=(5, 3))]),
    "_SpmmRows": (
        lambda x: ops.spmm_rows(_SPARSE, np.array([0, 2, 4]), x),
        [rng.normal(size=(5, 3))],
    ),
    "_ScatterPatchRows": (
        lambda base, patch: ops.scatter_patch_rows(
            base, np.array([1, 3]), patch
        ),
        [rng.normal(size=(5, 3)), rng.normal(size=(2, 3))],
    ),
    "_GatherRows": (
        lambda x: ops.gather_rows(x, np.array([0, 2, 2, 4])),
        [rng.normal(size=(5, 3))],
    ),
    "_ScatterAddRows": (
        lambda x: ops.scatter_add_rows(x, np.array([0, 2, 2, 1]), 4),
        [rng.normal(size=(4, 3))],
    ),
    "_GatherCols": (
        lambda x: ops.gather_cols(x, np.array([0, 3, 3])),
        [rng.normal(size=(3, 5))],
    ),
    "_LogSoftmax": (lambda a: ops.log_softmax(a, axis=-1), [_A]),
    "_Softmax": (lambda a: ops.softmax(a, axis=-1), [_A]),
    "_CategoricalLogProb": (
        lambda a: ops.categorical_log_prob(a, np.array([0, 3, 1])),
        [_A],
    ),
    "_CategoricalEntropy": (lambda a: ops.categorical_entropy(a), [_A]),
    "_SegmentSoftmax": (
        lambda a: ops.segment_softmax(a, _SEG, 3),
        [rng.normal(size=(6, 2))],
    ),
    "_Dropout": (
        # A fresh, fixed-seed generator per call keeps the mask identical
        # across gradcheck's numerical perturbations.
        lambda a: ops.dropout(a, 0.4, np.random.default_rng(7), training=True),
        [_A],
    ),
    "_Max": (
        # Well-separated values: no ties within numerical-gradient eps.
        lambda a: ops.max(a, axis=1),
        [np.arange(12.0).reshape(3, 4) ** 1.5 / 10.0],
    ),
    "_Log1p": (lambda a: ops.log1p(a), [_POS - 0.4]),
    "_Softplus": (lambda a: ops.softplus(a), [_A]),
    "_Where": (
        lambda a, b: ops.where(np.array([[True, False]] * 3), a, b),
        [rng.normal(size=(3, 2)), rng.normal(size=(3, 2))],
    ),
    "_Affine": (
        lambda x, w, b: ops.affine(x, w, b),
        [rng.normal(size=(3, 5)), rng.normal(size=(5, 2)), rng.normal(size=2)],
    ),
}


def _ops_functions():
    return {
        name
        for name, cls in FUNCTION_REGISTRY.items()
        if cls.__module__ == "repro.tensor.ops"
    }


def test_sweep_covers_every_function_in_ops():
    """Adding an op without a gradcheck case fails here, not silently."""
    missing = _ops_functions() - set(GRADCHECK_CASES)
    assert not missing, f"Function subclasses without gradcheck cases: {missing}"
    stale = set(GRADCHECK_CASES) - _ops_functions()
    assert not stale, f"gradcheck cases for unknown Functions: {stale}"


@pytest.mark.parametrize("name", sorted(GRADCHECK_CASES))
def test_gradcheck(name):
    fn, inputs = GRADCHECK_CASES[name]
    assert gradcheck(fn, inputs)


def test_custom_function_composes_with_builtin_ops():
    """A user-defined Function sits in the same graph as migrated ops."""

    def fn(x):
        return ops.sum(ops.relu(_Square()(x)))

    assert gradcheck(fn, [_OFF_ZERO])


# ---------------------------------------------------------------------------
# needs_input_grad: gradients nobody consumes are never computed
# ---------------------------------------------------------------------------
def test_needs_input_grad_recorded_per_input():
    fn = ops._Matmul()
    w = Tensor(np.ones((3, 2)), requires_grad=True)
    fn(np.ones((4, 3)), w)
    assert fn.needs_input_grad == (False, True)


class _CountingBackend(TensorBackend):
    name = "counting"

    def __init__(self):
        self.matmuls = 0

    def matmul(self, a, b):
        self.matmuls += 1
        return super().matmul(a, b)


@pytest.mark.parametrize("x_grad", [False, True])
def test_matmul_backward_skips_constant_inputs(x_grad):
    backend = _CountingBackend()
    x = Tensor(rng.normal(size=(5, 4)), requires_grad=x_grad)
    w = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    with use_backend(backend):
        out = ops.matmul(x, w)
        forward_calls = backend.matmuls
        out.sum().backward()
    assert forward_calls == 1
    assert backend.matmuls - forward_calls == (2 if x_grad else 1)
    np.testing.assert_array_equal(w.grad, x.data.T @ np.ones((5, 3)))
    assert (x.grad is not None) == x_grad


# ---------------------------------------------------------------------------
# no_grad
# ---------------------------------------------------------------------------
def test_no_grad_builds_no_graph_and_keeps_values():
    from repro.tensor import is_grad_enabled, no_grad

    x = Tensor(rng.normal(size=(4, 3)))
    w = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
    recorded = ops.relu(ops.matmul(x, w))
    with no_grad():
        assert not is_grad_enabled()
        plain = ops.relu(ops.matmul(x, w))
    assert is_grad_enabled()
    assert recorded.requires_grad and not plain.requires_grad
    assert plain._parents == () and plain._backward is None
    np.testing.assert_array_equal(plain.data, recorded.data)


def test_no_grad_restores_on_error():
    from repro.tensor import is_grad_enabled, no_grad

    with pytest.raises(ValueError):
        with no_grad():
            raise ValueError("boom")
    assert is_grad_enabled()
