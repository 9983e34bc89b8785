"""The public ``Function`` custom-op API (``repro.tensor.function``).

Every op in ``repro.tensor.ops`` is a ``Function`` subclass; this suite
pins the lifecycle contract (one instance per call, ``save_for_backward``,
the per-op telemetry hook), the subclass registry, and — the bulk —
a gradcheck sweep that covers every Function-migrated op in ``ops``.  The
sweep is exhaustive by construction: a test asserts that the case table
names every ``Function`` subclass defined in the ops module, so adding an
op without a gradcheck case fails here.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.telemetry import (
    NULL_TELEMETRY,
    Telemetry,
    get_telemetry,
    use_telemetry,
)
from repro.tensor import Function, Tensor, gradcheck, no_grad, ops
from repro.tensor.function import FUNCTION_REGISTRY

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


@pytest.mark.parametrize("x_grad", [False, True])
def test_matmul_backward_skips_constant_inputs(x_grad):
    x = Tensor(rng.normal(size=(5, 4)), requires_grad=x_grad)
    w = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    fn = ops._Matmul()
    fn(x, w)
    grad = rng.normal(size=(5, 3))
    gx, gw = fn.backward(grad)
    np.testing.assert_array_equal(gw, x.data.T @ grad)
    if x_grad:
        np.testing.assert_array_equal(gx, grad @ w.data.T)
    else:
        assert gx is None


# ---------------------------------------------------------------------------
# Telemetry hook: every op times its forward and backward
# ---------------------------------------------------------------------------
def _op_counts(tel):
    """Observations per ``op.*`` histogram of ``tel``."""
    return {
        name: hist.count
        for name, hist in tel.registry.histograms.items()
        if name.startswith("op.")
    }


def test_enabled_session_times_each_forward_and_backward():
    tel = Telemetry(enabled=True)
    x = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
    with use_telemetry(tel):
        out = ops.spmm(_SPARSE, x)
        assert _op_counts(tel) == {"op.Spmm.fwd_s": 1}
        out.backward(np.ones((5, 3)))
    assert _op_counts(tel) == {"op.Spmm.fwd_s": 1, "op.Spmm.bwd_s": 1}


def test_metric_names_drop_the_leading_underscore():
    class Doubler(Function):
        def forward(self, x):
            return 2.0 * x

        def backward(self, grad):
            return 2.0 * grad

    tel = Telemetry(enabled=True)
    with use_telemetry(tel):
        _Square()(Tensor(np.ones(2), requires_grad=True)).backward(np.ones(2))
        Doubler()(Tensor(np.ones(2)))
    assert _op_counts(tel) == {
        "op.Square.fwd_s": 1, "op.Square.bwd_s": 1, "op.Doubler.fwd_s": 1,
    }


def test_default_session_records_nothing():
    assert get_telemetry() is NULL_TELEMETRY
    x = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
    ops.spmm(_SPARSE, x).backward(np.ones((5, 3)))
    assert x.grad is not None
    assert NULL_TELEMETRY.registry.histograms == {}


def test_no_grad_call_still_times_its_forward():
    tel = Telemetry(enabled=True)
    with use_telemetry(tel), no_grad():
        out = _Square()(Tensor(np.ones(3), requires_grad=True))
    assert not out.requires_grad
    assert _op_counts(tel) == {"op.Square.fwd_s": 1}


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
