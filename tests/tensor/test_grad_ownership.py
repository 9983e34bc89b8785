"""Gradient ownership: the engine keeps a fresh gradient array as ``.grad``.

``Function._apply_backward`` hands ``Tensor._accumulate`` each returned
gradient with a ``fresh`` flag, and the first gradient a tensor receives
is kept without a copy only when it is fresh and owns its writeable data
with the tensor's dtype and shape.  That is sound only if no ``backward``
returns an array that aliases a tensor's ``.data`` or an array it keeps
elsewhere: the first test audits every built-in op of the gradcheck
sweep for that.  The rest pin the cases that must still be copied — in
each, every tensor ends with its own correct ``.grad``, and mutating one
gradient never changes another.
"""

import numpy as np
import pytest

from repro.tensor import Function, Tensor, ops

from .test_function import GRADCHECK_CASES


def _arrays_in(value):
    """Every ndarray reachable through tuples, lists and dicts."""
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from _arrays_in(item)
    elif isinstance(value, dict):
        for item in value.values():
            yield from _arrays_in(item)


@pytest.mark.parametrize("name", sorted(GRADCHECK_CASES))
def test_builtin_backward_returns_no_alias(name):
    """No built-in ``backward`` returns an array sharing memory with an
    input's or the output's ``.data``, or with any array the op keeps."""
    fn, inputs = GRADCHECK_CASES[name]
    tensors = [Tensor(np.array(x), requires_grad=True) for x in inputs]
    out = fn(*tensors)
    op = out._backward.__self__
    assert type(op).__name__ == name
    upstream = np.random.default_rng(1).normal(size=out.shape)
    grads = op.backward(upstream)
    if not isinstance(grads, (tuple, list)):
        grads = (grads,)
    kept = [t.data for t in (*tensors, out)] + list(_arrays_in(vars(op)))
    for i, g in enumerate(grads):
        if g is None:
            continue
        for array in kept:
            assert not np.shares_memory(g, array), (name, i)


def _assert_independent(tensors, *others):
    """Every tensor's ``.grad`` is its own memory: shared with no other
    gradient nor with ``others``, and mutating it changes nothing else."""
    grads = [t.grad for t in tensors]
    for i, g in enumerate(grads):
        for j, h in enumerate(grads):
            if i != j:
                assert not np.shares_memory(g, h), (i, j)
        for array in others:
            assert not np.shares_memory(g, array), i
    watched = [*grads, *others]
    snapshot = [a.copy() for a in watched]
    for i, g in enumerate(grads):
        g.fill(np.inf)
        for j, array in enumerate(watched):
            if j != i:
                np.testing.assert_array_equal(array, snapshot[j])
        g[...] = snapshot[i]


def test_add_hands_one_upstream_array_to_both_inputs():
    """``_Add`` returns its upstream gradient itself for both inputs."""
    rng = np.random.default_rng(0)
    a = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    b = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    out = ops.add(a, b)
    upstream = rng.normal(size=(4, 3))
    out.backward(upstream)
    np.testing.assert_array_equal(a.grad, upstream)
    np.testing.assert_array_equal(b.grad, upstream)
    _assert_independent([a, b, out], upstream, a.data, b.data)


@pytest.mark.parametrize("view", ["reshape", "transpose", "concat"])
def test_view_gradients_are_copied(view):
    """Reshape, transpose and concat return views of their upstream
    gradient; the engine copies each into the input's own buffer."""
    rng = np.random.default_rng(0)
    x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    y = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    if view == "reshape":
        out, parts = ops.reshape(x, (4, 3)), [x]
    elif view == "transpose":
        out, parts = ops.transpose(x), [x]
    else:
        out, parts = ops.concat([x, y], axis=1), [x, y]
    upstream = rng.normal(size=out.shape)
    out.backward(upstream)
    if view == "reshape":
        np.testing.assert_array_equal(x.grad, upstream.reshape(3, 4))
    elif view == "transpose":
        np.testing.assert_array_equal(x.grad, upstream.T)
    else:
        np.testing.assert_array_equal(x.grad, upstream[:, :4])
        np.testing.assert_array_equal(y.grad, upstream[:, 4:])
    _assert_independent([*parts, out], upstream)


class _BroadcastBack(Function):
    """``sum(x)`` broadcast back: the backward returns a read-only view."""

    def forward(self, x):
        self._shape = x.shape
        return np.asarray(x.sum())

    def backward(self, grad):
        return np.broadcast_to(grad, self._shape)


def test_broadcast_view_gradient_is_copied():
    x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    out = _BroadcastBack()(x)
    out.backward(np.asarray(2.0))
    np.testing.assert_array_equal(x.grad, np.full((2, 3), 2.0))
    assert x.grad.flags.writeable and x.grad.flags.owndata
    _assert_independent([x, out])


class _SameArrayTwice(Function):
    """``x + y`` whose backward returns ONE fresh array for both inputs."""

    def forward(self, x, y):
        return x + y

    def backward(self, grad):
        shared = grad * 1.0
        return shared, shared


class _ReadOnlyDouble(Function):
    """``2 x`` whose backward returns a fresh but read-only array."""

    def forward(self, x):
        return 2.0 * x

    def backward(self, grad):
        out = 2.0 * grad
        out.flags.writeable = False
        return out


def test_read_only_gradient_is_copied():
    """A read-only first gradient is copied, so a second contribution can
    still be added in place."""
    x = Tensor(np.arange(3.0), requires_grad=True)
    out = _ReadOnlyDouble()(x) + ops.mul(x, 3.0)
    out.backward(np.ones(3))
    np.testing.assert_array_equal(x.grad, np.full(3, 5.0))
    assert x.grad.flags.writeable
    _assert_independent([x, out])


def test_one_array_returned_for_two_inputs():
    rng = np.random.default_rng(0)
    x = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
    y = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
    out = _SameArrayTwice()(x, y)
    upstream = rng.normal(size=(3, 2))
    out.backward(upstream)
    np.testing.assert_array_equal(x.grad, upstream)
    np.testing.assert_array_equal(y.grad, upstream)
    _assert_independent([x, y, out], upstream)


def test_parameter_consumed_twice():
    """A weight used by two products and a tensor multiplied by itself
    sum their contributions into one owned buffer each."""
    rng = np.random.default_rng(0)
    w = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
    x1, x2 = rng.normal(size=(5, 3)), rng.normal(size=(4, 3))
    h1 = ops.matmul(Tensor(x1), w)
    h2 = ops.matmul(Tensor(x2), w)
    s = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
    loss = ops.sum(h1) + ops.sum(h2 * s) + ops.sum(s * s)
    loss.backward()
    want_w = x1.T @ np.ones((5, 2))
    want_w += x2.T @ s.data
    np.testing.assert_array_equal(w.grad, want_w)
    np.testing.assert_allclose(s.grad, h2.data + 2.0 * s.data, rtol=1e-12)
    _assert_independent([w, s, h1, h2, loss], w.data, s.data)


def test_caller_supplied_backward_gradient_is_copied():
    """``backward(grad)`` never adopts the caller's array: mutating it
    afterwards changes no gradient."""
    x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    out = ops.reshape(x, (3, 2))
    upstream = np.ones((3, 2))
    out.backward(upstream)
    assert out.grad is not upstream
    upstream += 5.0
    np.testing.assert_array_equal(out.grad, np.ones((3, 2)))
    np.testing.assert_array_equal(x.grad, np.ones((2, 3)))
    _assert_independent([x, out], upstream)


def test_fresh_gradient_is_kept_without_a_copy():
    """The point of the change: an owned, fresh first gradient becomes the
    input's ``.grad`` as is."""
    returned = []

    class _Double(Function):
        def forward(self, x):
            return 2.0 * x

        def backward(self, grad):
            returned.append(2.0 * grad)
            return returned[-1]

    x = Tensor(np.ones(3), requires_grad=True)
    _Double()(x).backward(np.ones(3))
    assert x.grad is returned[0]


@pytest.mark.parametrize("width_in, width_out", [(6, 64), (64, 7)])
def test_affine_is_bitwise_matmul_plus_add(width_in, width_out):
    """``affine`` reproduces ``matmul`` + broadcast ``add`` bit for bit:
    the output and all three gradients, at N = 3000."""
    rng = np.random.default_rng(width_in * width_out)
    x0 = rng.normal(size=(3000, width_in))
    w0 = rng.normal(size=(width_in, width_out)) / np.sqrt(width_in)
    b0 = rng.normal(size=width_out)
    upstream = rng.normal(size=(3000, width_out))

    def run(fused):
        x, w, b = (Tensor(a.copy(), requires_grad=True) for a in (x0, w0, b0))
        out = ops.affine(x, w, b) if fused else ops.matmul(x, w) + b
        ops.sum(ops.tanh(out) * upstream).backward()
        return out.data, x.grad, w.grad, b.grad

    for got, want in zip(run(True), run(False)):
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_affine_rejects_non_matrix_input():
    with pytest.raises(ValueError, match="2-D"):
        ops.affine(np.ones(3), np.ones((3, 2)), np.ones(2))
