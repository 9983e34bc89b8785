"""Unit tests for the Tensor core: graph construction and backward."""

import numpy as np
import pytest

from repro.tensor import Tensor, ops


def test_tensor_wraps_data_as_float64():
    t = Tensor([1, 2, 3])
    assert t.data.dtype == np.float64
    assert t.shape == (3,)
    assert t.size == 3
    assert t.ndim == 1


def test_requires_grad_defaults_false():
    assert not Tensor([1.0]).requires_grad
    assert Tensor([1.0], requires_grad=True).requires_grad


def test_item_and_numpy_accessors():
    t = Tensor(3.5)
    assert t.item() == 3.5
    assert isinstance(t.numpy(), np.ndarray)


def test_detach_cuts_graph():
    a = Tensor([2.0], requires_grad=True)
    b = (a * 3.0).detach()
    assert not b.requires_grad
    c = b * 2.0
    c.backward(np.ones(1))
    assert a.grad is None


def test_backward_simple_chain():
    a = Tensor([2.0, -1.0], requires_grad=True)
    b = a * a + a
    b.backward(np.ones(2))
    np.testing.assert_allclose(a.grad, 2 * a.data + 1)


def test_backward_accumulates_over_reuse():
    a = Tensor([3.0], requires_grad=True)
    out = a + a + a
    out.backward(np.ones(1))
    np.testing.assert_allclose(a.grad, [3.0])


def test_first_gradient_is_copied_for_self_addition():
    """``_Add`` hands one upstream array to both inputs; storing the first
    contribution without a copy would let the second one double the
    upstream buffer (and every alias of it) in place."""
    x = Tensor([1.0, -2.0], requires_grad=True)
    y = x + x
    upstream = np.array([1.0, 10.0])
    y.backward(upstream)
    np.testing.assert_array_equal(x.grad, [2.0, 20.0])
    np.testing.assert_array_equal(y.grad, [1.0, 10.0])
    np.testing.assert_array_equal(upstream, [1.0, 10.0])


def test_first_gradient_is_copied_when_one_tensor_feeds_two_ops():
    """``x`` feeds an add (sharing its upstream array with ``w``) and a
    mul; the mul's later contribution to ``x`` must not leak into ``w``."""
    x = Tensor([1.0, 2.0], requires_grad=True)
    w = Tensor([3.0, 4.0], requires_grad=True)
    out = (x + w) + x * 3.0
    out.backward(np.ones(2))
    np.testing.assert_array_equal(x.grad, [4.0, 4.0])
    np.testing.assert_array_equal(w.grad, [1.0, 1.0])
    np.testing.assert_array_equal(out.grad, [1.0, 1.0])


def test_backward_default_grad_is_ones():
    a = Tensor([1.0, 2.0], requires_grad=True)
    (a * 2.0).sum().backward()
    np.testing.assert_allclose(a.grad, [2.0, 2.0])


def test_backward_shape_mismatch_raises():
    a = Tensor([1.0, 2.0], requires_grad=True)
    out = a * 2.0
    with pytest.raises(ValueError, match="gradient shape"):
        out.backward(np.ones(3))


def test_zero_grad_clears_buffer():
    a = Tensor([1.0], requires_grad=True)
    (a * 2.0).backward(np.ones(1))
    assert a.grad is not None
    a.zero_grad()
    assert a.grad is None


def test_diamond_graph_gradient():
    # f(a) = (a*2) + (a*3); gradient should be 5 everywhere.
    a = Tensor(np.ones((2, 2)), requires_grad=True)
    left = a * 2.0
    right = a * 3.0
    (left + right).backward(np.ones((2, 2)))
    np.testing.assert_allclose(a.grad, np.full((2, 2), 5.0))


def test_deep_chain_does_not_recurse():
    # Iterative topo-sort must handle graphs deeper than the recursion limit.
    a = Tensor([1.0], requires_grad=True)
    out = a
    for _ in range(5000):
        out = out + 0.0
    out.backward(np.ones(1))
    np.testing.assert_allclose(a.grad, [1.0])


def test_operator_overloads_match_ops():
    a = Tensor([4.0], requires_grad=True)
    b = Tensor([2.0], requires_grad=True)
    np.testing.assert_allclose((a + b).data, [6.0])
    np.testing.assert_allclose((a - b).data, [2.0])
    np.testing.assert_allclose((a * b).data, [8.0])
    np.testing.assert_allclose((a / b).data, [2.0])
    np.testing.assert_allclose((-a).data, [-4.0])
    np.testing.assert_allclose((a**2).data, [16.0])
    np.testing.assert_allclose((3.0 + a).data, [7.0])
    np.testing.assert_allclose((3.0 - a).data, [-1.0])
    np.testing.assert_allclose((3.0 * a).data, [12.0])
    np.testing.assert_allclose((8.0 / a).data, [2.0])


def test_matmul_operator():
    a = Tensor(np.eye(2), requires_grad=True)
    b = Tensor([[1.0, 2.0], [3.0, 4.0]])
    np.testing.assert_allclose((a @ b).data, b.data)


def test_transpose_property():
    a = Tensor(np.arange(6.0).reshape(2, 3))
    assert a.T.shape == (3, 2)


def test_reshape_method():
    a = Tensor(np.arange(6.0), requires_grad=True)
    b = a.reshape(2, 3)
    assert b.shape == (2, 3)
    b.backward(np.ones((2, 3)))
    np.testing.assert_allclose(a.grad, np.ones(6))


def test_repr_mentions_shape_and_grad():
    t = Tensor(np.zeros((2, 3)), requires_grad=True)
    assert "shape=(2, 3)" in repr(t)
    assert "requires_grad=True" in repr(t)


def test_len():
    assert len(Tensor(np.zeros((4, 2)))) == 4


def test_gradients_not_tracked_without_requires_grad():
    a = Tensor([1.0])
    b = a * 2.0
    assert b._backward is None
    assert b._parents == ()


def test_unbroadcast_row_vector():
    from repro.tensor import unbroadcast

    grad = np.ones((4, 3))
    out = unbroadcast(grad, (3,))
    np.testing.assert_allclose(out, np.full(3, 4.0))


def test_unbroadcast_keepdim_axis():
    from repro.tensor import unbroadcast

    grad = np.ones((4, 3))
    out = unbroadcast(grad, (4, 1))
    np.testing.assert_allclose(out, np.full((4, 1), 3.0))
