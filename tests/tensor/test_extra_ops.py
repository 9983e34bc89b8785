"""Tests for the extended op set (max/min/var/std/log1p/softplus/where)."""

import numpy as np
import pytest

from repro.tensor import Tensor, gradcheck, ops

RNG = np.random.default_rng(0)


def distinct(*shape):
    """Random values with distinct entries (no reduction ties)."""
    x = RNG.standard_normal(shape)
    return x + 1e-3 * np.arange(x.size).reshape(shape)


def test_max_forward():
    x = np.array([[1.0, 5.0], [3.0, 2.0]])
    assert ops.max(Tensor(x)).item() == 5.0
    np.testing.assert_allclose(ops.max(Tensor(x), axis=0).data, [3.0, 5.0])
    np.testing.assert_allclose(
        ops.max(Tensor(x), axis=1, keepdims=True).data, [[5.0], [3.0]]
    )


def test_max_grad():
    assert gradcheck(lambda t: ops.max(t), [distinct(3, 4)])
    assert gradcheck(lambda t: ops.max(t, axis=0), [distinct(3, 4)])
    assert gradcheck(lambda t: ops.max(t, axis=1, keepdims=True), [distinct(3, 4)])


def test_max_tie_splits_gradient():
    x = Tensor(np.array([2.0, 2.0, 1.0]), requires_grad=True)
    ops.max(x).backward()
    np.testing.assert_allclose(x.grad, [0.5, 0.5, 0.0])


def test_min_forward_and_grad():
    x = np.array([[1.0, 5.0], [3.0, 2.0]])
    assert ops.min(Tensor(x)).item() == 1.0
    np.testing.assert_allclose(ops.min(Tensor(x), axis=1).data, [1.0, 2.0])
    assert gradcheck(lambda t: ops.min(t, axis=0), [distinct(3, 4)])


def test_var_matches_numpy():
    x = RNG.standard_normal((4, 5))
    assert ops.var(Tensor(x)).item() == pytest.approx(x.var())
    np.testing.assert_allclose(ops.var(Tensor(x), axis=0).data, x.var(axis=0))


def test_var_grad():
    assert gradcheck(lambda t: ops.var(t), [RNG.standard_normal((3, 4))])
    assert gradcheck(lambda t: ops.var(t, axis=1), [RNG.standard_normal((3, 4))])


def test_std_matches_numpy():
    x = RNG.standard_normal((6,)) * 2
    assert ops.std(Tensor(x)).item() == pytest.approx(x.std(), abs=1e-6)


def test_std_grad():
    assert gradcheck(
        lambda t: ops.std(t), [RNG.standard_normal((4,)) + 2.0], atol=1e-4
    )


def test_log1p_forward_and_grad():
    x = np.abs(RNG.standard_normal(5))
    np.testing.assert_allclose(ops.log1p(Tensor(x)).data, np.log1p(x))
    assert gradcheck(ops.log1p, [x])


def test_softplus_forward_stable():
    big = Tensor(np.array([1000.0]))
    assert ops.softplus(big).data[0] == pytest.approx(1000.0)
    small = Tensor(np.array([-1000.0]))
    assert ops.softplus(small).data[0] == pytest.approx(0.0, abs=1e-12)


def test_softplus_grad():
    assert gradcheck(ops.softplus, [RNG.standard_normal(6)])


def test_where_forward():
    cond = np.array([True, False, True])
    out = ops.where(cond, Tensor(np.ones(3)), Tensor(np.zeros(3)))
    np.testing.assert_allclose(out.data, [1.0, 0.0, 1.0])


def test_where_grad_routes_by_condition():
    cond = np.array([True, False])
    a = Tensor(np.zeros(2), requires_grad=True)
    b = Tensor(np.zeros(2), requires_grad=True)
    ops.where(cond, a, b).sum().backward()
    np.testing.assert_allclose(a.grad, [1.0, 0.0])
    np.testing.assert_allclose(b.grad, [0.0, 1.0])


def test_where_gradcheck():
    cond = RNG.random(8) > 0.5
    assert gradcheck(lambda x, y: ops.where(cond, x, y),
                     [RNG.standard_normal(8), RNG.standard_normal(8)])


# ---------------------------------------------------------------------------
# spmm laziness
# ---------------------------------------------------------------------------
def _random_csr(rows=7, cols=5, seed=0):
    import scipy.sparse as sp

    return sp.random(rows, cols, density=0.5, format="csr",
                     random_state=np.random.default_rng(seed))


def _count_transposes(monkeypatch):
    """Instrument csr_matrix.transpose and return the call log."""
    import scipy.sparse as sp

    calls = []
    original = sp.csr_matrix.transpose

    def counting(self, *args, **kwargs):
        calls.append(1)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(sp.csr_matrix, "transpose", counting)
    return calls


def test_spmm_eval_forward_builds_no_transpose(monkeypatch):
    """Regression: an eval-mode (forward-only) spmm must never construct
    the CSR transpose — it is only needed for the backward pass."""
    matrix = _random_csr()
    calls = _count_transposes(monkeypatch)
    x = RNG.standard_normal((5, 3))
    out = ops.spmm(matrix, Tensor(x))
    np.testing.assert_array_equal(out.data, np.asarray(matrix @ x))
    assert calls == []


def test_spmm_backward_builds_transpose_once(monkeypatch):
    matrix = _random_csr()
    calls = _count_transposes(monkeypatch)
    x = Tensor(RNG.standard_normal((5, 3)), requires_grad=True)
    ops.spmm(matrix, x).sum().backward()
    assert len(calls) == 1
    np.testing.assert_allclose(
        x.grad, (matrix.T @ np.ones((7, 3))), rtol=0, atol=1e-12
    )


def test_gather_cols_forward_and_grad():
    x = RNG.standard_normal((4, 6))
    idx = np.array([5, 0, 2])
    np.testing.assert_array_equal(
        ops.gather_cols(Tensor(x), idx).data, x[:, idx]
    )
    # Slices resolve against the column count; duplicates accumulate.
    np.testing.assert_array_equal(
        ops.gather_cols(Tensor(x), slice(1, 4)).data, x[:, 1:4]
    )
    assert gradcheck(lambda t: ops.gather_cols(t, idx), [x])
    assert gradcheck(
        lambda t: ops.gather_cols(t, np.array([1, 1, 3])), [x]
    )


def test_segment_softmax_array_is_bitwise_twin_of_op():
    ids = np.array([0, 0, 1, 2, 2, 2])
    logits = RNG.standard_normal((6, 2))
    fast = ops.segment_softmax_array(logits, ids, 3)
    ref = ops.segment_softmax(Tensor(logits), ids, 3).data
    np.testing.assert_array_equal(fast, ref)
    # Per-segment normalisation sums to one.
    sums = np.zeros((3, 2))
    np.add.at(sums, ids, fast)
    np.testing.assert_allclose(sums, 1.0)


def test_segment_sum_array_is_bitwise_twin_of_op():
    ids = np.array([2, 0, 2, 1])
    vals = RNG.standard_normal((4, 3))
    fast = ops.segment_sum_array(vals, ids, 4)
    ref = ops.scatter_add_rows(Tensor(vals), ids, 4).data
    np.testing.assert_array_equal(fast, ref)
    assert fast.shape == (4, 3)
    np.testing.assert_array_equal(fast[3], 0.0)
