"""Tape and op-level checks for the autodiff core.

Gradient assertions compare against central finite differences in float64;
structural assertions (broadcast locality, accumulation) use exact hand
cases.
"""

import numpy as np
import pytest

from psn.errors import ContractError, ShapeMismatchError
from psn import tensor
from psn.tensor import (_BAND_ROWS, _CHUNK, Tape, Tensor, _chunked_dot,
                        _column_sum, active_tape, add, linear, matmul,
                        mean_axis0, mul, no_tape, reshape, scalar_affine,
                        split_rows, stack_rows, sum_all, taped_op, tracker)
from psn.training import loss_ce_mean, loss_tet


def _fd_grad(f, x0, eps=1e-3):
    """Central differences of scalar f at x0, one coordinate at a time."""
    x0 = np.asarray(x0, dtype=np.float64)
    g = np.zeros_like(x0)
    it = np.nditer(x0, flags=["multi_index"])
    for _ in it:
        i = it.multi_index
        xp = x0.copy()
        xp[i] += eps
        xm = x0.copy()
        xm[i] -= eps
        g[i] = (f(xp) - f(xm)) / (2 * eps)
    return g


# ---------------------------------------------------------------- forward


def test_matmul_identity():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    out = matmul(Tensor(np.eye(2)), Tensor(a))
    np.testing.assert_array_equal(out.data, a)


def test_matmul_hand_case():
    w = Tensor(np.array([[1.0, 0.0], [1.0, 1.0]]))
    x = Tensor(np.array([[5.0], [7.0]]))
    out = matmul(w, x)
    np.testing.assert_array_equal(out.data, [[5.0], [12.0]])


def test_matmul_shape_error_names_both_shapes():
    a = Tensor(np.zeros((2, 3)))
    b = Tensor(np.zeros((4, 5)))
    with pytest.raises(ShapeMismatchError) as err:
        matmul(a, b)
    assert "(2, 3)" in str(err.value) and "(4, 5)" in str(err.value)


def test_matmul_associativity():
    rng = np.random.default_rng(0)
    a, b, c = (Tensor(rng.standard_normal((8, 8))) for _ in range(3))
    left = matmul(matmul(a, b), c).data
    right = matmul(a, matmul(b, c)).data
    np.testing.assert_allclose(left, right, atol=1e-5)


def test_add_elementwise():
    out = add(Tensor(np.array([1.0, 2.0])), Tensor(np.array([3.0, 4.0])))
    np.testing.assert_array_equal(out.data, [4.0, 6.0])


def test_mul_by_zero_annihilates_value_and_gradient():
    x = Tensor(np.array([2.0, -3.0]), requires_grad=True)
    z = Tensor(np.zeros(2))
    with Tape() as tape:
        loss = sum_all(mul(x, z))
        tape.backward(loss)
    np.testing.assert_array_equal(loss.data, 0.0)
    np.testing.assert_array_equal(x.grad, np.zeros(2))


def test_scalar_affine_values():
    out = scalar_affine(Tensor(np.array([2.0])), 0.5, 0.0)
    np.testing.assert_array_equal(out.data, [1.0])
    ident = scalar_affine(Tensor(np.array([7.0, -1.0])), 1.0, 0.0)
    np.testing.assert_array_equal(ident.data, [7.0, -1.0])


def test_reshape_roundtrip():
    x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    with Tape() as tape:
        loss = sum_all(reshape(x, (3, 2)))
        tape.backward(loss)
    np.testing.assert_array_equal(x.grad, np.ones((2, 3)))


def test_split_stack_roundtrip():
    x = Tensor(np.arange(12.0).reshape(3, 4))
    rows = split_rows(x)
    assert len(rows) == 3
    np.testing.assert_array_equal(stack_rows(rows).data, x.data)


def test_split_rows_backward_zeroes_rows_without_a_gradient():
    x = Tensor(np.arange(12.0).reshape(3, 4), requires_grad=True)
    with Tape() as tape:
        rows = split_rows(x)
        loss = add(sum_all(rows[0]), sum_all(mul(rows[2], rows[2])))
        tape.backward(loss)
    want = np.array([[1.0] * 4, [0.0] * 4, 2.0 * x.data[2]])
    np.testing.assert_array_equal(x.grad, want)
    assert not np.signbit(x.grad[1]).any()


def test_mean_axis0_value():
    x = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]))
    np.testing.assert_array_equal(mean_axis0(x).data, [2.0, 3.0])


# --------------------------------------------------------------- backward


def test_backward_of_sum_is_ones():
    x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    with Tape() as tape:
        tape.backward(sum_all(x))
    np.testing.assert_array_equal(x.grad, np.ones((2, 3)))


def test_backward_accumulates_across_calls():
    x = Tensor(np.ones(3), requires_grad=True)
    with Tape() as tape:
        loss = sum_all(x)
        tape.backward(loss)
        tape.backward(loss)
    np.testing.assert_array_equal(x.grad, 2 * np.ones(3))


def test_backward_rejects_non_scalar_loss():
    x = Tensor(np.ones(3), requires_grad=True)
    with Tape() as tape:
        y = add(x, x)
        with pytest.raises(ContractError):
            tape.backward(y)


def test_matmul_grad_structure_and_fd():
    rng = np.random.default_rng(1)
    w0 = rng.standard_normal((3, 4))
    x_const = rng.standard_normal((4, 5))

    w = Tensor(w0.copy(), requires_grad=True)
    with Tape() as tape:
        tape.backward(sum_all(matmul(w, Tensor(x_const))))

    # d/dW sum(W X) = 1 X^T: every row equals the row sums of X.
    np.testing.assert_allclose(w.grad, np.tile(x_const.sum(axis=1), (3, 1)),
                               rtol=1e-12)
    fd = _fd_grad(lambda wv: (wv @ x_const).sum(), w0)
    np.testing.assert_allclose(w.grad, fd, rtol=1e-6, atol=1e-8)


def _long_matmul_grads(dtype, k):
    """(w.grad, x.grad, float64 references) of sum(r * (W X)), X of width k."""
    rng = np.random.default_rng([5, k])
    w0 = rng.standard_normal((2, 3))
    x0 = rng.standard_normal((3, k))
    r0 = rng.standard_normal((2, k))
    w = Tensor(w0.astype(dtype), requires_grad=True)
    x = Tensor(x0.astype(dtype), requires_grad=True)
    with Tape() as tape:
        tape.backward(sum_all(mul(matmul(w, x), Tensor(r0.astype(dtype)))))
    w64, x64, r64 = (a.astype(dtype).astype(np.float64) for a in (w0, x0, r0))
    return w, x, r64 @ x64.T, w64.T @ r64


@pytest.mark.parametrize("dtype, rtol", [(np.float32, 1e-4),
                                         (np.float64, 1e-12)])
def test_long_contraction_is_chunked_and_matches_the_plain_product(dtype,
                                                                   rtol):
    k = 3 * _CHUNK + 5
    w, x, w_ref, x_ref = _long_matmul_grads(dtype, k)
    assert w.grad.dtype == dtype and x.grad.dtype == dtype
    scale = np.abs(w_ref).max()
    np.testing.assert_allclose(w.grad, w_ref, rtol=rtol, atol=rtol * scale)
    np.testing.assert_allclose(x.grad, x_ref, rtol=rtol, atol=rtol)
    rng = np.random.default_rng(6)
    a = rng.standard_normal((2, k)).astype(dtype)
    b = rng.standard_normal((k, 3)).astype(dtype)
    np.testing.assert_allclose(_chunked_dot(a, b), a @ b, rtol=rtol,
                               atol=rtol * np.abs(a @ b).max())


@pytest.mark.parametrize("k", [1, 7, _CHUNK])
def test_short_contraction_is_the_plain_product_bit_for_bit(k):
    rng = np.random.default_rng(k)
    a = rng.standard_normal((3, k), dtype=np.float32)
    b = rng.standard_normal((k, 2), dtype=np.float32)
    assert np.array_equal(_chunked_dot(a, b), a @ b)
    assert np.array_equal(_chunked_dot(b.T, a.T), b.T @ a.T)

    w = Tensor(rng.standard_normal((2, 3), dtype=np.float32),
               requires_grad=True)
    x = Tensor(a, requires_grad=True)
    r = rng.standard_normal((2, k), dtype=np.float32)
    with Tape() as tape:
        tape.backward(sum_all(mul(matmul(w, x), Tensor(r))))
    assert np.array_equal(w.grad, r @ a.T)
    assert np.array_equal(x.grad, w.data.T @ r)


def _banded_run(a0, b0, r0, band, a_grad, b_grad):
    """Output and (ga, gb) of sum(matmul(a, b, band) * r) on one tape."""
    a = Tensor(a0, requires_grad=a_grad)
    b = Tensor(b0, requires_grad=b_grad)
    with Tape() as tape:
        out = matmul(a, b, band=band)
        if a_grad or b_grad:
            tape.backward(sum_all(mul(out, Tensor(r0))))
    return out.data, a.grad, b.grad


def _assert_same_product(got, want, exact, bound):
    if exact:
        assert got.tobytes() == want.tobytes()
    else:
        assert np.all(np.abs(got - want) <= bound)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("T", [17, 33, 64, 65])
@pytest.mark.parametrize("N", [1, 7, 777, 4096])
def test_banded_matmul_matches_the_dense_product(dtype, T, N, monkeypatch):
    """Output, ga and gb of matmul(band=k) against matmul(band=None).

    From two row blocks on (T >= 32), the band multiplies fewer zeros in
    several GEMMs. Above a few thousand columns OpenBLAS runs those and the
    dense call through the same kernel, which sums in index order, so the
    bits agree; at small N its gemv and small-matrix kernels sum in an order
    that depends on the shape, so the two agree to within the product's
    rounding bound, 2 T eps |a| |b|. ga is the dense product in both.
    """
    calls = []
    band_product = tensor._band_product
    monkeypatch.setattr(tensor, "_band_product",
                        lambda *args: calls.append(1) or band_product(*args))
    eps = np.finfo(dtype).eps
    for k in sorted({1, 2, 4, 16, 17, T - 1}):
        rng = np.random.default_rng([T, N, k])
        full = rng.standard_normal((T, T)).astype(dtype)
        a0 = np.tril(full) - np.tril(full, -k)
        b0 = rng.standard_normal((T, N)).astype(dtype)
        r0 = rng.standard_normal((T, N)).astype(dtype)
        banded = T >= 2 * _BAND_ROWS and k < T
        exact = not banded or N >= 4096
        bound_f = 2 * T * eps * (np.abs(a0) @ np.abs(b0))
        bound_b = 2 * T * eps * (np.abs(a0).T @ np.abs(r0))
        for a_grad, b_grad in ((False, False), (True, False), (False, True),
                               (True, True)):
            calls.clear()
            got = _banded_run(a0, b0, r0, k, a_grad, b_grad)
            assert len(calls) == banded * (1 + b_grad)
            want = _banded_run(a0, b0, r0, None, a_grad, b_grad)
            _assert_same_product(got[0], want[0], exact, bound_f)
            if a_grad:
                assert got[1].tobytes() == want[1].tobytes()
            if b_grad:
                _assert_same_product(got[2], want[2], exact, bound_b)


@pytest.mark.parametrize("T, k", [(_BAND_ROWS, 4), (2 * _BAND_ROWS - 1, 4),
                                  (40, 40), (40, 41)])
def test_short_or_full_bands_are_one_dense_call(T, k, monkeypatch):
    monkeypatch.setattr(tensor, "_band_product", None)  # a call would raise
    rng = np.random.default_rng(T)
    a = Tensor(np.tril(rng.standard_normal((T, T))), requires_grad=True)
    b = Tensor(rng.standard_normal((T, 3)), requires_grad=True)
    with Tape() as tape:
        out = matmul(a, b, band=k)
        tape.backward(sum_all(out))
    assert out.data.tobytes() == (a.data @ b.data).tobytes()
    ones = np.ones((T, 3))
    assert b.grad.tobytes() == (a.data.T @ ones).tobytes()


def _linear_by_composition(x, w, b):
    """linear's reference: reshape, matmul, add, reshape, as four ops."""
    lead = x.data.shape[:-1]
    flat = reshape(x, (-1, w.data.shape[0]))
    y = add(matmul(flat, w), b)
    return reshape(y, lead + (w.data.shape[1],))


def _linear_run(op, x0, w0, b0, r0, x_grad):
    x = Tensor(x0, requires_grad=x_grad)
    w = Tensor(w0, requires_grad=True)
    b = Tensor(b0, requires_grad=True)
    with Tape() as tape:
        y = op(x, w, b)
        tape.backward(sum_all(mul(y, Tensor(r0))))
    return y, x, w, b


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("x_grad", [True, False])
@pytest.mark.parametrize("x_shape", [(9, 6), (5, 7, 6)])
def test_linear_matches_the_composition_bit_for_bit(dtype, x_grad, x_shape):
    rng = np.random.default_rng([11, len(x_shape)])
    x0 = rng.standard_normal(x_shape).astype(dtype)
    w0 = rng.standard_normal((6, 4)).astype(dtype)
    b0 = rng.standard_normal(4).astype(dtype)
    r0 = rng.standard_normal(x_shape[:-1] + (4,)).astype(dtype)
    y, x, w, b = _linear_run(linear, x0, w0, b0, r0, x_grad)
    y_ref, x_ref, w_ref, b_ref = _linear_run(_linear_by_composition, x0, w0,
                                             b0, r0, x_grad)
    assert y.data.shape == y_ref.data.shape and y.data.dtype == dtype
    assert y.data.tobytes() == y_ref.data.tobytes()
    assert w.grad.tobytes() == w_ref.grad.tobytes()
    assert b.grad.tobytes() == b_ref.grad.tobytes()
    if x_grad:
        assert x.grad.shape == x_shape
        assert x.grad.tobytes() == x_ref.grad.tobytes()
    else:
        assert x.grad is None and x_ref.grad is None


def test_linear_is_one_op_that_owns_its_output():
    rng = np.random.default_rng(12)
    x = Tensor(rng.standard_normal((3, 4, 5)), requires_grad=True)
    w = Tensor(rng.standard_normal((5, 2)), requires_grad=True)
    b = Tensor(rng.standard_normal(2), requires_grad=True)
    with Tape() as tape:
        y = linear(x, w, b)
    assert len(tape) == 1
    assert y.data.shape == (3, 4, 2) and y.data.base is None
    np.testing.assert_allclose(y.data, x.data @ w.data + b.data, rtol=1e-12)


def test_linear_adds_the_bias_per_column_when_rows_equal_columns():
    # With as many rows as output columns the bias is still per column;
    # add's broadcast rule would read it as per row.
    rng = np.random.default_rng(13)
    x0 = rng.standard_normal((4, 3))
    w0 = rng.standard_normal((3, 4))
    b0 = np.arange(4.0)
    y = linear(Tensor(x0), Tensor(w0), Tensor(b0))
    np.testing.assert_array_equal(y.data, x0 @ w0 + b0[None, :])


def test_linear_shape_errors():
    x = Tensor(np.zeros((2, 3)))
    with pytest.raises(ShapeMismatchError):
        linear(x, Tensor(np.zeros((4, 2))), Tensor(np.zeros(2)))
    with pytest.raises(ShapeMismatchError):
        linear(x, Tensor(np.zeros((3, 2))), Tensor(np.zeros(3)))
    with pytest.raises(ShapeMismatchError):
        linear(x, Tensor(np.zeros(3)), Tensor(np.zeros(())))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_column_sum_is_sum_over_rows_bit_for_bit(dtype):
    rng = np.random.default_rng(14)
    for m in (0, 1, 2, 3, 7, 64, 1000, 1024, 4099):
        for n in (1, 2, 3, 4, 5, 16, 17, 32, 100):
            # Mixed magnitudes, so the order of the additions shows.
            g = (rng.standard_normal((m, n))
                 * 10.0 ** rng.uniform(-4, 4, (m, n))).astype(dtype)
            for a in (g, np.asfortranarray(g), g[::2], g[:, ::-1],
                      np.broadcast_to(g[:1], g.shape)):
                got = _column_sum(a)
                assert got.dtype == dtype and got.shape == (n,)
                assert got.tobytes() == a.sum(axis=0).tobytes(), (m, n)


def _op_returning(inputs, backward):
    """A taped scalar op (the sum of its first input) with a given backward."""
    return taped_op(inputs, np.asarray(inputs[0].data.sum()), backward)


def test_fresh_leaf_adopts_an_owned_contribution():
    x = Tensor(np.zeros(3, dtype=np.float32), requires_grad=True)
    given = []

    def backward(gouts):
        c = np.arange(1.0, 4.0, dtype=np.float32)
        given.append(c)
        return (c,)

    with Tape() as tape:
        loss = _op_returning((x,), backward)
        tape.backward(loss)
        assert x.grad is given[0]
        tape.backward(loss)
    # The second call adds into the adopted array; it does not re-adopt.
    assert x.grad is given[0]
    np.testing.assert_array_equal(x.grad, [2.0, 4.0, 6.0])


def test_adopted_gradient_is_still_tracked():
    x = Tensor(np.zeros(1024, dtype=np.float32), requires_grad=True)
    tracker.start()
    try:
        with Tape() as tape:
            loss = _op_returning(
                (x,), lambda gouts: (np.ones(1024, dtype=np.float32),))
            before = tracker.live_bytes
            tape.backward(loss)
            assert tracker.live_bytes - before == x.grad.nbytes
        # Only the loss and the gradient were allocated in the window.
        del tape, loss, x
        assert tracker.live_bytes == 0
    finally:
        tracker.stop()


def _assert_copied(grads, contribution):
    for g in grads:
        assert g is not contribution
        assert not np.shares_memory(g, contribution)


def test_shared_contributions_are_copied_into_a_fresh_gradient():
    buf = np.arange(1.0, 7.0, dtype=np.float32)
    # A view of a buffer the op still holds.
    x = Tensor(np.zeros(3, dtype=np.float32), requires_grad=True)
    with Tape() as tape:
        tape.backward(_op_returning((x,), lambda gouts: (buf[:3],)))
    _assert_copied([x.grad], buf)
    np.testing.assert_array_equal(x.grad, [1.0, 2.0, 3.0])

    # The op's own output gradient, handed back unchanged.
    x = Tensor(np.zeros((), dtype=np.float32), requires_grad=True)
    seen = []

    def pass_through(gouts):
        seen.append(gouts[0])
        return gouts

    with Tape() as tape:
        tape.backward(_op_returning((x,), pass_through))
    _assert_copied([x.grad], seen[0])
    assert x.grad == 1.0

    # Another dtype: cast into a gradient of the leaf's own dtype.
    x = Tensor(np.zeros(3, dtype=np.float32), requires_grad=True)
    c64 = np.full(3, 0.5)
    with Tape() as tape:
        tape.backward(_op_returning((x,), lambda gouts: (c64,)))
    assert x.grad.dtype == np.float32
    _assert_copied([x.grad], c64)

    # One array returned for two inputs: each leaf gets its own copy.
    a = Tensor(np.zeros(3, dtype=np.float32), requires_grad=True)
    b = Tensor(np.zeros(3, dtype=np.float32), requires_grad=True)
    twice = np.full(3, 2.0, dtype=np.float32)
    with Tape() as tape:
        tape.backward(_op_returning((a, b), lambda gouts: (twice, twice)))
    _assert_copied([a.grad, b.grad], twice)
    assert not np.shares_memory(a.grad, b.grad)
    a.grad += 1.0
    np.testing.assert_array_equal(b.grad, twice)


def test_scalar_affine_grad_is_uniform_scale():
    x0 = np.array([0.3, -1.2, 2.0])
    x = Tensor(x0.copy(), requires_grad=True)
    with Tape() as tape:
        tape.backward(sum_all(scalar_affine(x, -2.5, 7.0)))
    np.testing.assert_allclose(x.grad, np.full(3, -2.5), rtol=1e-12)


@pytest.mark.parametrize("op,f", [
    (add, lambda a, b: a + b),
    (mul, lambda a, b: a * b),
])
def test_elementwise_grads_match_fd(op, f):
    rng = np.random.default_rng(2)
    a0 = rng.standard_normal((4, 3))
    b0 = rng.standard_normal((4, 3))
    a = Tensor(a0.copy(), requires_grad=True)
    b = Tensor(b0.copy(), requires_grad=True)
    with Tape() as tape:
        tape.backward(sum_all(op(a, b)))
    np.testing.assert_allclose(
        a.grad, _fd_grad(lambda v: f(v, b0).sum(), a0), rtol=1e-5, atol=1e-8)
    np.testing.assert_allclose(
        b.grad, _fd_grad(lambda v: f(a0, v).sum(), b0), rtol=1e-5, atol=1e-8)


def test_row_broadcast_grad_reduces_to_vector():
    # A vector as long as the last axis is added to, or multiplies, every
    # row; its gradient sums over the rows.
    rng = np.random.default_rng(3)
    h0 = rng.standard_normal((3, 5))
    b0 = rng.standard_normal(5)
    proj = rng.standard_normal((3, 5))
    for op, f in ((add, np.add), (mul, np.multiply)):
        b = Tensor(b0.copy(), requires_grad=True)
        with Tape() as tape:
            tape.backward(sum_all(mul(op(Tensor(h0), b), Tensor(proj))))
        fd = _fd_grad(lambda v: (f(h0, v) * proj).sum(), b0)
        np.testing.assert_allclose(b.grad, fd, rtol=1e-6)


def test_leading_axis_vector_is_not_broadcast():
    h = Tensor(np.zeros((3, 4)))
    for op in (add, mul):
        with pytest.raises(ShapeMismatchError, match="trailing axis"):
            op(h, Tensor(np.zeros(3)))


@pytest.mark.parametrize("op,f", [
    (mean_axis0, lambda v: v.mean(axis=0)),
    (lambda t: reshape(t, (6, 2)), lambda v: v.reshape(6, 2)),
    (lambda t: stack_rows(split_rows(t)[::-1]), lambda v: v[::-1]),
], ids=["mean_axis0", "reshape", "stack_rows"])
def test_shape_op_grads_match_fd(op, f):
    rng = np.random.default_rng(4)
    x0 = rng.standard_normal((3, 4))
    proj = rng.standard_normal(f(x0).shape)
    x = Tensor(x0.copy(), requires_grad=True)
    with Tape() as tape:
        tape.backward(sum_all(mul(op(x), Tensor(proj))))
    fd = _fd_grad(lambda v: (f(v) * proj).sum(), x0)
    np.testing.assert_allclose(x.grad, fd, rtol=1e-6, atol=1e-9)


@pytest.mark.parametrize("loss", [loss_ce_mean, loss_tet])
def test_loss_grads_match_fd(loss):
    rng = np.random.default_rng(5)
    x0 = rng.standard_normal((3, 4, 5))
    labels = np.array([4, 0, 2, 2])
    x = Tensor(x0.copy(), requires_grad=True)
    with Tape() as tape:
        tape.backward(loss(x, labels))
    fd = _fd_grad(lambda v: float(loss(Tensor(v), labels).data), x0)
    np.testing.assert_allclose(x.grad, fd, rtol=1e-6, atol=1e-9)


def test_mul_grad_routes_opposite_operand():
    a0 = np.array([1.0, 2.0, 3.0])
    b0 = np.array([-1.0, 0.5, 4.0])
    a = Tensor(a0.copy(), requires_grad=True)
    b = Tensor(b0.copy(), requires_grad=True)
    with Tape() as tape:
        tape.backward(sum_all(mul(a, b)))
    np.testing.assert_array_equal(a.grad, b0)
    np.testing.assert_array_equal(b.grad, a0)


# ------------------------------------------------------------- tape rules


def test_no_tape_blocks_recording():
    x = Tensor(np.ones(2), requires_grad=True)
    with Tape() as tape:
        with no_tape():
            y = add(x, x)
        assert active_tape() is tape
    assert y.data.shape == (2,)
    assert x.grad is None


def test_requires_grad_false_never_accumulates():
    x = Tensor(np.ones(2), requires_grad=False)
    y = Tensor(np.ones(2), requires_grad=True)
    with Tape() as tape:
        tape.backward(sum_all(mul(x, y)))
    assert x.grad is None
    assert y.grad is not None


def test_zero_grad_clears_in_place():
    x = Tensor(np.ones(2), requires_grad=True)
    with Tape() as tape:
        tape.backward(sum_all(x))
    assert x.grad is not None
    x.zero_grad()
    np.testing.assert_array_equal(x.grad, np.zeros(2))


def test_ops_outside_tape_are_pure_forward():
    x = Tensor(np.ones(2), requires_grad=True)
    y = add(x, x)  # no active tape
    np.testing.assert_array_equal(y.data, [2.0, 2.0])
    assert x.grad is None


def test_ops_whose_inputs_need_no_grad_record_nothing():
    x = Tensor(np.ones((2, 3)))
    w = Tensor(np.ones((3, 3)))
    with Tape() as tape:
        outs = [add(x, x), mul(x, x), scalar_affine(x, 2.0, 1.0),
                matmul(x, w), sum_all(x), stack_rows(split_rows(x))]
        assert len(tape) == 0
        assert not any(o.requires_grad for o in outs)
        y = add(x, Tensor(np.ones((2, 3)), requires_grad=True))
        assert len(tape) == 1 and y.requires_grad


def test_ops_outside_any_tape_record_nothing():
    x = Tensor(np.ones((2, 3)), requires_grad=True)
    idle = Tape()
    with Tape() as closed:
        pass
    assert active_tape() is None
    y = sum_all(stack_rows(split_rows(mul(x, scalar_affine(x, 2.0, 0.0)))))
    assert y.requires_grad
    assert len(idle) == 0 and len(closed) == 0


def test_float64_scalars_infer_float64():
    assert Tensor(np.float64(0.5)).data.dtype == np.float64
    assert Tensor(np.array(0.5)).data.dtype == np.float64
    assert Tensor(np.float32(0.5)).data.dtype == np.float32
    # Python numbers and other dtypes take the float32 default.
    assert Tensor(0.5).data.dtype == np.float32
    assert Tensor(np.int64(3)).data.dtype == np.float32
    assert Tensor(np.float64(0.5), dtype=np.float32).data.dtype == np.float32
    h = Tensor(np.float64(0.1), requires_grad=True)
    with Tape() as tape:
        tape.backward(sum_all(scalar_affine(h, 3.0, 0.0)))
    assert h.data == 0.1 and h.grad.dtype == np.float64


def test_detached_shares_data_but_never_grads():
    x = Tensor(np.ones(3), requires_grad=True)
    d = x.detached()
    assert not d.requires_grad
    with Tape() as tape:
        tape.backward(sum_all(mul(d, x)))
    np.testing.assert_array_equal(x.grad, np.ones(3))
