"""Tape and op-level checks for the autodiff core.

Gradient assertions compare against central finite differences in float64;
structural assertions (shape rules, accumulation) use exact hand
cases.
"""

import weakref

import numpy as np
import pytest

from psn.errors import ContractError, ShapeMismatchError
from psn import tensor
from psn.tensor import (_BAND_MIN_T, _BAND_ROWS, _CHUNK, Tape, Tensor,
                        _column_sum, _product, active_tape, linear, matmul,
                        mean_axis0, mul, no_tape, reshape,
                        split_rows, stack_rows, sum_all, taped_op, tracker)
from psn.neurons import KINDS, ORDER_KINDS, make
from psn.training import loss_ce_mean, loss_tet


def _add(a, b):
    """a + b as one taped op, gradients (g, g): ``a.data + b.data``."""
    return taped_op((a, b), a.data + b.data, lambda gouts: gouts * 2)


def _scale(a, k):
    """a * k as one taped op for a python scalar k: ``a.data * dtype(k)``."""
    k = a.data.dtype.type(k)
    return taped_op((a,), a.data * k, lambda gouts: (gouts[0] * k,))


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


def test_mul_by_zero_annihilates_value_and_gradient():
    x = Tensor(np.array([2.0, -3.0]), requires_grad=True)
    z = Tensor(np.zeros(2))
    with Tape() as tape:
        loss = sum_all(mul(x, z))
        tape.backward(loss)
    np.testing.assert_array_equal(loss.data, 0.0)
    np.testing.assert_array_equal(x.grad, np.zeros(2))


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
        loss = _add(sum_all(rows[0]), sum_all(mul(rows[2], rows[2])))
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
        y = _add(x, x)
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
    np.testing.assert_allclose(_product(a, b, plain=True), a @ b,
                               rtol=rtol, atol=rtol * np.abs(a @ b).max())


@pytest.mark.parametrize("k", [1, 7, _CHUNK])
def test_short_contraction_is_the_plain_product_bit_for_bit(k):
    rng = np.random.default_rng(k)
    a = rng.standard_normal((3, k), dtype=np.float32)
    b = rng.standard_normal((k, 2), dtype=np.float32)
    assert np.array_equal(_product(a, b, plain=True), a @ b)
    assert np.array_equal(_product(b.T, a.T, plain=True), b.T @ a.T)

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


def _assert_band_of_product(ga, g, b, k):
    """ga is g @ b.T on its k lower diagonals, to within the product's
    rounding bound 2 N eps |g| |b|.T of a float64 reference, and exactly +0.0
    (no sign bit) everywhere else."""
    T, N = g.shape
    on = np.tri(T, dtype=bool) & ~np.tri(T, k=-k, dtype=bool)
    g64, b64 = g.astype(np.float64), b.astype(np.float64)
    bound = 2 * N * np.finfo(ga.dtype).eps * (np.abs(g64) @ np.abs(b64).T)
    assert np.all(np.abs(ga - g64 @ b64.T)[on] <= bound[on])
    assert ga[~on].tobytes() == bytes(ga[~on].nbytes)


def _spy(monkeypatch, name):
    """Count the calls to psn.tensor's ``name``; the list grows by one each."""
    calls = []
    real = getattr(tensor, name)
    monkeypatch.setattr(tensor, name,
                        lambda *args: calls.append(1) or real(*args))
    return calls


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("T", [17, 33, 64, 65])
@pytest.mark.parametrize("N", [1, 7, 777, 4096])
def test_banded_matmul_matches_the_dense_product(dtype, T, N, monkeypatch):
    """Output, ga and gb of matmul(band=k) against matmul(band=None).

    From T >= 32 on, the band multiplies fewer zeros in several GEMMs.
    Above a few thousand columns OpenBLAS sums those and the dense call in
    index order, so the bits agree; at small N its gemv and small-matrix
    kernels sum in an order that depends on the shape, so the two agree to
    within the product's rounding bound, 2 T eps |a| |b|. Where 4 k <= T as
    well, ga is only the band, summed by a sliding window in another order
    than the dense product: it is checked against a float64 reference and
    must be +0.0 off the band. Elsewhere ga is the dense product's bytes.
    """
    products = _spy(monkeypatch, "_band_product")
    windows = _spy(monkeypatch, "_band_weight_grad")
    eps = np.finfo(dtype).eps
    for k in sorted({1, 2, 4, 16, 17, T - 1}):
        rng = np.random.default_rng([T, N, k])
        full = rng.standard_normal((T, T)).astype(dtype)
        a0 = np.tril(full) - np.tril(full, -k)
        b0 = rng.standard_normal((T, N)).astype(dtype)
        r0 = rng.standard_normal((T, N)).astype(dtype)
        banded = T >= _BAND_MIN_T and k < T
        sliding = banded and 4 * k <= T
        exact = not banded or N >= 4096
        bound_f = 2 * T * eps * (np.abs(a0) @ np.abs(b0))
        bound_b = 2 * T * eps * (np.abs(a0).T @ np.abs(r0))
        for a_grad, b_grad in ((False, False), (True, False), (False, True),
                               (True, True)):
            products.clear()
            windows.clear()
            got = _banded_run(a0, b0, r0, k, a_grad, b_grad)
            assert len(products) == banded * (1 + b_grad)
            assert len(windows) == sliding * a_grad
            want = _banded_run(a0, b0, r0, None, a_grad, b_grad)
            _assert_same_product(got[0], want[0], exact, bound_f)
            if a_grad and sliding:
                _assert_band_of_product(got[1], r0, b0, k)
            elif a_grad:
                assert got[1].tobytes() == want[1].tobytes()
            if b_grad:
                _assert_same_product(got[2], want[2], exact, bound_b)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("layout", ["fortran", "column-strided"])
def test_banded_weight_gradient_reads_any_layout_of_b(dtype, layout,
                                                      monkeypatch):
    """The sliding window reads ``b`` through its strides, so a Fortran-
    ordered or column-strided ``b`` gives the same band."""
    windows = _spy(monkeypatch, "_band_weight_grad")
    T, N = 64, 777
    for k in (1, 4, 16):
        rng = np.random.default_rng([T, N, k, 1])
        full = rng.standard_normal((T, T)).astype(dtype)
        a0 = np.tril(full) - np.tril(full, -k)
        wide = rng.standard_normal((T, 2 * N)).astype(dtype)
        b0 = (np.asfortranarray(wide[:, :N]) if layout == "fortran"
              else wide[:, ::2])
        r0 = rng.standard_normal((T, N)).astype(dtype)
        windows.clear()
        _, ga, _ = _banded_run(a0, b0, r0, k, True, False)
        assert len(windows) == 1
        _assert_band_of_product(ga, r0, b0, k)


@pytest.mark.parametrize("T, k", [(_BAND_MIN_T // 2, 4), (_BAND_MIN_T - 1, 4),
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


def _same_bits(got, want):
    """Bitwise equality without copying large arrays out as bytes."""
    view = np.dtype(f"u{want.itemsize}")
    return (got.dtype == want.dtype and got.shape == want.shape
            and np.array_equal(got.view(view), want.view(view)))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_column_pieces_keep_the_bits_of_one_call(dtype, monkeypatch):
    """The forward and the gradient of b, where their products run in column
    pieces (the 8-row band blocks, K = 7 + k, and the dense charge at small
    T), against the same products made in one call each. At an even N the
    band blocks also give the dense product's bits; at N=40001 the dense
    float64 call sums the last column in another order than the blocks, so
    there only the one-call bits are checked."""
    for T, k, N in [(T, k, N) for T in (64, 65) for k in (1, 2, 4)
                    for N in (65536, 40001)] + [(2, None, (1 << 20) + 3),
                                                 (4, None, (1 << 20) + 3),
                                                 (11, None, (1 << 20) + 3)]:
        rng = np.random.default_rng([T, N, k or 0])
        a0 = rng.standard_normal((T, T)).astype(dtype)
        if k is not None:
            a0 = np.tril(a0) - np.tril(a0, -k)
        b0 = rng.standard_normal((T, N)).astype(dtype)
        r0 = rng.standard_normal((T, N)).astype(dtype)
        out, _, gb = _banded_run(a0, b0, r0, k, False, True)
        with monkeypatch.context() as m:
            m.setattr(tensor, "_COLS", 1 << 62)
            one_out, _, one_gb = _banded_run(a0, b0, r0, k, False, True)
        assert _same_bits(out, one_out), (T, k, N)
        assert _same_bits(gb, one_gb), (T, k, N)
        if k is None or N % 2 == 0:
            assert _same_bits(out, a0 @ b0), (T, k, N)
            assert _same_bits(gb, a0.T @ r0), (T, k, N)


class _CountingNumpy:
    """numpy for psn.tensor, with each ``np.matmul`` call's output width
    appended to the list of the ``_product`` call that made it."""

    def __init__(self, calls):
        self._calls = calls

    def __getattr__(self, name):
        return getattr(np, name)

    def matmul(self, a, b, out=None):
        self._calls[-1][1].append(b.shape[1])
        return np.matmul(a, b, out=out)


@pytest.mark.parametrize("T, k, N, splits", [
    (2, None, (1 << 20) + 3, True), (11, None, 1 << 17, True),
    (64, 4, 65536, True), (65, 1, 40001, True),
    (16, 4, 65536, False), (64, None, 65536, False),
    (2, None, 100, False)])
def test_short_contractions_split_into_even_pieces(T, k, N, splits,
                                                   monkeypatch):
    """A product with K <= _PIECE_MAX_K and M N > _COLS makes
    ceil(M N / _COLS) np.matmul calls over near-equal column pieces that
    cover the output, each of at most 100^3 multiply-adds, so under
    OpenBLAS's small-matrix threshold; any other product (longer K, or
    small) makes one call. The forward and the gradient of b each make one
    product, or one per band block."""
    calls = []
    real = tensor._product

    def product(a, b, out=None):
        calls.append((a.shape + b.shape[1:], []))
        return real(a, b, out)

    monkeypatch.setattr(tensor, "_product", product)
    monkeypatch.setattr(tensor, "np", _CountingNumpy(calls))
    rng = np.random.default_rng(T)
    a0 = np.tril(rng.standard_normal((T, T)))
    b0 = rng.standard_normal((T, N))
    _banded_run(a0, b0, b0, k, False, True)
    banded = k is not None and T >= _BAND_MIN_T
    assert len(calls) == 2 * (T // _BAND_ROWS if banded else 1)
    split = False
    for (m, kk, n), widths in calls:
        assert sum(widths) == n
        if kk <= tensor._PIECE_MAX_K and m * n > tensor._COLS:
            split = True
            assert len(widths) == -(-m * n // tensor._COLS)
            assert 2 * min(widths) >= max(widths)
            assert m * kk * max(widths) <= 100 ** 3
        else:
            assert len(widths) == 1
    assert split == splits


def _linear_by_composition(x0, w0, b0, r0):
    """linear's reference in plain numpy: the output and the gradients of
    x, w and b of sum(y * r)."""
    flat = x0.reshape(-1, w0.shape[0])
    g = r0.reshape(-1, w0.shape[1])
    y = (flat @ w0 + b0).reshape(r0.shape)
    return y, (g @ w0.T).reshape(x0.shape), flat.T @ g, g.sum(axis=0)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("x_grad", [True, False])
@pytest.mark.parametrize("x_shape", [(9, 6), (5, 7, 6)])
def test_linear_matches_the_composition_bit_for_bit(dtype, x_grad, x_shape):
    rng = np.random.default_rng([11, len(x_shape)])
    x0 = rng.standard_normal(x_shape).astype(dtype)
    w0 = rng.standard_normal((6, 4)).astype(dtype)
    b0 = rng.standard_normal(4).astype(dtype)
    r0 = rng.standard_normal(x_shape[:-1] + (4,)).astype(dtype)
    x = Tensor(x0, requires_grad=x_grad)
    w = Tensor(w0, requires_grad=True)
    b = Tensor(b0, requires_grad=True)
    with Tape() as tape:
        y = linear(x, w, b)
        tape.backward(sum_all(mul(y, Tensor(r0))))
    y_ref, gx, gw, gb = _linear_by_composition(x0, w0, b0, r0)
    assert y.data.shape == y_ref.shape and y.data.dtype == dtype
    assert y.data.tobytes() == y_ref.tobytes()
    assert w.grad.tobytes() == gw.tobytes()
    assert b.grad.tobytes() == gb.tobytes()
    if x_grad:
        assert x.grad.shape == x_shape
        assert x.grad.tobytes() == gx.tobytes()
    else:
        assert x.grad is None


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
    # a broadcast along the leading axis would read it as per row.
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


@pytest.mark.parametrize("op,f", [
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


def test_leading_axis_vector_is_not_broadcast():
    # mul takes equal shapes only: no vector, scalar or other broadcast,
    # along any axis and in either operand.
    h = Tensor(np.zeros((3, 4)))
    for other in ((3,), (4,), (), (1, 4), (4, 3), (3, 4, 1)):
        for a, b in ((h, Tensor(np.zeros(other))),
                     (Tensor(np.zeros(other)), h)):
            with pytest.raises(ShapeMismatchError, match="equal shapes"):
                mul(a, b)


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
            y = _add(x, x)
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


def test_zero_grad_resets_a_zero_d_leaf():
    # A 0-d op's backward can hand back a numpy scalar; a fresh leaf must
    # not take it as .grad, as zero_grad can fill only an ndarray.
    a = Tensor(np.asarray(1.5), requires_grad=True)
    b = Tensor(np.asarray(-2.0), requires_grad=True)
    for loss, leaves in ((lambda: _scale(a, 2.0), (a,)),
                         (lambda: mul(a, b), (a, b))):
        for t in leaves:
            t.grad = None
        with Tape() as tape:
            tape.backward(loss())
        for t in leaves:
            t.zero_grad()
            assert type(t.grad) is np.ndarray and t.grad.shape == ()
            assert t.grad == 0


def test_ops_outside_tape_are_pure_forward():
    x = Tensor(np.ones(2), requires_grad=True)
    y = _add(x, x)  # no active tape
    np.testing.assert_array_equal(y.data, [2.0, 2.0])
    assert x.grad is None


def test_ops_whose_inputs_need_no_grad_record_nothing():
    x = Tensor(np.ones((2, 3)))
    w = Tensor(np.ones((3, 3)))
    with Tape() as tape:
        outs = [_add(x, x), mul(x, x), _scale(x, 2.0),
                matmul(x, w), sum_all(x), stack_rows(split_rows(x))]
        assert len(tape) == 0
        assert not any(o.requires_grad for o in outs)
        y = _add(x, Tensor(np.ones((2, 3)), requires_grad=True))
        assert len(tape) == 1 and y.requires_grad


def test_ops_outside_any_tape_record_nothing():
    x = Tensor(np.ones((2, 3)), requires_grad=True)
    idle = Tape()
    with Tape() as closed:
        pass
    assert active_tape() is None
    y = sum_all(stack_rows(split_rows(mul(x, _scale(x, 2.0)))))
    assert y.requires_grad
    assert len(idle) == 0 and len(closed) == 0


def test_float64_scalars_infer_float64():
    assert Tensor(np.float64(0.5)).data.dtype == np.float64
    assert Tensor(np.array(0.5)).data.dtype == np.float64
    assert Tensor(np.float32(0.5)).data.dtype == np.float32
    # Python numbers and other dtypes take the float32 default.
    assert Tensor(0.5).data.dtype == np.float32
    assert Tensor(np.int64(3)).data.dtype == np.float32
    h = Tensor(np.float64(0.1), requires_grad=True)
    with Tape() as tape:
        tape.backward(sum_all(_scale(h, 3.0)))
    assert h.data == 0.1 and h.grad.dtype == np.float64


# ------------------------------------------------------------ padded outputs

# A float32 charge that _padded pads: 64 rows of 64 KiB, 4 MiB in all.
_PADDED_T, _PADDED_N = 64, 1 << 14


@pytest.mark.parametrize("band", [None, 4])
def test_padded_products_give_the_contiguous_bytes(band, monkeypatch):
    """Above the gate the forward and the gradient of b are 64-byte-aligned
    views with rows a row plus 64 bytes apart, holding the bytes of the
    contiguous products; b keeps its padded gradient as .grad, uncopied."""
    T, N = _PADDED_T, _PADDED_N
    rng = np.random.default_rng([T, N, band or 0])
    a0 = rng.standard_normal((T, T), dtype=np.float32)
    if band is not None:
        a0 = np.tril(a0) - np.tril(a0, -band)
    b0 = rng.standard_normal((T, N), dtype=np.float32)
    r0 = rng.standard_normal((T, N), dtype=np.float32)
    got = _banded_run(a0, b0, r0, band, True, True)
    for arr in (got[0], got[2]):
        assert tensor._owns_base(arr)
        assert arr.ctypes.data % 64 == 0 and arr.strides == (4 * N + 64, 4)
    monkeypatch.setattr(tensor, "_padded", lambda m, n, dtype: None)
    want = _banded_run(a0, b0, r0, band, True, True)
    for g, w in zip(got, want):
        assert w.flags.c_contiguous and _same_bits(g, w)
    if band is None:
        assert _same_bits(got[0], a0 @ b0) and _same_bits(got[2], a0.T @ r0)


def test_small_outputs_are_not_padded():
    """Below the gate (fewer than 32 rows, a row not a multiple of 4 KiB, or
    under 4 MiB) the product is the contiguous single call."""
    for T, N in ((_PADDED_T // 4, 4 * _PADDED_N), (_PADDED_T, _PADDED_N + 8),
                 (_PADDED_T, _PADDED_N // 2)):
        out = matmul(Tensor(np.ones((T, T), dtype=np.float32)),
                     Tensor(np.ones((T, N), dtype=np.float32)))
        assert out.data.flags.c_contiguous, (T, N)


@pytest.mark.parametrize("pad", [0, tensor._PAD])
def test_owns_base_holds_for_an_aligned_view_and_no_view_of_it(pad):
    """An _aligned view owns its buffer; a row, a reshape, a transpose and a
    broadcast of it own nothing, so the tracker does not count them and
    backward copies them."""
    view = tensor._aligned(4, 16, np.float32, pad)
    assert tensor._owns_base(view)
    for other in (view[1], view.reshape(2, 2, 16), view.T,
                  np.broadcast_to(view, (2, 4, 16))):
        assert other.base is view and not tensor._owns_base(other)
    assert not tensor._owns_base(np.empty((4, 16), np.float32))


def test_a_row_of_an_aligned_view_keeps_the_view_alive():
    """A row's base is the view itself, so the view lives as long as the
    row does and cannot be taken for a dropped one."""
    view = tensor._aligned(4, 16, np.float32)
    ref = weakref.ref(view)
    row = view[1]
    del view
    assert ref() is not None and row.base is ref()
    del row
    assert ref() is None


def _padded_copy(arr):
    """arr's values in a view whose leading-axis rows lie 64 bytes more than
    a row apart."""
    rows = arr.reshape(arr.shape[0], -1)
    pad = 64 // arr.itemsize
    view = np.empty((rows.shape[0], rows.shape[1] + pad), arr.dtype)
    view = view[:, :rows.shape[1]]
    view[...] = rows
    return view.reshape(arr.shape)


def _layout_cases():
    """Name -> (input arrays, build(*tensors) -> output tensor): every taped
    op, and every neuron kind with its learnable tensors as inputs."""
    T, N = 40, 2048
    rng = np.random.default_rng(40)

    def arr(*shape):
        return rng.standard_normal(shape, dtype=np.float32)

    banded = np.tril(arr(T, T)) - np.tril(arr(T, T), -4)
    labels = rng.integers(0, 4, size=64)
    cases = {
        "matmul": ((arr(T, T), arr(T, N)), matmul),
        "matmul-banded": ((banded, arr(T, N)),
                          lambda a, b: matmul(a, b, band=4)),
        "linear": ((arr(T, 64, 32), arr(32, 16), arr(16)), linear),
        "mul": ((arr(T, N), arr(T, N)), mul),
        "reshape": ((arr(T, N),), lambda a: reshape(a, (T, 64, 32))),
        "sum_all": ((arr(T, N),), sum_all),
        "mean_axis0": ((arr(T, N),), mean_axis0),
        "split-stack": ((arr(T, N),), lambda a: stack_rows(split_rows(a))),
        "ce_mean": ((arr(T, 64, 4),), lambda o: loss_ce_mean(o, labels)),
        "tet": ((arr(T, 64, 4),), lambda o: loss_tet(o, labels)),
    }
    for kind in KINDS:
        opts = {"order": 4} if kind in ORDER_KINDS else {}
        p = make(kind, T, np.random.default_rng(41), opts)

        def build(x, *params, p=p):
            for name, t in zip(p.names, params):
                setattr(p, name, t)
            return p.forward(x).s

        cases[kind] = ((arr(T, N), *(getattr(p, n).data for n in p.names)),
                       build)
    return cases


def _layout_run(build, arrays):
    """Output and input gradients of sum(build(*inputs) * r), r seeded."""
    tensors = [Tensor(a, requires_grad=True) for a in arrays]
    with Tape() as tape:
        out = build(*tensors)
        r = np.random.default_rng(out.data.size).standard_normal(
            out.data.shape).astype(out.data.dtype)
        tape.backward(sum_all(mul(out, Tensor(r))))
    return [out.data] + [t.grad for t in tensors]


def test_padded_view_inputs_keep_every_ops_bits():
    """Every taped op and all seven neuron kinds give the same bytes, output
    and every gradient, when one of their inputs of two or more axes is a
    view with padded rows, as _padded hands out."""
    cases = _layout_cases()
    assert set(KINDS) <= set(cases) and len(KINDS) == 7
    for name, (arrays, build) in cases.items():
        want = _layout_run(build, arrays)
        for i, a in enumerate(arrays):
            if a.ndim < 2:
                continue
            swapped = list(arrays)
            swapped[i] = _padded_copy(a)
            got = _layout_run(build, swapped)
            for g, w in zip(got, want):
                assert g.tobytes() == w.tobytes(), (name, i)


def test_tracker_counts_a_padded_output_by_its_base_buffer():
    T, N = _PADDED_T, _PADDED_N
    w = Tensor(np.ones((T, T), dtype=np.float32))
    x = Tensor(np.ones((T, N), dtype=np.float32), requires_grad=True)
    base_bytes = T * (4 * N + 64)
    tracker.start()
    try:
        out = matmul(w, x)
        assert tensor._owns_base(out.data) and out.data.nbytes < base_bytes
        assert tracker.live_bytes == out.data.base.nbytes == base_bytes
        del out
        assert tracker.live_bytes == 0
        # A padded gradient kept as .grad counts by its base buffer too.
        with Tape() as tape:
            loss = sum_all(matmul(w, x))
            before = tracker.live_bytes
            tape.backward(loss)
        assert tensor._owns_base(x.grad)
        assert tracker.live_bytes - before == base_bytes
    finally:
        tracker.stop()
