"""Firing op: exact step forward, arctan-shaped gradient."""

import numpy as np
import pytest

from psn.errors import ShapeMismatchError
from psn.neurons import heaviside_surrogate, smooth_step
from psn.tensor import Tape, Tensor, mul, sum_all, taped_op


def _sigma(x):
    """sigma(x), read off the taped backward of the firing op at threshold 0."""
    h = Tensor(np.asarray(x, dtype=np.float64), requires_grad=True)
    with Tape() as tape:
        tape.backward(sum_all(heaviside_surrogate(h, 0.0)))
    return h.grad


def test_step_values_with_threshold_one():
    h = Tensor(np.array([0.5, 1.0, 1.5]))
    s = heaviside_surrogate(h, 1.0)
    np.testing.assert_array_equal(s.data, [0.0, 1.0, 1.0])


def test_at_threshold_fires():
    s = heaviside_surrogate(Tensor(np.array([1.0])), 1.0)
    assert s.data[0] == 1.0


def test_outputs_are_binary():
    rng = np.random.default_rng(20)
    h = Tensor(rng.standard_normal((6, 9)))
    s = heaviside_surrogate(h, 0.0)
    assert set(np.unique(s.data)) <= {0.0, 1.0}


def test_sigma_peak_is_alpha_over_two():
    # alpha is fixed at 4.
    assert _sigma(0.0) == pytest.approx(2.0)


def test_sigma_is_even_and_decaying():
    x = np.array([0.5, 1.0, 4.0])
    np.testing.assert_allclose(_sigma(x), _sigma(-x))
    vals = _sigma([0.0, 0.5, 1.0, 4.0])
    assert np.all(np.diff(vals) < 0)


def test_smooth_step_is_antiderivative_of_sigma():
    xs = np.linspace(-2.0, 2.0, 41)
    eps = 1e-5
    fd = (smooth_step(xs + eps) - smooth_step(xs - eps)) / (2 * eps)
    np.testing.assert_allclose(fd, _sigma(xs), rtol=1e-6, atol=1e-9)


def test_smooth_step_limits():
    assert smooth_step(np.array(0.0)) == pytest.approx(0.5)
    assert smooth_step(np.array(1e9)) == pytest.approx(1.0, abs=1e-6)
    assert smooth_step(np.array(-1e9)) == pytest.approx(0.0, abs=1e-6)


def test_backward_at_threshold_equals_peak():
    h = Tensor(np.array([1.0]), requires_grad=True)
    with Tape() as tape:
        tape.backward(sum_all(heaviside_surrogate(h, 1.0)))
    np.testing.assert_allclose(h.grad, [2.0])


def test_backward_matches_fd_of_relaxed_forward():
    rng = np.random.default_rng(21)
    h0 = rng.uniform(-1.5, 1.5, size=(4, 3))
    proj = rng.standard_normal((4, 3))

    h = Tensor(h0.copy(), requires_grad=True)
    with Tape() as tape:
        s = heaviside_surrogate(h, 0.25)
        tape.backward(sum_all(mul(s, Tensor(proj))))

    eps = 1e-6
    fd = np.zeros_like(h0)
    for i in np.ndindex(*h0.shape):
        hp = h0.copy()
        hp[i] += eps
        hm = h0.copy()
        hm[i] -= eps
        fd[i] = ((smooth_step(hp - 0.25) * proj).sum()
                 - ((smooth_step(hm - 0.25) * proj).sum())) / (2 * eps)
    np.testing.assert_allclose(h.grad, fd, rtol=1e-5, atol=1e-9)


def _surrogate_grads(scale, broadcast, dtype):
    """(h.grad, threshold.grad) of scale * sum(spikes); the upstream gradient
    reaches the firing op as one broadcast scalar or as a full array."""
    rng = np.random.default_rng(23)
    h = Tensor(rng.uniform(-2.0, 2.0, size=(5, 64)).astype(dtype),
               requires_grad=True)
    th = Tensor(np.full(5, 0.3, dtype=dtype), requires_grad=True)
    with Tape() as tape:
        s = heaviside_surrogate(h, th)
        shape = s.data.shape

        def backward(gouts):
            k = gouts[0] * dtype(scale)
            if broadcast:
                return (np.broadcast_to(k, shape),)
            return (np.full(shape, k, dtype=dtype),)

        tape.backward(taped_op((s,), np.asarray(s.data.sum()), backward))
    return h.grad, th.grad


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_broadcast_unit_gradient_folds_bit_for_bit(dtype):
    folded = _surrogate_grads(1.0, True, dtype)
    multiplied = _surrogate_grads(1.0, False, dtype)
    for a, b in zip(folded, multiplied):
        assert a.dtype == dtype
        assert np.array_equal(a, b)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_broadcast_scaled_gradient_folds_within_one_ulp(dtype, monkeypatch):
    from psn.neurons import surrogate

    scales = []

    def spy(x, *scale):
        scales.append(scale)
        return sigma_into(x, *scale)

    sigma_into = surrogate._sigma_into
    monkeypatch.setattr(surrogate, "_sigma_into", spy)
    folded_h, _ = _surrogate_grads(0.37, True, dtype)
    multiplied_h, _ = _surrogate_grads(0.37, False, dtype)
    # Only the broadcast gradient is folded into sigma's numerator.
    assert scales == [(dtype(0.37),), ()]
    np.testing.assert_array_max_ulp(folded_h, multiplied_h, maxulp=1)
    assert not np.array_equal(folded_h, np.zeros_like(folded_h))


def test_relaxed_forward_is_smooth_step():
    h = Tensor(np.array([-0.5, 0.0, 0.5]))
    s = heaviside_surrogate(h, 0.0, relaxed=True)
    np.testing.assert_allclose(s.data, smooth_step(h.data))


@pytest.mark.parametrize("relaxed", [False, True])
def test_spike_dtype_under_a_wider_threshold(relaxed):
    # Exact spikes take the charge's dtype; relaxed ones, smooth_step of
    # h - threshold, take the difference's.
    h = Tensor(np.array([-0.5, 0.0, 0.5]), dtype=np.float32)
    th = Tensor(np.zeros((), np.float64))
    s = heaviside_surrogate(h, th, relaxed=relaxed)
    assert s.data.dtype == (np.float64 if relaxed else np.float32)


def test_threshold_tensor_gets_negated_gradient():
    rng = np.random.default_rng(22)
    h0 = rng.standard_normal((3, 4))
    th = Tensor(np.zeros(()), requires_grad=True)
    h = Tensor(h0.copy(), requires_grad=True)
    with Tape() as tape:
        tape.backward(sum_all(heaviside_surrogate(h, th)))
    np.testing.assert_allclose(th.grad, -h.grad.sum(), rtol=1e-12)


def test_per_row_threshold_gradient_reduces_by_row():
    rng = np.random.default_rng(23)
    h0 = rng.standard_normal((3, 4))
    th = Tensor(np.zeros(3), requires_grad=True)
    h = Tensor(h0.copy(), requires_grad=True)
    with Tape() as tape:
        tape.backward(sum_all(heaviside_surrogate(h, th)))
    np.testing.assert_allclose(th.grad, -h.grad.sum(axis=1), rtol=1e-12)


def test_bad_threshold_shape_rejected():
    h = Tensor(np.zeros((3, 4)))
    with pytest.raises(ShapeMismatchError):
        heaviside_surrogate(h, Tensor(np.zeros(7)))


def test_huge_inputs_stay_finite():
    h = Tensor(np.array([1e30, -1e30]), requires_grad=True)
    with Tape() as tape:
        s = heaviside_surrogate(h, 0.0)
        tape.backward(sum_all(s))
    np.testing.assert_array_equal(s.data, [1.0, 0.0])
    assert np.all(np.isfinite(h.grad))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_zero_d_charge_backward(dtype):
    h = Tensor(dtype(0.5), requires_grad=True, dtype=dtype)
    with Tape() as tape:
        s = heaviside_surrogate(h, 1.0)
        tape.backward(sum_all(s))
    assert isinstance(s.data, np.ndarray) and s.data.shape == ()
    assert s.data.dtype == dtype and s.data == 0.0
    assert h.grad.shape == () and h.grad.dtype == dtype
    # sigma(-0.5) at alpha 4: 2 / (1 + (pi/2 * 4 * 0.5)^2).
    assert h.grad == pytest.approx(2.0 / (1.0 + np.pi ** 2), rel=1e-6)
