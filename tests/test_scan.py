"""The reset-free charge kernel of ``parallel_no_reset`` against serial oracles.

``_recurrence`` computes h[t] = decay * h[t-1] + scale * x[t]; IF is the
(1, 1) case (a prefix sum) and LIF the (1 - 1/tau_m, 1/tau_m) case.
"""

import numpy as np
import pytest

from psn.neurons import VanillaNeuronParams, parallel_no_reset
from psn.neurons.vanilla import _recurrence
from psn.tensor import Tape, Tensor, mul, sum_all


def _serial_recurrence(x, decay, scale):
    """float64 oracle for h[t] = decay * h[t-1] + scale * x[t]."""
    x = np.asarray(x, dtype=np.float64)
    out = np.zeros_like(x)
    v = np.zeros_like(x[0])
    for t in range(x.shape[0]):
        v = decay * v + scale * x[t]
        out[t] = v
    return out


def _prefix_sum(x):
    return _recurrence(np.asarray(x, dtype=np.float64), 1.0, 1.0)


def test_prefix_sum_ones():
    np.testing.assert_array_equal(_prefix_sum([1.0, 1.0, 1.0]),
                                  [1.0, 2.0, 3.0])


def test_prefix_sum_impulse():
    np.testing.assert_array_equal(_prefix_sum([5.0, 0.0, 0.0, 0.0]),
                                  [5.0, 5.0, 5.0, 5.0])


def test_prefix_sum_matches_cumsum_t64():
    rng = np.random.default_rng(10)
    x = rng.standard_normal((64, 7)).astype(np.float32)
    h = _recurrence(x, 1.0, 1.0)
    np.testing.assert_allclose(h, np.cumsum(x, axis=0), atol=1e-5)


def test_linrec_halving_impulse():
    # tau = 2: decay 0.5, input scale 0.5.
    p = VanillaNeuronParams(kind="lif", tau_m=2.0, reset_mode="none")
    h = parallel_no_reset(Tensor(np.array([[1.0], [0.0], [0.0]])), p).h
    np.testing.assert_allclose(h.data[:, 0], [0.5, 0.25, 0.125], rtol=1e-12)


def test_linrec_unit_coefficients_reduce_to_prefix_sum():
    # The IF charge is the unit-coefficient recurrence: a running sum.
    rng = np.random.default_rng(11)
    x = rng.standard_normal((17, 3))
    p = VanillaNeuronParams(kind="if", reset_mode="none")
    h = parallel_no_reset(Tensor(x), p).h.data
    np.testing.assert_allclose(h, np.cumsum(x, axis=0), atol=1e-12)


def test_linrec_matches_serial_oracle_t64():
    rng = np.random.default_rng(12)
    x = rng.standard_normal((64, 5)).astype(np.float32)
    h = _recurrence(x, 0.5, 0.5)
    np.testing.assert_allclose(h, _serial_recurrence(x, 0.5, 0.5), atol=1e-5)


@pytest.mark.parametrize("decay,scale", [(0.1, 0.9), (0.5, 0.5), (0.9, 1.0),
                                         (1.0, 0.25)])
@pytest.mark.parametrize("T", [1, 2, 3, 7, 16, 33, 64])
def test_linrec_coefficient_sweep(decay, scale, T):
    rng = np.random.default_rng([13, T])
    x = rng.standard_normal((T, 4)).astype(np.float32)
    h = _recurrence(x, decay, scale)
    assert h.dtype == np.float32
    np.testing.assert_allclose(h, _serial_recurrence(x, decay, scale),
                               atol=1e-5)


def test_linrec_backward_matches_fd():
    rng = np.random.default_rng(16)
    x0 = rng.standard_normal((9, 3))
    proj = rng.standard_normal((9, 3))
    # LIF at tau_m 2.5 is decay 0.6, scale 0.4; IF is decay 1, scale 1.
    for kind, decay, scale in (("lif", 0.6, 0.4), ("if", 1.0, 1.0)):
        p = VanillaNeuronParams(kind=kind, tau_m=2.5, reset_mode="none")
        x = Tensor(x0.copy(), requires_grad=True)
        with Tape() as tape:
            h = parallel_no_reset(x, p).h
            tape.backward(sum_all(mul(h, Tensor(proj))))

        eps = 1e-6
        fd = np.zeros_like(x0)
        for i in np.ndindex(*x0.shape):
            xp = x0.copy()
            xp[i] += eps
            xm = x0.copy()
            xm[i] -= eps
            fp = (_serial_recurrence(xp, decay, scale) * proj).sum()
            fm = (_serial_recurrence(xm, decay, scale) * proj).sum()
            fd[i] = (fp - fm) / (2 * eps)
        np.testing.assert_allclose(x.grad, fd, rtol=1e-6, atol=1e-9)
