"""Heaviside firing with an arctan surrogate gradient.

Forward is the exact step function with the tie convention Theta(0) = 1:
spikes fire when the charge reaches the threshold, equality included. The
backward pass swaps in

    sigma(x) = alpha / (2 * (1 + (pi/2 * alpha * x)^2))

evaluated at x = h - threshold, with alpha fixed at 4 (``ALPHA``), so
sigma(0) = 2. ``smooth_step`` is the primitive of sigma; gradient checks
finite-difference it instead of the discontinuous step, which is the only
honest way to check a surrogate backward.

Thresholds come in three shapes: a python scalar (fixed threshold), a
learnable scalar tensor (sliding PSN), or a learnable per-time-step vector
of length T against (T, ...) charges (PSN / masked PSN). Learnable
thresholds receive the negated, reduced surrogate gradient.
"""

from __future__ import annotations

import numpy as np

from ..errors import ShapeMismatchError
from ..tensor import Tensor, taped_op

ALPHA = 4.0


def smooth_step(x):
    """Antiderivative of sigma: arctan(pi/2 * alpha * x) / pi + 1/2."""
    return np.arctan(0.5 * np.pi * ALPHA * x) / np.pi + 0.5


def _sigma_into(x, scale=1.0):
    """scale * sigma(x) computed in place; x is consumed.

    ``scale`` multiplies the numerator, which saves a pass when the upstream
    gradient is one broadcast scalar. At 1.0 the result is sigma(x) exactly.
    """
    dtype = x.dtype.type
    c = dtype(0.5 * np.pi * ALPHA)
    # Squaring huge inputs overflows to inf; sigma then rounds to 0, which
    # is the correct limit, so the overflow is not an error here.
    with np.errstate(over="ignore"):
        np.multiply(x, c, out=x)
        np.multiply(x, x, out=x)
        x += dtype(1.0)
        np.divide(dtype(0.5 * ALPHA) * dtype(scale), x, out=x)
    return x


def _sigma_times(x, g):
    """sigma(x) * g computed in place; x is consumed. A ``g`` that is one
    scalar broadcast everywhere, as sum_all hands back, scales sigma's
    numerator instead of taking a pass of its own."""
    if g.size and not any(g.strides):
        return _sigma_into(x, g.flat[0])
    return np.multiply(_sigma_into(x), g, out=x)


def heaviside_surrogate(h, threshold, *, relaxed=False):
    """Spike tensor Theta(h - threshold), surrogate gradient on the way back.

    ``relaxed`` replaces the step with ``smooth_step`` so the whole forward
    becomes differentiable; verification uses it, training never does.
    """
    hd = h.data

    if isinstance(threshold, Tensor):
        th = threshold
        thd = th.data
        if thd.size == 1:
            mode = "scalar"
            thb = thd.reshape(())
        elif thd.ndim == 1 and hd.ndim >= 2 and thd.shape[0] == hd.shape[0]:
            mode = "row"
            thb = thd.reshape((thd.shape[0],) + (1,) * (hd.ndim - 1))
        else:
            raise ShapeMismatchError(
                f"threshold shape {thd.shape} does not broadcast against "
                f"charge shape {hd.shape}")
    else:
        th = None
        mode = "const"
        thb = hd.dtype.type(threshold)

    # asarray: on a 0-d charge both forms give a numpy scalar.
    if relaxed:
        s_data = np.asarray(smooth_step(hd - thb))
    else:
        s_data = np.asarray(np.greater_equal(hd, thb).astype(hd.dtype))

    def backward(gouts):
        g = gouts[0]
        # asarray: on a 0-d charge the difference is a numpy scalar, which
        # _sigma_into could not write into.
        dh = _sigma_times(np.asarray(hd - thb), g)
        if th is None or not th.requires_grad:
            return (dh,) if th is None else (dh, None)
        if mode == "scalar":
            dth = np.asarray(-dh.sum(), dtype=thd.dtype).reshape(thd.shape)
        else:
            dth = -dh.reshape(dh.shape[0], -1).sum(axis=1)
        return dh, dth

    inputs = (h,) if th is None else (h, th)
    return taped_op(inputs, s_data, backward)
