"""Heaviside firing with an arctan surrogate gradient.

Forward is the exact step function with the tie convention Theta(0) = 1:
spikes fire when the charge reaches the threshold, equality included. The
backward pass swaps in

    sigma(x) = alpha / (2 * (1 + (pi/2 * alpha * x)^2))

evaluated at x = h - threshold, with alpha fixed at 4 (``ALPHA``), so
sigma(0) = 2. ``smooth_step`` is the primitive of sigma; gradient checks
finite-difference it instead of the discontinuous step, which is the only
honest way to check a surrogate backward.

A charge is an (N,) row (one step of the taped IF/LIF loop) or a (T, N)
array (the PSN family); any other shape raises ``ShapeMismatchError``.
A threshold is a python scalar (fixed), a () tensor (sliding PSN), or a
(T,) tensor against a (T, N) charge, one value per step (PSN / masked
PSN). A learnable threshold receives the negated surrogate gradient,
summed over everything (a () tensor) or over each row (a (T,) tensor).
"""

from __future__ import annotations

import functools

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
    c, one, half_alpha = _sigma_constants(dtype)
    # Squaring huge inputs overflows to inf; sigma then rounds to 0, which
    # is the correct limit, so the overflow is not an error here.
    with np.errstate(over="ignore"):
        np.multiply(x, c, out=x)
        np.multiply(x, x, out=x)
        x += one
        np.divide(half_alpha * dtype(scale), x, out=x)
    return x


@functools.cache
def _sigma_constants(dtype):
    """pi/2 * alpha, 1 and alpha/2 in the float type ``dtype``."""
    return dtype(0.5 * np.pi * ALPHA), dtype(1.0), dtype(0.5 * ALPHA)


def _sigma_times(x, g):
    """sigma(x) * g computed in place; x is consumed. A ``g`` that is one
    scalar broadcast everywhere, as sum_all hands back, scales sigma's
    numerator instead of taking a pass of its own."""
    if g.size and not any(g.strides):
        return _sigma_into(x, g.flat[0])
    return np.multiply(_sigma_into(x), g, out=x)


def _fire(h, threshold, relaxed, out=None):
    """(h >= threshold) in h's dtype, or smooth_step(h - threshold) if
    relaxed; ``threshold`` broadcasts against ``h``. Assigned into ``out``
    if given, which beat the buffered cast of ``np.greater_equal(h,
    threshold, out)`` on rows of 64 to 65536 float32 elements; else a new
    array, cast after the comparison (README, PSN inference). The relaxed
    spikes take the dtype of h - threshold.
    """
    s = (smooth_step(h - threshold) if relaxed
         else np.greater_equal(h, threshold))
    if out is not None:
        out[...] = s
        return out
    return s if relaxed else s.astype(h.dtype)


def _broadcast_threshold(threshold, hd):
    """``threshold``'s values shaped to broadcast against the (N,) or (T, N)
    charge ``hd``: a python scalar in hd's dtype, a () tensor's 0-d array,
    or a (T,) tensor's values as a (T, 1) column against a (T, N) charge."""
    if hd.ndim not in (1, 2):
        raise ShapeMismatchError(
            f"a charge must be (N,) or (T, N), got shape {hd.shape}")
    if not isinstance(threshold, Tensor):
        return hd.dtype.type(threshold)
    thd = threshold.data
    if thd.ndim == 0:
        return thd
    if hd.ndim == 2 and thd.shape == hd.shape[:1]:
        return thd.reshape(-1, 1)
    raise ShapeMismatchError(
        f"threshold shape {thd.shape} does not broadcast against "
        f"charge shape {hd.shape}")


def heaviside_surrogate(h, threshold, *, relaxed=False):
    """Spike tensor Theta(h - threshold), surrogate gradient on the way back.

    ``relaxed`` replaces the step with ``smooth_step`` so the whole forward
    becomes differentiable; verification uses it, training never does. The
    exact spikes take the charge's dtype, the relaxed ones that of
    h - threshold.
    """
    hd = h.data
    thb = _broadcast_threshold(threshold, hd)
    th = threshold if isinstance(threshold, Tensor) else None
    s_data = _fire(hd, thb, relaxed)

    def backward(gouts):
        dh = _sigma_times(hd - thb, gouts[0])
        if th is None or not th.requires_grad:
            return (dh,) if th is None else (dh, None)
        if th.data.ndim:
            return dh, -dh.sum(axis=1)
        # Added into a 0-d zero, which zero_grad can fill (a numpy scalar it
        # cannot); so a zero sum gives +0.0.
        dth = np.zeros((), th.data.dtype)
        dth += -dh.sum()
        return dh, dth

    inputs = (h,) if th is None else (h, th)
    return taped_op(inputs, s_data, backward)
