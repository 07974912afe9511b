"""Heaviside firing with an arctan surrogate gradient.

Forward is the exact step function with the tie convention Theta(0) = 1:
spikes fire when the charge reaches the threshold, equality included. The
backward pass swaps in

    sigma(x) = alpha / (2 * (1 + (pi/2 * alpha * x)^2))

evaluated at x = h - threshold. At alpha = 4 (the default everywhere),
sigma(0) = 2. ``smooth_step`` is the primitive of sigma; gradient checks
finite-difference it instead of the discontinuous step, which is the only
honest way to check a surrogate backward.

Thresholds come in three shapes: a python scalar (fixed threshold), a
learnable scalar tensor (sliding PSN), or a learnable per-time-step vector
of length T against (T, ...) charges (PSN / masked PSN). Learnable
thresholds receive the negated, reduced surrogate gradient.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ContractError, ShapeMismatchError
from ..tensor import Tensor, taped_op

DEFAULT_ALPHA = 4.0


@dataclass(frozen=True)
class SurrogateConfig:
    alpha: float = DEFAULT_ALPHA

    def __post_init__(self):
        if not (self.alpha > 0):
            raise ContractError(f"surrogate alpha must be > 0, got {self.alpha}")


def surrogate_grad(x, alpha=DEFAULT_ALPHA):
    """sigma(x) on plain arrays."""
    c = 0.5 * np.pi * alpha
    return alpha / (2.0 * (1.0 + np.square(c * x)))


def smooth_step(x, alpha=DEFAULT_ALPHA):
    """Antiderivative of sigma: arctan(pi/2 * alpha * x) / pi + 1/2."""
    return np.arctan(0.5 * np.pi * alpha * x) / np.pi + 0.5


def _sigma_into(x, alpha, scale=1.0):
    """scale * sigma(x) computed in place; x is consumed.

    ``scale`` multiplies the numerator, which saves a pass when the upstream
    gradient is one broadcast scalar. At 1.0 the result is sigma(x) exactly.
    """
    dtype = x.dtype.type
    c = dtype(0.5 * np.pi * alpha)
    # Squaring huge inputs overflows to inf; sigma then rounds to 0, which
    # is the correct limit, so the overflow is not an error here.
    with np.errstate(over="ignore"):
        np.multiply(x, c, out=x)
        np.multiply(x, x, out=x)
        x += dtype(1.0)
        np.divide(dtype(0.5 * alpha) * dtype(scale), x, out=x)
    return x


def heaviside_surrogate(h, threshold, cfg=None, relaxed=False):
    """Spike tensor Theta(h - threshold), surrogate gradient on the way back.

    ``relaxed`` replaces the step with ``smooth_step`` so the whole forward
    becomes differentiable; verification uses it, training never does.
    """
    alpha = (cfg.alpha if cfg is not None else DEFAULT_ALPHA)
    hd = h.data

    if isinstance(threshold, Tensor):
        th = threshold
        thd = th.data
        if thd.shape == hd.shape:
            mode = "same"
            thb = thd
        elif thd.size == 1:
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

    if relaxed:
        s_data = smooth_step(hd - thb, alpha)
    else:
        s_data = np.greater_equal(hd, thb).astype(hd.dtype)

    def backward(gouts):
        g = gouts[0]
        x = hd - thb
        if g.size and not any(g.strides):
            # One scalar broadcast everywhere, as sum_all hands back.
            dh = _sigma_into(x, alpha, g.flat[0])
        else:
            dh = _sigma_into(x, alpha)
            np.multiply(dh, g, out=dh)
        if th is None or not th.requires_grad:
            return (dh,) if th is None else (dh, None)
        if mode == "scalar":
            dth = np.asarray(-dh.sum(), dtype=thd.dtype).reshape(thd.shape)
        elif mode == "row":
            dth = -dh.reshape(dh.shape[0], -1).sum(axis=1)
        else:
            dth = -dh
        return dh, dth

    inputs = (h,) if th is None else (h, th)
    return taped_op(inputs, s_data, backward)
