"""The PSN family: fully parallel, masked, and sliding variants.

All three drop the recurrence entirely: each builds a T x T charge matrix
and hands it to one charge-and-fire function, ``_charge_fire``, which
charges with one product, H = A X, and fires. The plain PSN's A is a dense
learnable W, fired against a learnable per-time-step threshold vector B.
The masked PSN's A is W times a banded causal mask, blended toward all-ones
by a schedule-driven lambda while training warms up; the blend is cached
once per lambda. The sliding PSN shares k weights across time and builds
its banded Toeplitz A from T at call time, which makes it
sequence-length-agnostic. The fully masked (lambda 1) and the sliding
charge matrices are zero outside their k lower diagonals, so both hand
``matmul`` their band: from T=32 on, the forward and the input gradient run
as a block-banded product that multiplies only that band, and for k <= T/4
the charge matrix's gradient is computed on the band alone (zero
elsewhere), as it reaches W only through the mask and the kernel only
through its diagonals. From 32 steps over rows of a multiple of 4 KiB,
4 MiB in all (T=64, N=65536 in float32), the charge H and the input
gradient are padded, non-contiguous views (``psn.tensor._padded``):
their rows lie 64 bytes more than a row apart, and the product takes about
0.7x the time with the same bits.

A call that a tape records runs the ``matmul`` and ``heaviside_surrogate``
ops, and so does any call of at most two column blocks. Any other call
(inference, ``evaluate()``) is never taped and fires each block of H
while it is still in L2: where ``psn.tensor._column_blocks``, the one
rule that cuts short products, cuts the charge (T <= 11) into more than
two blocks of about 2^16 elements, each block is charged by one
``np.matmul`` and fired before the next is charged. The blocks are the
``matmul`` op's own column pieces, so ``h`` and ``s`` are the ops' bits.

Initialization follows the reference recipe: dense weights from
U(-sqrt(5), sqrt(5)), sliding weights 2^(i-k+1) (newest weight 1, halving
backwards), every threshold at 1.
"""

from __future__ import annotations

import numpy as np

from ..errors import ContractError
from ..tensor import (Tensor, _aligned, _column_blocks, active_tape, matmul,
                      mul, taped_op)
from .surrogate import _broadcast_threshold, _fire, heaviside_surrogate
from .trace import SpikeTrace, _check_input

_INIT_BOUND = float(np.sqrt(5.0))


class PSNParams:
    """Dense weights W (T x T) and per-step thresholds B (T,)."""

    names = ("weight", "threshold")

    def __init__(self, weight, threshold):
        if weight.data.ndim != 2 or weight.data.shape[0] != weight.data.shape[1]:
            raise ContractError(
                f"PSN weight must be square, got {weight.data.shape}")
        if threshold.data.shape != (weight.data.shape[0],):
            raise ContractError(
                f"PSN threshold shape {threshold.data.shape} does not match "
                f"weight extent {weight.data.shape[0]}")
        self.weight = weight
        self.threshold = threshold

    @property
    def num_steps(self):
        return self.weight.data.shape[0]

    @classmethod
    def create(cls, num_steps, rng):
        w = rng.uniform(-_INIT_BOUND, _INIT_BOUND,
                        size=(num_steps, num_steps)).astype(np.float32)
        b = np.ones(num_steps, dtype=np.float32)
        return cls(Tensor(w, requires_grad=True),
                   Tensor(b, requires_grad=True))

    def parameters(self):
        return [self.weight, self.threshold]

    def forward(self, x, *, relaxed=False):
        return psn_forward(x, self, relaxed=relaxed)


class MaskedPSNParams(PSNParams):
    """PSN weights under a k-banded causal mask, blended by lambda.

    ``lam`` is schedule state, not a parameter: 0 means no masking (dense
    PSN), 1 means fully masked (causal, k steps of history). The mask is
    fixed by (T, k); it and its blend at the current lambda are cached.
    """

    def __init__(self, weight, threshold, order_k, lam=1.0):
        super().__init__(weight, threshold)
        self.order_k = int(order_k)
        self.mask = build_mask(self.num_steps, self.order_k)
        self.set_lambda(lam)

    @classmethod
    def create(cls, num_steps, order_k, rng):
        base = PSNParams.create(num_steps, rng)
        return cls(base.weight, base.threshold, order_k)

    def set_lambda(self, lam):
        """Blend the mask toward all-ones, lam * mask + (1 - lam), which is
        exact at both endpoints."""
        if not 0.0 <= lam <= 1.0:
            raise ContractError(f"lambda must lie in [0, 1], got {lam}")
        d = self.mask.data
        self.blended = Tensor(d * d.dtype.type(lam) + d.dtype.type(1.0 - lam))
        self.lam = float(lam)

    def forward(self, x, *, relaxed=False):
        return masked_psn_forward(x, self, relaxed=relaxed)


class SlidingPSNParams:
    """k shared weights, oldest first, plus one learnable scalar threshold."""

    names = ("kernel", "threshold")

    def __init__(self, kernel, threshold):
        if kernel.data.ndim != 1 or kernel.data.shape[0] < 1:
            raise ContractError(
                f"sliding kernel must be a non-empty vector, got shape "
                f"{kernel.data.shape}")
        if threshold.data.shape != ():
            raise ContractError(
                f"sliding threshold must be a scalar tensor, got shape "
                f"{threshold.data.shape}")
        self.kernel = kernel
        self.threshold = threshold

    @property
    def order_k(self):
        return self.kernel.data.shape[0]

    @classmethod
    def create(cls, order_k):
        if order_k < 1:
            raise ContractError(f"sliding order must be >= 1, got {order_k}")
        i = np.arange(order_k, dtype=np.float64)
        w = np.power(2.0, i - order_k + 1).astype(np.float32)
        return cls(Tensor(w, requires_grad=True),
                   Tensor(np.ones((), dtype=np.float32), requires_grad=True))

    def parameters(self):
        return [self.kernel, self.threshold]

    def forward(self, x, *, relaxed=False):
        return spsn_forward(x, self, relaxed=relaxed)


def _charge_fire(a, x, threshold, band, relaxed):
    """H = A X and S = Theta(H - threshold): the ``matmul`` and
    ``heaviside_surrogate`` ops, which a tape records if one is active and
    an input requires grad, else the walk over more than two
    ``_column_blocks`` that the module docstring describes."""
    recording = active_tape() is not None and (
        a.requires_grad or x.requires_grad or threshold.requires_grad)
    T, N = x.data.shape
    if recording or len(blocks := _column_blocks(T, T, N)) <= 2:
        h = matmul(a, x, band=band)
        return SpikeTrace(heaviside_surrogate(h, threshold, relaxed=relaxed),
                          h=h)
    ad, xd = a.data, x.data
    thb = _broadcast_threshold(threshold, xd)
    # On a cache line, not on glibc's 16 bytes: at T=2, N=2^21 the walk ran
    # 4-6% faster with h and s aligned, whatever the alignment of x.
    h = _aligned(*xd.shape, np.result_type(ad, xd))
    s = _aligned(*xd.shape, h.dtype)
    for c in blocks:
        np.matmul(ad, xd[:, c], out=h[:, c])
        _fire(h[:, c], thb, relaxed, s[:, c])
    return SpikeTrace(Tensor._make(s, False), h=Tensor._make(h, False))


def psn_forward(x, p, *, relaxed=False):
    """H = W X; S = Theta(H - B), B broadcast over the batch axis."""
    _check_input(x, "psn_forward", p.num_steps)
    return _charge_fire(p.weight, x, p.threshold, None, relaxed)


def build_mask(num_steps, order_k):
    """Binary band: row i has ones at columns max(0, i-k+1)..i."""
    if not 1 <= order_k <= num_steps:
        raise ContractError(
            f"mask order must satisfy 1 <= k <= {num_steps}, got {order_k}")
    m = np.tril(np.ones((num_steps, num_steps), dtype=np.float32))
    m -= np.tril(np.ones((num_steps, num_steps), dtype=np.float32), -order_k)
    return Tensor(m)


def masked_psn_forward(x, p, *, relaxed=False):
    """PSN charge under the blended mask; gradient reaches W, never the mask.

    At lambda 1 the blend is the mask itself, so the product is banded.
    """
    _check_input(x, "masked_psn_forward", p.num_steps)
    band = p.order_k if p.lam == 1.0 else None
    return _charge_fire(mul(p.weight, p.blended), x, p.threshold, band,
                        relaxed)


def lambda_schedule(epoch, epochs):
    """Progressive masking: min(1, 8 * epoch / (epochs - 1))."""
    if epochs < 2:
        raise ContractError(f"schedule needs epochs >= 2, got {epochs}")
    if not 0 <= epoch < epochs:
        raise ContractError(f"epoch {epoch} outside [0, {epochs})")
    return min(1.0, 8.0 * epoch / (epochs - 1))


def spsn_build_A(p, num_steps):
    """Banded Toeplitz charge matrix: A[i][j] = W[k-1-i+j] for i-k+1 <= j <= i.

    Taped: gradients reach the kernel by summing each band's diagonal, so
    the charge product may hand back a gradient that is zero off the band.
    """
    if num_steps < 1:
        raise ContractError(f"need at least one time step, got {num_steps}")
    kd = p.kernel.data
    k = kd.shape[0]
    depth = min(k, num_steps)
    a = np.zeros((num_steps, num_steps), dtype=kd.dtype)
    for d in range(depth):
        idx = np.arange(d, num_steps)
        a[idx, idx - d] = kd[k - 1 - d]

    def backward(gouts):
        g = gouts[0]
        dk = np.zeros_like(kd)
        for d in range(depth):
            dk[k - 1 - d] = np.trace(g, offset=-d)
        return (dk,)

    return taped_op((p.kernel,), a, backward)


def spsn_forward(x, p, *, relaxed=False):
    """Sliding charge H[t] = sum_i W[i] x[t-k+1+i], inputs before t=0 zero.

    T comes from ``x``, not the parameters: the same kernel serves any
    sequence length.
    """
    _check_input(x, "spsn_forward")
    a = spsn_build_A(p, x.data.shape[0])
    return _charge_fire(a, x, p.threshold, p.order_k, relaxed)
