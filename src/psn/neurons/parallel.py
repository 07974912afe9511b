"""The PSN family: fully parallel, masked, and sliding variants.

All three drop the recurrence entirely. The plain PSN charges with a dense
learnable T x T matrix, H = W X, and fires against a learnable per-time-step
threshold vector B: one matmul and one elementwise op for the whole
sequence. The masked PSN multiplies W elementwise with a banded causal mask
(blended toward all-ones by a schedule-driven lambda while training warms
up). The sliding PSN shares k weights across time, which makes it
sequence-length-agnostic; its charge can be computed either by building the
banded Toeplitz matrix and multiplying, or by sliding the kernel directly
(conv path, forward only). The fully masked (lambda 1) and the sliding
charge matrices are zero outside their k lower diagonals, so both hand
``matmul`` their band: from T=32 on, the forward and the input gradient run
as a block-banded product that multiplies only that band.

Initialization follows the reference recipe: dense weights from
U(-sqrt(5), sqrt(5)), sliding weights 2^(i-k+1) (newest weight 1, halving
backwards), every threshold at 1.
"""

from __future__ import annotations

import numpy as np

from ..errors import ContractError, ShapeMismatchError
from ..tensor import Tensor, active_tape, matmul, mul, taped_op
from .surrogate import heaviside_surrogate
from .trace import SpikeTrace

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
    def create(cls, num_steps, rng, dtype=np.float32):
        w = rng.uniform(-_INIT_BOUND, _INIT_BOUND,
                        size=(num_steps, num_steps)).astype(dtype)
        b = np.ones(num_steps, dtype=dtype)
        return cls(Tensor(w, requires_grad=True),
                   Tensor(b, requires_grad=True))

    def parameters(self):
        return [self.weight, self.threshold]

    def forward(self, x, cfg=None, relaxed=False):
        return psn_forward(x, self, cfg, relaxed)


class MaskedPSNParams(PSNParams):
    """PSN weights under a k-banded causal mask, blended by lambda.

    ``lam`` is schedule state, not a parameter: 0 means no masking (dense
    PSN), 1 means fully masked (causal, k steps of history). The mask itself
    is fixed by (T, k) and cached.
    """

    def __init__(self, weight, threshold, order_k, lam=1.0):
        super().__init__(weight, threshold)
        T = self.num_steps
        if not 1 <= order_k <= T:
            raise ContractError(f"mask order must satisfy 1 <= k <= {T}, "
                                f"got {order_k}")
        self.order_k = int(order_k)
        self.mask = build_mask(T, self.order_k)
        self.lam = None
        self.set_lambda(lam)

    @classmethod
    def create(cls, num_steps, order_k, rng, dtype=np.float32, lam=1.0):
        base = PSNParams.create(num_steps, rng, dtype)
        return cls(base.weight, base.threshold, order_k, lam)

    def set_lambda(self, lam):
        if not 0.0 <= lam <= 1.0:
            raise ContractError(f"lambda must lie in [0, 1], got {lam}")
        self.lam = float(lam)

    def forward(self, x, cfg=None, relaxed=False):
        return masked_psn_forward(x, self, cfg, relaxed)


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
    def create(cls, order_k, dtype=np.float32):
        if order_k < 1:
            raise ContractError(f"sliding order must be >= 1, got {order_k}")
        i = np.arange(order_k, dtype=np.float64)
        w = np.power(2.0, i - order_k + 1).astype(dtype)
        return cls(Tensor(w, requires_grad=True),
                   Tensor(np.ones((), dtype=dtype), requires_grad=True))

    def parameters(self):
        return [self.kernel, self.threshold]

    def forward(self, x, cfg=None, relaxed=False):
        return spsn_forward(x, self, cfg, relaxed=relaxed)


def _check_charge_input(x, num_steps):
    if x.data.ndim != 2:
        raise ShapeMismatchError(
            f"PSN charge input must be 2-D (time, flattened batch), got "
            f"shape {x.data.shape}")
    if num_steps is not None and x.data.shape[0] != num_steps:
        raise ShapeMismatchError(
            f"input has {x.data.shape[0]} time steps but the layer was built "
            f"for {num_steps}")


def psn_forward(x, p, cfg=None, relaxed=False):
    """H = W X; S = Theta(H - B), B broadcast over the batch axis."""
    _check_charge_input(x, p.num_steps)
    h = matmul(p.weight, x)
    s = heaviside_surrogate(h, p.threshold, cfg, relaxed=relaxed)
    return SpikeTrace(s, h=h)


def build_mask(num_steps, order_k):
    """Binary band: row i has ones at columns max(0, i-k+1)..i."""
    if not 1 <= order_k <= num_steps:
        raise ContractError(
            f"mask order must satisfy 1 <= k <= {num_steps}, got {order_k}")
    m = np.tril(np.ones((num_steps, num_steps), dtype=np.float32))
    m -= np.tril(np.ones((num_steps, num_steps), dtype=np.float32), -order_k)
    return Tensor(m)


def blend_mask(mask, lam):
    """lam * mask + (1 - lam) * all-ones; exact at both endpoints."""
    if not 0.0 <= lam <= 1.0:
        raise ContractError(f"lambda must lie in [0, 1], got {lam}")
    d = mask.data
    blended = d * d.dtype.type(lam) + d.dtype.type(1.0 - lam)
    return Tensor(blended)


def masked_psn_forward(x, p, cfg=None, relaxed=False):
    """PSN charge under the blended mask; gradient reaches W, never the mask."""
    _check_charge_input(x, p.num_steps)
    if p.lam == 1.0:
        h = matmul(mul(p.weight, p.mask), x, band=p.order_k)
    else:
        h = matmul(mul(p.weight, blend_mask(p.mask, p.lam)), x)
    s = heaviside_surrogate(h, p.threshold, cfg, relaxed=relaxed)
    return SpikeTrace(s, h=h)


def lambda_schedule(epoch, epochs):
    """Progressive masking: min(1, 8 * epoch / (epochs - 1))."""
    if epochs < 2:
        raise ContractError(f"schedule needs epochs >= 2, got {epochs}")
    if not 0 <= epoch < epochs:
        raise ContractError(f"epoch {epoch} outside [0, {epochs})")
    return min(1.0, 8.0 * epoch / (epochs - 1))


def spsn_build_A(p, num_steps):
    """Banded Toeplitz charge matrix: A[i][j] = W[k-1-i+j] for i-k+1 <= j <= i.

    Taped: gradients reach the kernel by summing each band's diagonal.
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


def spsn_forward(x, p, cfg=None, path="matmul", relaxed=False):
    """Sliding charge H[t] = sum_i W[i] x[t-k+1+i], inputs before t=0 zero.

    T comes from ``x``, not the parameters: the same kernel serves any
    sequence length. The conv path slides the kernel directly and is forward
    only; the matmul path builds A and participates in autodiff.
    """
    _check_charge_input(x, None)
    if path == "matmul":
        a = spsn_build_A(p, x.data.shape[0])
        h = matmul(a, x, band=p.order_k)
        s = heaviside_surrogate(h, p.threshold, cfg, relaxed=relaxed)
        return SpikeTrace(s, h=h)
    if path == "conv":
        if active_tape() is not None and any(
                t.requires_grad for t in (x, p.kernel, p.threshold)):
            raise ContractError(
                "the conv path is forward only; use path='matmul' to "
                "record gradients on the active tape")
        xd = x.data
        kd = p.kernel.data
        k = kd.shape[0]
        T = xd.shape[0]
        padded = np.concatenate(
            [np.zeros((k - 1,) + xd.shape[1:], dtype=xd.dtype), xd])
        hd = np.zeros_like(xd)
        for i in range(k):
            hd += kd[i] * padded[i:i + T]
        h = Tensor(hd)
        s = heaviside_surrogate(h, p.threshold.detached(), cfg,
                                relaxed=relaxed)
        return SpikeTrace(s, h=h)
    raise ContractError(f"unknown charge path {path!r}")
