"""Serial IF/LIF neurons, and their reset-free whole-sequence form.

The serial dynamics are the classic three stages per time step: charge
(IF: H[t] = V[t-1] + X[t]; LIF: H[t] = (1 - 1/tau_m) V[t-1] + X[t]/tau_m,
resting potential 0), fire (Theta against v_th with surrogate gradient),
reset (hard: jump to v_reset; soft: subtract v_th; none: V = H). Initial
potential is 0.

With reset_mode "none" the charge is the fixed linear recurrence
H[t] = decay * H[t-1] + scale * X[t] (IF: (1, 1); LIF: (1 - 1/tau_m,
1/tau_m)), and ``parallel_no_reset`` charges and fires the whole sequence
as one taped op with a hand-written backward, walking row blocks that stay
in cache, instead of a taped op per step. Any reset makes the recurrence
nonlinear in the spikes, so asking for a parallel reset path is a contract
error by design, not a missing feature.

``detach_reset`` blocks the gradient through the S[t] that appears inside
the reset equation only; the emitted spike keeps its surrogate gradient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import ContractError
from ..tensor import Tensor, add, scalar_affine, split_rows, stack_rows, taped_op
from .surrogate import _sigma_times, heaviside_surrogate, smooth_step
from .trace import SpikeTrace


@dataclass
class VanillaNeuronParams:
    kind: str = "lif"  # "if" | "lif"
    tau_m: float = 2.0
    v_th: float = 1.0
    v_reset: float = 0.0
    reset_mode: str = "hard"  # "hard" | "soft" | "none"
    detach_reset: bool = False

    names = ()  # no learnable tensors

    def __post_init__(self):
        if self.kind not in ("if", "lif"):
            raise ContractError(f"unknown vanilla neuron kind {self.kind!r}")
        if self.reset_mode not in ("hard", "soft", "none"):
            raise ContractError(f"unknown reset_mode {self.reset_mode!r}")
        if self.kind == "lif" and not self.tau_m > 1:
            raise ContractError(
                f"LIF needs tau_m > 1, got {self.tau_m}")
        if self.reset_mode == "hard" and not self.v_th > self.v_reset:
            raise ContractError(
                f"hard reset needs v_th > v_reset, got v_th={self.v_th}, "
                f"v_reset={self.v_reset}")

    def forward(self, x, *, relaxed=False):
        if self.reset_mode == "none":
            return parallel_no_reset(x, self, relaxed=relaxed)
        return vanilla_sequence(x, self, relaxed=relaxed)


def charge(x_t, v_prev, p):
    """One charge step, Eq.-for-Eq. the iterative form."""
    if p.kind == "if":
        return add(v_prev, x_t)
    inv = 1.0 / p.tau_m
    return add(scalar_affine(v_prev, 1.0 - inv, 0.0),
               scalar_affine(x_t, inv, 0.0))


def apply_reset(h, s, p, relaxed=False):
    """Post-spike membrane update, fused into one taped op per step.

    The exact hard reset is a select: any nonzero spike (NaN included)
    yields v_reset, and a zero spike (-0.0 included) passes the charge
    through bit for bit, inf and NaN charges too (``_select_reset``).

    ``relaxed`` keeps the hard reset in its algebraic form h + s*(v_r - h)
    so a fractional spike value resets fractionally; on binary s it differs
    from the select only by rounding in the s=1 case. The backward below is
    the derivative of the algebraic form either way.
    """
    if p.reset_mode == "none":
        return h

    hd, sd = h.data, s.data
    detach = p.detach_reset

    if p.reset_mode == "hard":
        v_reset = hd.dtype.type(p.v_reset)
        if relaxed:
            out = hd + sd * (v_reset - hd)
        else:
            out = _select_reset(hd, sd, v_reset)

        def backward(gouts):
            g = gouts[0]
            dh = g * (1.0 - sd) if h.requires_grad else None
            ds = None
            if s.requires_grad and not detach:
                ds = g * (v_reset - hd)
            return dh, ds

    else:  # soft
        v_th = hd.dtype.type(p.v_th)
        out = hd - v_th * sd

        def backward(gouts):
            g = gouts[0]
            dh = g if h.requires_grad else None
            ds = None
            if s.requires_grad and not detach:
                ds = g * (-v_th)
            return dh, ds

    return taped_op((h, s), out, backward)


# The unsigned integer type of each float type's width.
_BITS = {np.dtype(np.float16): np.dtype(np.uint16),
         np.dtype(np.float32): np.dtype(np.uint32),
         np.dtype(np.float64): np.dtype(np.uint64)}


def _select_reset(hd, sd, v_reset):
    """Bit-exact np.where(sd, v_reset, hd), without a branch per element.

    On the floats' unsigned integer bits it is
    ((bits(hd) ^ bits(v_reset)) * keep) ^ bits(v_reset) with keep = (sd == 0);
    np.where instead branches per element, and scattered spikes make that
    branch mispredict. The result owns its buffer, as np.where's did, so the
    allocation tracker counts it.
    """
    bits = _BITS[hd.dtype]
    out = np.empty_like(hd)
    obits = out.view(bits)
    keep = np.equal(sd, 0)
    if v_reset == 0 and math.copysign(1.0, v_reset) > 0:
        # +0.0 has no bit set, so both xors would be copies.
        np.multiply(hd.view(bits), keep, out=obits)
    else:
        vbits = v_reset.view(bits)
        np.bitwise_xor(hd.view(bits), vbits, out=obits)
        np.multiply(obits, keep, out=obits)
        np.bitwise_xor(obits, vbits, out=obits)
    return out


def vanilla_step(x_t, v_prev, p, *, relaxed=False):
    """(spike, new potential, charge) for one time step."""
    h = charge(x_t, v_prev, p)
    s = heaviside_surrogate(h, p.v_th, relaxed=relaxed)
    v = apply_reset(h, s, p, relaxed=relaxed)
    return s, v, h


def vanilla_sequence(x, p, *, relaxed=False):
    """Run the serial loop over the leading time axis of ``x``."""
    rows = split_rows(x)
    v = Tensor(np.zeros(rows[0].data.shape, dtype=x.data.dtype))
    s_rows = []
    h_rows = []
    for x_t in rows:
        s, v, h = vanilla_step(x_t, v, p, relaxed=relaxed)
        s_rows.append(s)
        h_rows.append(h)
    return SpikeTrace(stack_rows(s_rows), h_rows=h_rows)


# Elements per row block of the reset-free op, which scales, carries and
# fires each block (backward: differentiates, scales and carries it) while
# it is in L2: one 256 KiB row at N=65536 float32.
_BLOCK = 1 << 16


def _block_rows(rows):
    """Rows per block of a (T, M) array: all T when one row alone is longer
    than a block or the array is at most two blocks. Blocked, T=2, N=2^21
    (8 MiB rows) and T=16, N=8192 ran slower, T=64, N=4096 faster."""
    step = _BLOCK // max(rows.shape[1], 1)
    return step if step and rows.size > 2 * _BLOCK else len(rows)


def _recurrence(rows, decay, start, stop, carry):
    """rows[t] += decay * rows[t - 1] in place for t in [start, stop), t > 0;
    run on the rows reversed, it is its own transpose.

    Iterating the rows and passing ``out`` by position took the T=16,
    N=2048 loop from 69 to 54 us against indexing and ``out=``.
    """
    start = max(start, 1)
    prev = rows[start - 1]
    for row in rows[start:stop]:
        np.multiply(prev, decay, carry)
        np.add(row, carry, row)
        prev = row


def _charge_fire(x, decay, scale, v_th, relaxed=False):
    """(h, s): h[t] = decay * h[t-1] + scale * x[t] along axis 0 from
    h[-1] = 0, and s = (h >= v_th), or smooth_step(h - v_th) if relaxed."""
    h = np.empty(x.shape, x.dtype)
    rows = h.reshape(len(h), -1)
    step = _block_rows(rows)
    s = np.empty_like(h) if step < len(h) else None
    carry = np.empty_like(rows[0])
    x = x.reshape(rows.shape)

    def fire(block):
        return smooth_step(block - v_th) if relaxed else block >= v_th

    for a in range(0, len(h), step):
        block = rows[a:a + step]
        np.multiply(x[a:a + step], scale, out=block)
        _recurrence(rows, decay, a, a + len(block), carry)
        if s is not None:
            s.reshape(rows.shape)[a:a + step] = fire(block)
    return h, fire(h).astype(h.dtype, copy=False) if s is None else s


def _charge_fire_backward(h, gh, gs, decay, scale, v_th):
    """d(loss)/dx of ``_charge_fire`` from the gradients of h and s, either
    of which may be None. Block by block from the last: sigma(h - v_th) *
    gs + gh, times scale, then the reverse carry; elementwise the surrogate
    backward's and then the recurrence transpose's operations."""
    dx = np.empty(h.shape, h.dtype)
    rows = dx.reshape(len(h), -1)
    h, gh, gs = (None if a is None else a.reshape(rows.shape)
                 for a in (h, gh, gs))
    step = _block_rows(rows)
    carry = np.empty_like(rows[0])
    for a in reversed(range(0, len(h), step)):
        b = a + step
        if gs is None:
            d = gh[a:b]
        else:
            d = _sigma_times(h[a:b] - v_th, gs[a:b])
            if gh is not None:
                np.add(gh[a:b], d, out=d)
        np.multiply(d, scale, out=rows[a:b])
        _recurrence(rows[::-1], decay, len(h) - a - len(d), len(h) - a, carry)
    return dx


def parallel_no_reset(x, p, *, relaxed=False):
    """Whole-sequence charge and fire of a reset-free IF/LIF: one taped op
    whose outputs are the charge h and the spikes s, so ``trace.h`` stays
    differentiable.

    Requires reset_mode "none": resetting couples H[t] to the spike history
    nonlinearly, so the charge is no longer a fixed linear recurrence.
    """
    if p.reset_mode != "none":
        raise ContractError(
            "reset is not parallelizable: the whole-sequence form only "
            "exists for reset_mode='none'")
    if x.data.ndim == 0 or x.data.shape[0] == 0:
        raise ContractError("parallel_no_reset needs a non-empty time axis")
    decay, scale = (1 - 1 / p.tau_m, 1 / p.tau_m) if p.kind == "lif" else (1, 1)
    dtype = x.data.dtype.type
    consts = dtype(decay), dtype(scale), dtype(p.v_th)
    hd, sd = _charge_fire(x.data, *consts, relaxed)

    def backward(gouts):
        return (_charge_fire_backward(hd, *gouts, *consts),)

    h, s = taped_op((x,), (hd, sd), backward)
    return SpikeTrace(s, h=h)
