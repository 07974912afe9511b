"""Serial IF/LIF neurons, and their reset-free whole-sequence form.

The serial dynamics are the classic three stages per time step: charge
(IF: H[t] = V[t-1] + X[t]; LIF: H[t] = (1 - 1/tau_m) V[t-1] + X[t]/tau_m,
resting potential 0), fire (Theta against v_th with surrogate gradient),
reset (hard: jump to v_reset; soft: subtract v_th; none: V = H). Initial
potential is 0.

With reset_mode "none" the charge is the fixed linear recurrence
H[t] = decay * H[t-1] + scale * X[t] (IF: (1, 1); LIF: (1 - 1/tau_m,
1/tau_m)), and ``parallel_no_reset`` records the whole charge history as one
taped op plus one firing op instead of a taped op per step. Any reset makes
the recurrence nonlinear in the spikes, so asking for a parallel reset path
is a contract error by design, not a missing feature.

``detach_reset`` blocks the gradient through the S[t] that appears inside
the reset equation only; the emitted spike keeps its surrogate gradient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import ContractError
from ..tensor import Tensor, add, scalar_affine, split_rows, stack_rows, taped_op
from .surrogate import heaviside_surrogate
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


def _recurrence(x, decay, scale, reverse=False):
    """h[t] = decay * h[t-1] + scale * x[t] along axis 0, from h[-1] = 0.

    ``reverse`` runs the same recurrence from the last step back, which is
    its transpose: d(loss)/dx[i] = scale * sum_{t>=i} decay^(t-i) g[t].
    One output buffer, updated in place row by row.
    """
    h = np.multiply(x, x.dtype.type(scale), order="C")
    rows = h.reshape(h.shape[0], -1)
    if reverse:
        rows = rows[::-1]
    decay = h.dtype.type(decay)
    carry = np.empty_like(rows[0])
    for t in range(1, rows.shape[0]):
        np.multiply(rows[t - 1], decay, out=carry)
        np.add(rows[t], carry, out=rows[t])
    return h


def parallel_no_reset(x, p, *, relaxed=False):
    """Whole-sequence charge as one taped recurrence op, then one firing op.

    Requires reset_mode "none": resetting couples H[t] to the spike history
    nonlinearly, so the charge is no longer a fixed linear recurrence.
    """
    if p.reset_mode != "none":
        raise ContractError(
            "reset is not parallelizable: the whole-sequence form only "
            "exists for reset_mode='none'")
    if x.data.ndim == 0 or x.data.shape[0] == 0:
        raise ContractError("parallel_no_reset needs a non-empty time axis")
    if p.kind == "if":
        decay, scale = 1.0, 1.0
    else:
        decay, scale = 1.0 - 1.0 / p.tau_m, 1.0 / p.tau_m

    def backward(gouts):
        return (_recurrence(gouts[0], decay, scale, reverse=True),)

    h = taped_op((x,), _recurrence(x.data, decay, scale), backward)
    s = heaviside_surrogate(h, p.v_th, relaxed=relaxed)
    return SpikeTrace(s, h=h)
