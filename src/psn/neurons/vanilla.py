"""Serial IF/LIF neurons, and their reset-free whole-sequence form.

The serial dynamics are the classic three stages per time step: charge
(IF: H[t] = V[t-1] + X[t]; LIF: H[t] = (1 - 1/tau_m) V[t-1] + X[t]/tau_m,
resting potential 0), fire (Theta against v_th with surrogate gradient),
reset (hard: jump to v_reset; none: V = H). Initial potential is 0. The
constants are fixed: tau_m 2, v_th 1 and v_reset +0.0. ``vanilla_sequence``
runs them in one of two ways with the same bits: a call that a tape records
takes a taped op per stage and step, and any other call (inference, an
evaluation, a finite difference) one in-place loop over column blocks.

With reset_mode "none" the charge is the fixed linear recurrence
H[t] = decay * H[t-1] + scale * X[t] (IF: (1, 1); LIF: (1 - 1/tau_m,
1/tau_m)), and ``parallel_no_reset`` charges and fires the whole sequence
as one taped op with a hand-written backward, walking row blocks that stay
in cache, instead of a taped op per step. The hard reset makes the
recurrence nonlinear in the spikes, so asking for a parallel reset path is
a contract error by design, not a missing feature.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ContractError
from ..tensor import (Tensor, active_tape, add, scale, split_rows, stack_rows,
                      taped_op)
from .surrogate import _sigma_times, heaviside_surrogate, smooth_step
from .trace import SpikeTrace


@dataclass
class VanillaNeuronParams:
    kind: str = "lif"  # "if" | "lif"
    reset_mode: str = "hard"  # "hard" | "none"

    # Constants, not fields: every kind runs at these values.
    tau_m = 2.0
    v_th = 1.0
    v_reset = 0.0
    names = ()  # no learnable tensors

    def __post_init__(self):
        if self.kind not in ("if", "lif"):
            raise ContractError(f"unknown vanilla neuron kind {self.kind!r}")
        if self.reset_mode not in ("hard", "none"):
            raise ContractError(f"unknown reset_mode {self.reset_mode!r}")

    def forward(self, x, *, relaxed=False):
        if self.reset_mode == "none":
            return parallel_no_reset(x, self, relaxed=relaxed)
        return vanilla_sequence(x, self, relaxed=relaxed)


def apply_reset(h, s, p, relaxed=False):
    """Hard reset to v_reset = +0.0 after a spike, one taped op per step.

    The exact reset is a select: any nonzero spike (NaN included) yields
    +0.0, and a zero spike (-0.0 included) passes the charge through bit
    for bit, inf and NaN charges too (``_select_reset``).

    ``relaxed`` keeps the reset in its algebraic form h + s*(v_r - h) so a
    fractional spike value resets fractionally; on binary s it differs from
    the select only by rounding in the s=1 case. The backward below is the
    derivative of the algebraic form either way.
    """
    hd, sd = h.data, s.data
    v_reset = hd.dtype.type(p.v_reset)
    out = hd + sd * (v_reset - hd) if relaxed else _select_reset(hd, sd)

    def backward(gouts):
        g = gouts[0]
        dh = g * (1.0 - sd) if h.requires_grad else None
        ds = g * (v_reset - hd) if s.requires_grad else None
        return dh, ds

    return taped_op((h, s), out, backward)


# The unsigned integer type of each float type's width.
_BITS = {np.dtype(np.float16): np.dtype(np.uint16),
         np.dtype(np.float32): np.dtype(np.uint32),
         np.dtype(np.float64): np.dtype(np.uint64)}


def _select_reset(hd, sd, out=None):
    """Bit-exact np.where(sd, +0.0, hd), without a branch per element.

    +0.0 has no bit set, so on the floats' unsigned integer bits it is
    bits(hd) * (sd == 0); np.where instead branches per element, and
    scattered spikes make that branch mispredict. Without ``out`` the
    result owns its buffer, as np.where's did, so the allocation tracker
    counts it.
    """
    bits = _BITS[hd.dtype]
    out = np.empty_like(hd) if out is None else out
    np.multiply(hd.view(bits), np.equal(sd, 0), out=out.view(bits))
    return out


# Columns per block of the in-place loop, whose carry and T rows of the
# block then stay in cache; 8192-column blocks ran slower at T=2.
_COLS = 1 << 16


def _serial_in_place(xd, p, relaxed):
    """(h, s) arrays of the serial loop, written in place block by block.

    Each step charges into h (the taped loop's operands in its order, from
    +0.0), fires into s and resets into one reused carry row, so every bit
    matches the taped loop's. The last step's reset, which nothing reads,
    is skipped.
    """
    h = np.empty(xd.shape, xd.dtype)
    s = np.empty_like(h)
    rows = h.reshape(len(h), h[0].size)
    x, srows = xd.reshape(rows.shape), s.reshape(rows.shape)
    dtype = xd.dtype.type
    decay, inv, v_th, v_reset = (dtype(1 - 1 / p.tau_m), dtype(1 / p.tau_m),
                                 dtype(p.v_th), dtype(p.v_reset))
    carry = np.empty((2, min(rows.shape[1], _COLS)), xd.dtype)
    last = len(rows) - 1
    for a in range(0, rows.shape[1], _COLS):
        block = slice(a, a + _COLS)
        v, xs = carry[:, :rows[0, block].size]
        v.fill(0)
        steps = zip(x[:, block], rows[:, block], srows[:, block])
        for t, (x_t, h_t, s_t) in enumerate(steps):
            if p.kind == "if":
                np.add(v, x_t, h_t)
            else:
                np.multiply(v, decay, h_t)
                np.add(h_t, np.multiply(x_t, inv, xs), h_t)
            if relaxed:
                s_t[...] = smooth_step(h_t - v_th)
            else:
                np.greater_equal(h_t, v_th, s_t)
            if p.reset_mode == "none" or t == last:
                v = h_t
            elif relaxed:
                np.add(h_t, s_t * (v_reset - h_t), v)
            else:
                _select_reset(h_t, s_t, v)
    return h, s


def vanilla_sequence(x, p, *, relaxed=False):
    """Run the serial loop over the leading time axis of ``x``. A call that
    records (x requires grad, a tape is active) tapes per step a charge (IF:
    an add; LIF: two scales and an add), a fire and, unless reset_mode is
    "none", a reset; any other call runs ``_serial_in_place``."""
    if x.data.ndim == 0 or x.data.shape[0] == 0:
        raise ContractError("vanilla_sequence needs a non-empty time axis")
    if not x.requires_grad or active_tape() is None:
        h, s = _serial_in_place(x.data, p, relaxed)
        return SpikeTrace(Tensor._make(s, False), h=Tensor._make(h, False))
    rows = split_rows(x)
    v = Tensor._make(np.zeros(rows[0].data.shape, x.data.dtype), False)
    inv = 1.0 / p.tau_m
    s_rows = []
    h_rows = []
    for x_t in rows:
        if p.kind == "if":
            h = add(v, x_t)
        else:
            h = add(scale(v, 1.0 - inv), scale(x_t, inv))
        s = heaviside_surrogate(h, p.v_th, relaxed=relaxed)
        v = h if p.reset_mode == "none" else apply_reset(h, s, p, relaxed)
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

    Requires reset_mode "none": the hard reset couples H[t] to the spike
    history nonlinearly, so the charge is no longer a fixed linear
    recurrence.
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
