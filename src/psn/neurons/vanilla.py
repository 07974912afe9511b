"""IF/LIF neurons: the hard-reset loop, and the reset-free whole sequence.

The dynamics are the classic three stages per time step: charge (IF:
H[t] = V[t-1] + X[t]; LIF: H[t] = (1 - 1/tau_m) V[t-1] + X[t]/tau_m,
resting potential 0), fire (Theta against v_th with surrogate gradient) and
reset (hard: jump to v_reset; none: V = H), from a potential of 0, with
tau_m 2, v_th 1 and v_reset +0.0 fixed. Both reset modes run one array
loop over one (T, N) block walk, of about ``psn.tensor._COLS`` elements a
block, the column block of short products. ``vanilla_sequence`` runs the
hard reset: a call that a tape records takes one taped op per stage and
step (one charge, one fire, one reset), and any other call the array
loop, with the same bits, in five numpy calls a row for LIF and four for
IF, firing into a reused block of bools.
``parallel_no_reset`` runs the reset-free mode, a fixed linear recurrence,
as one taped op around the array loop, whose backward walks the blocks in
reverse. The hard reset makes the recurrence nonlinear in the spikes, so
each refuses the other's mode.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ContractError
from ..tensor import (_COLS, Tensor, active_tape, split_rows, stack_rows,
                      taped_op)
from .surrogate import _fire, _sigma_times, heaviside_surrogate
from .trace import SpikeTrace, _check_input


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
    out = hd + sd * (v_reset - hd) if relaxed else _select_reset(hd, sd == 0)

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


def _select_reset(hd, keep):
    """Bit-exact np.where(keep, hd, +0.0), without a branch per element.

    +0.0 has no bit set, so on the floats' unsigned integer bits it is
    bits(hd) * keep, as ``_array_loop`` resets too; np.where instead
    branches per element, and scattered spikes make that branch mispredict.
    The result owns its buffer, as np.where's did, so the allocation
    tracker counts it.
    """
    bits = _BITS[hd.dtype]
    out = np.empty_like(hd)
    np.multiply(hd.view(bits), keep, out=out.view(bits))
    return out


def vanilla_sequence(x, p, *, relaxed=False):
    """Run the hard-reset loop over the T rows of the (T, N) input ``x``. A
    call that records (x requires grad, a tape is active) tapes one charge
    (``_charge``), one fire and one reset per step between a split and a
    stack, 3T + 2 ops for IF and LIF alike; any other call runs
    ``_array_loop``."""
    _check_input(x, "vanilla_sequence")
    if p.reset_mode != "hard":
        raise ContractError("vanilla_sequence runs the hard reset only; the "
                            "reset-free kinds run parallel_no_reset")
    if not x.requires_grad or active_tape() is None:
        h, s = _array_loop(x.data, p, relaxed)
        return SpikeTrace(Tensor._make(s, False), h=Tensor._make(h, False))
    rows = split_rows(x)
    v = Tensor._make(np.zeros(rows[0].data.shape, x.data.dtype), False)
    decay, k, v_th = _constants(p, x.data.dtype.type)
    s_rows, h_rows = [], []
    for x_t in rows:
        h = _charge(v, x_t, decay, k)
        s = heaviside_surrogate(h, v_th, relaxed=relaxed)
        v = apply_reset(h, s, p, relaxed)
        s_rows.append(s)
        h_rows.append(h)
    return SpikeTrace(stack_rows(s_rows), h_rows=h_rows)


def _charge(v, x_t, decay, k):
    """h = decay * v + k * x_t as one taped op: the product v * decay plus
    the product x_t * k, in that operand order; for IF (k = 1) v + x_t,
    with gradients (g, g)."""
    if k == 1:
        out = v.data + x_t.data
    else:
        out = v.data * decay
        out += x_t.data * k

    def backward(gouts):
        g = gouts[0]
        if k == 1:
            return g, g
        return g * decay if v.requires_grad else None, g * k

    return taped_op((v, x_t), out, backward)


def _blocks(T, N):
    """(rows, columns) slices over a (T, N) array: column blocks of at most
    ``psn.tensor._COLS`` columns, each cut in order into rows enough for
    about ``_COLS`` elements, so a block is charged, fired and carried (or
    differentiated) while it is in L2. An array of at most two blocks is one
    block; blocked, T=16, N=8192 ran slower."""
    if T * N <= 2 * _COLS:
        return [(slice(0, T), slice(0, N))]
    cols = min(N, _COLS)
    step = _COLS // cols
    return [(slice(a, min(a + step, T)), slice(c, min(c + cols, N)))
            for c in range(0, N, cols) for a in range(0, T, step)]


def _constants(p, dtype):
    """(decay, scale, v_th): h[t] = decay * v[t-1] + scale * x[t]."""
    decay, scale = (1 - 1 / p.tau_m, 1 / p.tau_m) if p.kind == "lif" else (1, 1)
    return dtype(decay), dtype(scale), dtype(p.v_th)


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


def _array_loop(xd, p, relaxed):
    """(h, s) of ``p`` over the T rows of the (T, N) ``xd``, written in
    place block by block.

    Hard: a LIF block's inputs are scaled into its block of h first. Per
    row, charge into h from a carry of +0.0 with the taped loop's operands
    in its order (LIF: carry * decay in place, + the scaled x_t), fire, and
    reset into the carry but on the last row, so every bit is the taped
    loop's. Exact, a row fires into a reused block of bools (one more row
    holds their negation), cast into s after the block, and resets as
    ``_select_reset`` does: five numpy calls a row for LIF, four for IF.
    Relaxed, a row fires into s and resets algebraically.
    Reset-free: scale a block into h, carry it on from the row before,
    fire it; so h[0] = scale * x[0], with no +0.0.
    """
    h = np.empty(xd.shape, xd.dtype)
    s = np.empty_like(h)
    decay, scale, v_th = _constants(p, xd.dtype.type)
    blocks = _blocks(*xd.shape)
    rows, cols = blocks[0]
    carries = np.empty(cols.stop, xd.dtype)
    if p.reset_mode == "none":
        for rows, cols in blocks:
            hb = h[rows, cols]
            np.multiply(xd[rows, cols], scale, hb)
            _recurrence(h[:, cols], decay, rows.start, rows.stop,
                        carries[:hb.shape[1]])
            _fire(hb, v_th, relaxed, s[rows, cols])
        return h, s
    fired = np.empty((rows.stop + 1, cols.stop), bool)
    lif, last = p.kind == "lif", len(h) - 1
    for rows, cols in blocks:
        hb, sb, xb = h[rows, cols], s[rows, cols], xd[rows, cols]
        if rows.start == 0:
            n = hb.shape[1]
            carry, keep = carries[:n], fired[-1, :n]
            carry.fill(0)
            carry_bits = carry.view(_BITS[xd.dtype])
        if lif:
            xb = np.multiply(xb, scale, hb)
        spikes = sb if relaxed else fired[:len(hb), :n]
        steps = zip(xb, hb, hb.view(carry_bits.dtype), spikes)
        for t, (x_t, h_t, h_bits, s_t) in enumerate(steps, rows.start):
            if lif:
                np.multiply(carry, decay, carry)
            np.add(carry, x_t, h_t)
            if relaxed:
                _fire(h_t, v_th, relaxed, s_t)
            else:
                np.greater_equal(h_t, v_th, s_t)
            if t == last:
                continue
            if relaxed:
                np.add(h_t, s_t * (p.v_reset - h_t), carry)
            else:
                np.multiply(h_bits, np.logical_not(s_t, keep), carry_bits)
        if not relaxed:
            sb[...] = spikes
    return h, s


def _array_loop_backward(h, gh, gs, p):
    """d(loss)/dx of the reset-free ``_array_loop`` from the gradients of h
    and s, either may be None. Over its blocks from the last: sigma(h -
    v_th) * gs + gh, times scale, then the reverse carry; elementwise the
    surrogate backward's and the recurrence transpose's operations."""
    dx = np.empty(h.shape, h.dtype)
    decay, scale, v_th = _constants(p, h.dtype.type)
    blocks = _blocks(*h.shape)
    carry = np.empty(blocks[0][1].stop, h.dtype)
    for r, c in reversed(blocks):
        if gs is None:
            d = gh[r, c]
        else:
            d = _sigma_times(h[r, c] - v_th, gs[r, c])
            if gh is not None:
                np.add(gh[r, c], d, out=d)
        np.multiply(d, scale, out=dx[r, c])
        _recurrence(dx[::-1, c], decay, len(h) - r.stop, len(h) - r.start,
                    carry[:d.shape[1]])
    return dx


def parallel_no_reset(x, p, *, relaxed=False):
    """Whole-sequence charge and fire of a reset-free IF/LIF: one taped op
    around ``_array_loop`` whose outputs are the charge h and the spikes s,
    so ``trace.h`` stays differentiable."""
    _check_input(x, "parallel_no_reset")
    if p.reset_mode != "none":
        raise ContractError(
            "reset is not parallelizable: the whole-sequence form only "
            "exists for reset_mode='none'")
    hd, sd = _array_loop(x.data, p, relaxed)

    def backward(gouts):
        return (_array_loop_backward(hd, *gouts, p),)

    h, s = taped_op((x,), (hd, sd), backward)
    return SpikeTrace(s, h=h)
