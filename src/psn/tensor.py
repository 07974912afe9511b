"""Dense tensors with reverse-mode autodiff on an explicit tape.

Everything is backed by numpy arrays, float32 by default. A float64 mode
exists for high-precision verification: build the leaf tensors with float64
data and every op downstream stays in float64. Gradients always match the
dtype of the tensor they belong to.

Recording is ambient: ops record onto the innermost active ``Tape`` (a
context manager) whenever at least one input requires grad. With no active
tape, ops run as plain numpy calls, which is what inference mode means here.

The tape is deliberately minimal: an ordered list of op records, walked in
exact reverse order by ``Tape.backward``. Gradients accumulate with ``+=``
so calling backward twice doubles the leaf gradients; that is intended, and
``zero_grad`` is the explicit reset. A leaf whose ``.grad`` is still None may
take its first contribution as the ``.grad`` array itself, when backward
owns that array outright; the sum is the same as zeros plus the contribution.

Tensors may be handed between threads, but a single tape must only ever be
used from one thread at a time. The active-tape stack is thread local.

In-place mutation of a tensor that participates in a recorded op is not
detected and will silently corrupt gradients. Optimizers mutate parameter
data in place, which is fine because the update runs outside any tape and
the next forward records fresh ops.
"""

from __future__ import annotations

import itertools
import threading
import weakref
from contextlib import contextmanager

import numpy as np

from .errors import ContractError, ShapeMismatchError

_node_ids = itertools.count()


class AllocationTracker:
    """Byte accounting of tensor buffers allocated inside a measurement window.

    Only buffers a tensor actually owns are counted; views are free. Gradient
    buffers allocated during backward count too, and are released when the
    backward pass drops them. ``start`` opens a window, ``stop`` closes it and
    returns the peak of (bytes allocated in the window minus bytes of those
    already freed). Buffers allocated before the window never affect it: frees
    are matched to the window generation they were allocated under.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self.enabled = False
        self.generation = 0
        self.live_bytes = 0
        self.peak_bytes = 0

    def start(self):
        with self._lock:
            self.generation += 1
            self.live_bytes = 0
            self.peak_bytes = 0
            self.enabled = True

    def stop(self):
        with self._lock:
            self.enabled = False
            return self.peak_bytes

    def note_alloc(self, nbytes):
        with self._lock:
            if not self.enabled:
                return
            self.live_bytes += nbytes
            if self.live_bytes > self.peak_bytes:
                self.peak_bytes = self.live_bytes

    def note_free(self, nbytes, generation):
        with self._lock:
            if self.enabled and generation == self.generation:
                self.live_bytes -= nbytes


tracker = AllocationTracker()


def _track_buffer(owner, arr):
    # Views piggyback on their base buffer; only count owned memory.
    if tracker.enabled and arr.base is None:
        tracker.note_alloc(arr.nbytes)
        weakref.finalize(owner, tracker.note_free, arr.nbytes, tracker.generation)


class Tensor:
    """A numpy array plus gradient plumbing.

    ``data`` is the value, ``grad`` is a same-shaped array or None, and
    ``node_id`` identifies the tensor on tapes. ``requires_grad`` marks
    leaves the user wants gradients for; it also turns on recording for
    anything computed from this tensor while a tape is active.
    """

    __slots__ = ("data", "grad", "requires_grad", "node_id", "__weakref__")

    def __init__(self, data, requires_grad=False, dtype=None):
        if dtype is None:
            if isinstance(data, np.ndarray) and data.dtype == np.float64:
                dtype = np.float64
            else:
                dtype = np.float32
        arr = np.asarray(data, dtype=dtype)
        self.data = arr
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self.node_id = next(_node_ids)
        _track_buffer(self, arr)

    @classmethod
    def _make(cls, data, requires_grad):
        """Internal: wrap an ndarray without dtype coercion."""
        t = cls.__new__(cls)
        t.data = data
        t.grad = None
        t.requires_grad = requires_grad
        t.node_id = next(_node_ids)
        _track_buffer(t, data)
        return t

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self):
        return self.data.size

    def zero_grad(self):
        if self.grad is not None:
            self.grad.fill(0)

    def detached(self):
        """Same data, no grad, no tape history."""
        return Tensor._make(self.data, False)

    def _accumulate_grad(self, contribution, owned=False):
        """Add ``contribution`` into ``.grad``.

        ``owned`` says nothing else holds the array, so a fresh leaf of the
        same shape and dtype takes it as ``.grad`` instead of zeros plus it.
        """
        if self.grad is None:
            data = self.data
            if (owned and contribution.shape == data.shape
                    and contribution.dtype == data.dtype):
                _track_buffer(self, contribution)
                self.grad = contribution
                return
            g = np.zeros(data.shape, dtype=data.dtype)
            _track_buffer(self, g)
            self.grad = g
        self.grad += contribution

    def __repr__(self):
        return (f"Tensor(shape={self.data.shape}, dtype={self.data.dtype.name}, "
                f"requires_grad={self.requires_grad})")

    # Operator sugar; the module-level functions are the real API.
    def __add__(self, other):
        if isinstance(other, Tensor):
            return add(self, other)
        return scalar_affine(self, 1.0, float(other))

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Tensor):
            return sub(self, other)
        return scalar_affine(self, 1.0, -float(other))

    def __mul__(self, other):
        if isinstance(other, Tensor):
            return mul(self, other)
        return scalar_affine(self, float(other), 0.0)

    __rmul__ = __mul__

    def __neg__(self):
        return scalar_affine(self, -1.0, 0.0)

    def __matmul__(self, other):
        return matmul(self, other)


class _OpRecord:
    __slots__ = ("inputs", "output_ids", "backward")

    def __init__(self, inputs, output_ids, backward):
        self.inputs = inputs
        self.output_ids = output_ids
        self.backward = backward


class Tape:
    """Ordered record of ops, replayed in reverse by ``backward``."""

    def __init__(self):
        self._records = []
        self._produced = set()

    def __len__(self):
        return len(self._records)

    def __enter__(self):
        _active_stack().append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        stack = _active_stack()
        if not stack or stack[-1] is not self:
            raise ContractError("tape exited out of order; tapes must nest")
        stack.pop()
        return False

    def record(self, inputs, outputs, backward):
        ids = tuple(t.node_id for t in outputs)
        self._records.append(_OpRecord(tuple(inputs), ids, backward))
        self._produced.update(ids)

    def backward(self, loss):
        """Accumulate d(loss)/d(leaf) into every reachable leaf's ``.grad``.

        ``loss`` must be a scalar tensor produced on this tape. Repeated calls
        accumulate again; there is no implicit zeroing. A leaf whose ``.grad``
        is None takes its first contribution as ``.grad`` when that array is
        fresh and owned: not a view, not one of the op's output gradients and
        not returned for two inputs of the op. Anything else is copied.
        """
        if loss.data.shape != ():
            raise ContractError(
                f"backward needs a scalar loss, got shape {loss.data.shape}")
        if loss.node_id not in self._produced:
            raise ContractError("loss was not produced on this tape")

        # node_id -> [grad array, owned flag]. Non-owned entries alias arrays
        # that other nodes may still read, so accumulation into them must be
        # out of place.
        grads = {loss.node_id: [np.ones((), dtype=loss.data.dtype), True]}
        produced = self._produced
        counting = tracker.enabled
        counted = 0

        for rec in reversed(self._records):
            out_ids = rec.output_ids
            if len(out_ids) == 1:
                entry = grads.get(out_ids[0])
                if entry is None:
                    continue
                gouts = (entry[0],)
            else:
                gouts = tuple(
                    e[0] if (e := grads.get(i)) is not None else None
                    for i in out_ids)
                if all(g is None for g in gouts):
                    continue

            contribs = rec.backward(gouts)
            for inp, c in zip(rec.inputs, contribs):
                if c is None or not inp.requires_grad:
                    continue
                shared = (c.base is not None or any(c is g for g in gouts)
                          or sum(c is d for d in contribs) > 1)
                nid = inp.node_id
                if nid not in produced:
                    inp._accumulate_grad(c, owned=not shared)
                    continue
                entry = grads.get(nid)
                if entry is None:
                    grads[nid] = [c, not shared]
                    if counting and not shared:
                        tracker.note_alloc(c.nbytes)
                        counted += c.nbytes
                elif entry[1]:
                    entry[0] += c
                else:
                    fresh = entry[0] + c
                    grads[nid] = [fresh, True]
                    if counting:
                        tracker.note_alloc(fresh.nbytes)
                        counted += fresh.nbytes
            for oid in out_ids:
                entry = grads.pop(oid, None)
                if counting and entry is not None and entry[1]:
                    tracker.note_free(entry[0].nbytes, tracker.generation)
                    counted -= entry[0].nbytes
        if counting and counted:
            # Whatever is left (unreachable contributions) is dropped here.
            tracker.note_free(counted, tracker.generation)


_tls = threading.local()


def _active_stack():
    stack = getattr(_tls, "stack", None)
    if stack is None:
        stack = []
        _tls.stack = stack
    return stack


def active_tape():
    """The innermost active tape, or None when not recording."""
    stack = _active_stack()
    return stack[-1] if stack else None


@contextmanager
def no_tape():
    """Suspend recording for a block (used by evaluation paths)."""
    stack = _active_stack()
    saved, _tls.stack = stack, []
    try:
        yield
    finally:
        _tls.stack = saved


def taped_op(inputs, out_data, backward):
    """Wrap ``out_data`` as a tensor and record the op if a tape is active.

    ``backward`` receives a tuple with the output's gradient and returns one
    gradient contribution per input (None for inputs that need none). This is
    the extension point every neuron/loss primitive goes through.
    """
    rg = any(t.requires_grad for t in inputs)
    out = Tensor._make(out_data, rg)
    tape = active_tape()
    if rg and tape is not None:
        tape.record(inputs, (out,), backward)
    return out


def taped_multi_op(inputs, out_datas, backward):
    """Like ``taped_op`` for ops with several outputs (e.g. splitting rows)."""
    rg = any(t.requires_grad for t in inputs)
    outs = [Tensor._make(d, rg) for d in out_datas]
    tape = active_tape()
    if rg and tape is not None:
        tape.record(inputs, outs, backward)
    return outs


# ---------------------------------------------------------------------------
# Ops


# Longest contraction one GEMM call gets in a matmul backward.
_CHUNK = 1 << 16


def _chunked_dot(a, b):
    """a @ b, summed over _CHUNK-wide slices of a long contraction axis.

    OpenBLAS runs a skinny product with a contraction of millions (dW of a
    PSN layer, (T, N) @ (N, T)) about 4x slower in one call than in 2^16-wide
    pieces. Up to _CHUNK this is exactly ``a @ b``.
    """
    k = a.shape[1]
    if k <= _CHUNK:
        return a @ b
    out = a[:, :_CHUNK] @ b[:_CHUNK]
    for start in range(_CHUNK, k, _CHUNK):
        out += a[:, start:start + _CHUNK] @ b[start:start + _CHUNK]
    return out


def matmul(a, b):
    """2-D matrix product. Shapes (M,K) @ (K,N) -> (M,N)."""
    ad, bd = a.data, b.data
    if ad.ndim != 2 or bd.ndim != 2 or ad.shape[1] != bd.shape[0]:
        raise ShapeMismatchError(
            f"matmul needs (M,K) @ (K,N), got {ad.shape} @ {bd.shape}")
    out = ad @ bd

    def backward(gouts):
        g = gouts[0]
        ga = _chunked_dot(g, bd.T) if a.requires_grad else None
        gb = _chunked_dot(ad.T, g) if b.requires_grad else None
        return ga, gb

    return taped_op((a, b), out, backward)


def _broadcast_rule(a_shape, b_shape):
    """How b broadcasts against a: 'same', 'row' (b indexes a's leading axis,
    broadcast over the rest), or 'trailing' (b matches a's last axis)."""
    if a_shape == b_shape:
        return "same"
    if len(b_shape) == 1 and len(a_shape) >= 2 and b_shape[0] == a_shape[0]:
        return "row"
    if len(b_shape) == 1 and len(a_shape) >= 2 and b_shape[0] == a_shape[-1]:
        return "trailing"
    return None


def _apply_broadcast(bd, rule, a_ndim):
    if rule == "row":
        return bd.reshape((bd.shape[0],) + (1,) * (a_ndim - 1))
    return bd


def _reduce_broadcast(g, rule):
    if rule == "same":
        return g
    if rule == "row":
        return g.reshape(g.shape[0], -1).sum(axis=1)
    # trailing: sum over every leading axis
    return g.reshape(-1, g.shape[-1]).sum(axis=0)


def _elementwise_shapes(op_name, a, b):
    rule = _broadcast_rule(a.data.shape, b.data.shape)
    if rule is None:
        raise ShapeMismatchError(
            f"{op_name}: shapes {a.data.shape} and {b.data.shape} do not "
            f"match and are not a supported broadcast (same shape, leading "
            f"axis, or trailing axis)")
    return rule


def add(a, b):
    rule = _elementwise_shapes("add", a, b)
    bd = _apply_broadcast(b.data, rule, a.data.ndim)
    out = a.data + bd

    def backward(gouts):
        g = gouts[0]
        ga = g if a.requires_grad else None
        gb = _reduce_broadcast(g, rule) if b.requires_grad else None
        return ga, gb

    return taped_op((a, b), out, backward)


def sub(a, b):
    rule = _elementwise_shapes("sub", a, b)
    bd = _apply_broadcast(b.data, rule, a.data.ndim)
    out = a.data - bd

    def backward(gouts):
        g = gouts[0]
        ga = g if a.requires_grad else None
        gb = -_reduce_broadcast(g, rule) if b.requires_grad else None
        return ga, gb

    return taped_op((a, b), out, backward)


def mul(a, b):
    rule = _elementwise_shapes("mul", a, b)
    bd = _apply_broadcast(b.data, rule, a.data.ndim)
    ad = a.data
    out = ad * bd

    def backward(gouts):
        g = gouts[0]
        ga = g * bd if a.requires_grad else None
        gb = _reduce_broadcast(g * ad, rule) if b.requires_grad else None
        return ga, gb

    return taped_op((a, b), out, backward)


def scalar_affine(a, mul_by, add_by):
    """Elementwise a * mul_by + add_by with python scalars."""
    mul_by = float(mul_by)
    add_by = float(add_by)
    out = a.data * a.data.dtype.type(mul_by)
    if add_by != 0.0:
        out += a.data.dtype.type(add_by)

    def backward(gouts):
        g = gouts[0]
        if not a.requires_grad:
            return (None,)
        if mul_by == 1.0:
            return (g,)
        return (g * a.data.dtype.type(mul_by),)

    return taped_op((a,), out, backward)


def reshape(a, shape):
    try:
        out = a.data.reshape(shape)
    except ValueError as e:
        raise ShapeMismatchError(
            f"cannot reshape {a.data.shape} to {shape}: {e}") from None
    in_shape = a.data.shape

    def backward(gouts):
        return (gouts[0].reshape(in_shape),)

    return taped_op((a,), out, backward)


def sum_all(a):
    """Sum of all elements; the usual scalar loss terminal."""
    out = a.data.sum()
    shape = a.data.shape

    def backward(gouts):
        return (np.broadcast_to(gouts[0], shape),)

    return taped_op((a,), np.asarray(out), backward)


def mean_axis0(a):
    """Mean over the leading axis; (T, ...) -> (...)."""
    if a.data.ndim < 1 or a.data.shape[0] == 0:
        raise ShapeMismatchError(f"mean_axis0 needs a non-empty leading axis, "
                                 f"got shape {a.data.shape}")
    out = a.data.mean(axis=0)
    n = a.data.shape[0]
    shape = a.data.shape

    def backward(gouts):
        return (np.broadcast_to(gouts[0] / n, shape),)

    return taped_op((a,), out, backward)


def split_rows(a):
    """Split (T, ...) into T views along the leading axis, as separate tensors.

    One op record covers all T outputs, so backward materializes a single
    full-size gradient for ``a`` instead of T sparse ones.
    """
    if a.data.ndim < 1:
        raise ShapeMismatchError("split_rows needs at least one axis")
    rows = [a.data[t] for t in range(a.data.shape[0])]
    shape = a.data.shape
    dtype = a.data.dtype

    def backward(gouts):
        full = np.zeros(shape, dtype=dtype)
        for t, g in enumerate(gouts):
            if g is not None:
                full[t] = g
        return (full,)

    return taped_multi_op((a,), rows, backward)


def stack_rows(rows):
    """Inverse of split_rows: T tensors of equal shape -> (T, ...)."""
    if not rows:
        raise ShapeMismatchError("stack_rows needs at least one row")
    first = rows[0].data.shape
    for r in rows:
        if r.data.shape != first:
            raise ShapeMismatchError(
                f"stack_rows: row shapes differ, {first} vs {r.data.shape}")
    out = np.stack([r.data for r in rows])

    def backward(gouts):
        g = gouts[0]
        return tuple(g[t] if r.requires_grad else None
                     for t, r in enumerate(rows))

    return taped_op(tuple(rows), out, backward)
