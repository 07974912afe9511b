"""Dense tensors with reverse-mode autodiff on an explicit tape.

Everything is backed by numpy arrays, float32 by default. A float64 mode
exists for high-precision verification: build the leaf tensors with float64
data and every op downstream stays in float64. Gradients always match the
dtype of the tensor they belong to.

Recording is ambient: ops record onto the innermost active ``Tape`` (a
context manager) whenever at least one input requires grad. With no active
tape, ops run as plain numpy calls, which is what inference mode means here.

The tape is deliberately minimal: an ordered list of op records, walked in
exact reverse order by ``Tape.backward``. A record is the plain tuple
``(inputs, out_ids, backward)`` (input tensors, output node ids, the op's
backward function), so recording an op costs one list append, and an op
whose inputs need no grad looks up no tape at all. Gradients accumulate
with ``+=`` so calling backward twice doubles the leaf gradients; that is
intended, and ``zero_grad`` is the explicit reset. A leaf whose ``.grad`` is
still None may take its first contribution as the ``.grad`` array itself,
when backward owns that array outright; the sum is the same as zeros plus
the contribution.

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
from numpy.lib.stride_tricks import as_strided, sliding_window_view

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
    # Views piggyback on their base buffer; only count owned memory, which
    # for a view _aligned handed out is its whole base buffer.
    if tracker.enabled and (arr.base is None or _owns_base(arr)):
        nbytes = _buffer_bytes(arr)
        tracker.note_alloc(nbytes)
        weakref.finalize(owner, tracker.note_free, nbytes, tracker.generation)


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
            if (isinstance(data, (np.ndarray, np.generic))
                    and data.dtype == np.float64):
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
        if tracker.enabled:
            _track_buffer(t, data)
        return t

    def zero_grad(self):
        if self.grad is not None:
            self.grad.fill(0)

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


class Tape:
    """Ordered record of ops, replayed in reverse by ``backward``.

    A record is the plain tuple ``(inputs, out_ids, backward)``: the op's
    input tensors, the ``node_id`` of each output, and the function that maps
    the outputs' gradients to one contribution per input. Recording an op is
    one ``list.append`` of that tuple; everything else, such as which nodes
    the tape produced, is worked out when ``backward`` runs.
    """

    def __init__(self):
        self._records = []

    def __len__(self):
        return len(self._records)

    def __enter__(self):
        _tls.stack.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        stack = _tls.stack
        if not stack or stack[-1] is not self:
            raise ContractError("tape exited out of order; tapes must nest")
        stack.pop()
        return False

    def backward(self, loss):
        """Accumulate d(loss)/d(leaf) into every reachable leaf's ``.grad``.

        ``loss`` must be a scalar tensor produced on this tape. Repeated calls
        accumulate again; there is no implicit zeroing. A leaf whose ``.grad``
        is None takes its first contribution as ``.grad`` when that array is
        fresh and owned: not a view (a view from ``_aligned``, such as a
        padded product output, excepted), not one of the op's output
        gradients and not returned for two inputs of the op. Anything else
        is copied.
        """
        if loss.data.shape != ():
            raise ContractError(
                f"backward needs a scalar loss, got shape {loss.data.shape}")
        records = self._records
        produced = {i for _, out_ids, _ in records for i in out_ids}
        if loss.node_id not in produced:
            raise ContractError("loss was not produced on this tape")

        # node_id -> [grad array, owned flag]. Non-owned entries alias arrays
        # that other nodes may still read, so accumulation into them must be
        # out of place.
        grads = {loss.node_id: [np.ones((), dtype=loss.data.dtype), True]}
        counting = tracker.enabled
        counted = 0

        for inputs, out_ids, backward in reversed(records):
            # An op's outputs are never its inputs, so their entries can
            # leave the table before the op's contributions go in.
            if len(out_ids) == 1:
                entry = grads.pop(out_ids[0], None)
                if entry is None:
                    continue
                popped = (entry,)
                gouts = (entry[0],)
            else:
                popped = [grads.pop(i, None) for i in out_ids]
                gouts = tuple(None if e is None else e[0] for e in popped)
                if all(g is None for g in gouts):
                    continue

            contribs = backward(gouts)
            several = len(contribs) > 1
            for inp, c in zip(inputs, contribs):
                if c is None or not inp.requires_grad:
                    continue
                # Cheapest test first; the count only matters when the op
                # returned more than one contribution.
                shared = (c.base is not None and not _owns_base(c)
                          or (c is gouts[0] if len(gouts) == 1
                              else any(c is g for g in gouts))
                          or several and sum(c is d for d in contribs) > 1)
                nid = inp.node_id
                if nid not in produced:
                    inp._accumulate_grad(c, owned=not shared)
                    continue
                entry = grads.get(nid)
                if entry is None:
                    grads[nid] = [c, not shared]
                    if counting and not shared:
                        nbytes = _buffer_bytes(c)
                        tracker.note_alloc(nbytes)
                        counted += nbytes
                elif entry[1]:
                    entry[0] += c
                else:
                    fresh = entry[0] + c
                    grads[nid] = [fresh, True]
                    if counting:
                        tracker.note_alloc(fresh.nbytes)
                        counted += fresh.nbytes
            if counting:
                for entry in popped:
                    if entry is not None and entry[1]:
                        nbytes = _buffer_bytes(entry[0])
                        tracker.note_free(nbytes, tracker.generation)
                        counted -= nbytes
        if counting and counted:
            # Whatever is left (unreachable contributions) is dropped here.
            tracker.note_free(counted, tracker.generation)


class _TapeStack(threading.local):
    """Per-thread stack of active tapes, innermost last."""

    def __init__(self):
        self.stack = []


_tls = _TapeStack()


def active_tape():
    """The innermost active tape, or None when not recording."""
    stack = _tls.stack
    return stack[-1] if stack else None


@contextmanager
def no_tape():
    """Suspend recording for a block (used by evaluation paths)."""
    saved, _tls.stack = _tls.stack, []
    try:
        yield
    finally:
        _tls.stack = saved


def taped_op(inputs, out_data, backward):
    """Wrap ``out_data`` as a tensor and record the op if a tape is active.

    ``inputs`` is a tuple of tensors. ``backward`` receives a tuple with the
    output's gradient and returns one gradient contribution per input (None
    for inputs that need none). This is the extension point every
    neuron/loss primitive goes through. Only when an input requires grad is
    the active tape looked up; the record is one ``(inputs, out_ids,
    backward)`` tuple. A tuple of arrays as ``out_data`` gives a tuple of
    tensors under one record, whose ``backward`` receives one gradient per
    output, None for an output that got none.
    """
    several = type(out_data) is tuple
    for t in inputs:
        if t.requires_grad:
            break
    else:
        if several:
            return tuple([Tensor._make(d, False) for d in out_data])
        return Tensor._make(out_data, False)
    if several:
        out = tuple([Tensor._make(d, True) for d in out_data])
        out_ids = tuple([t.node_id for t in out])
    else:
        out = Tensor._make(out_data, True)
        out_ids = (out.node_id,)
    stack = _tls.stack
    if stack:
        stack[-1]._records.append((inputs, out_ids, backward))
    return out


# ---------------------------------------------------------------------------
# Ops


# Longest contraction one GEMM call gets: OpenBLAS ran dW of a PSN layer,
# (T, N) @ (N, T) with N in the millions, about 4x slower in one call than
# in 2^16-wide slices, whose (2, 2^16) @ (2^16, 2) stays under 100^3 at T=2.
_CHUNK = 1 << 16
# Elements per column block of a short product, about one L2-resident
# block. At a contraction of at most _PIECE_MAX_K a block is at most
# 11 * 2^16 < 100^3 multiply-adds, the size up to which OpenBLAS multiplies
# without packing its operands; packed, a (2x5)@(5xC) product took 3.0 ns
# per column at C=100001 against 1.4 ns at C=100000.
_COLS = 1 << 16
# Longest contraction cut into pieces. Float64 pieces kept one call's bits
# up to K=11 in every probe and lost them from K=12 in some (float32 ones
# up to K=31), and a T=64 dense charge in pieces took twice as long.
_PIECE_MAX_K = 11
# _padded's gate: 32 rows, each a multiple of 4 KiB, 4 MiB in all. Padded,
# the T=16, N=2048 layer's forward ran 2-42% slower.
_PAD_MIN_ROWS = 32
_PAD_MIN_BYTES = 4 << 20
# One cache line: the alignment of an _aligned view and a padded output's
# row padding.
_PAD = 64

# id -> each view _aligned handed out, while it lives.
_aligned_views = weakref.WeakValueDictionary()


def _aligned(m, n, dtype, pad=0):
    """An uninitialised (m, n) view that starts on a 64-byte boundary, with
    rows a row plus ``pad`` bytes apart. The view owns its base buffer:
    ``_track_buffer`` counts that buffer, and ``Tape.backward`` may keep
    the view as a gradient."""
    itemsize = np.dtype(dtype).itemsize
    stride = n * itemsize + pad
    raw = np.empty(m * stride + max(_PAD - pad, 0), np.uint8)
    view = np.ndarray((m, n), dtype, raw, -raw.ctypes.data % _PAD,
                      (stride, itemsize))
    _aligned_views[id(view)] = view
    return view


def _padded(m, n, dtype):
    """An uninitialised (m, n) product output with padded rows, or None
    below the gate (>= 32 rows, each a multiple of 4 KiB, 4 MiB in all).

    The view is 64-byte aligned and its rows lie a row plus 64 bytes apart,
    so it is not contiguous. At a power-of-two row length (256 KiB at
    N=65536) the output rows OpenBLAS writes together share cache sets;
    padded, a (64, 64) @ (64, 65536) product took about 0.7x the time, with
    the same bits. The view comes from ``_aligned``.
    """
    row = n * np.dtype(dtype).itemsize
    if m < _PAD_MIN_ROWS or row % 4096 or m * row < _PAD_MIN_BYTES:
        return None
    return _aligned(m, n, dtype, _PAD)


def _owns_base(arr):
    """Whether ``arr`` is a view _aligned handed out (not a view of one)."""
    return _aligned_views.get(id(arr)) is arr


def _buffer_bytes(arr):
    """Bytes of an owning array's buffer: its own, or its aligned base's."""
    return arr.nbytes if arr.base is None else arr.base.nbytes


def _column_blocks(m, k, n):
    """Column slices of an (m, k) @ (k, n) product: ceil(m*n / _COLS)
    near-equal slices if k <= _PIECE_MAX_K and m*n > _COLS, else one. It
    is one slice, too, where a slice would be under two columns wide: a
    one-column product goes to gemv and sums in another order."""
    pieces = -(-m * n // _COLS)
    if k > _PIECE_MAX_K or pieces < 2 or n < 2 * pieces:
        return (slice(0, n),)
    return [slice(i * n // pieces, (i + 1) * n // pieces)
            for i in range(pieces)]


def _product(a, b, out=None, plain=False):
    """a @ b, into ``out`` if given: the one door to BLAS.

    - A contraction longer than _CHUNK is summed over _CHUNK-wide slices.
    - Unless ``plain``, an output not given comes from ``_padded``: from 32
      rows, each a multiple of 4 KiB, and 4 MiB in all, it is a
      64-byte-aligned, non-contiguous view with rows 64 bytes more than a
      row apart.
    - Unless ``plain``, a product is written in the column slices of
      ``_column_blocks``: with K <= _PIECE_MAX_K, blocks of about _COLS
      output elements, each under OpenBLAS's small-matrix threshold.

    Any other product is the single call ``np.matmul(a, b, out=out)``,
    which without ``out`` is ``a @ b``. ``linear``, whose outputs are
    reshaped across rows, and the charge matrix's gradient are ``plain``.
    """
    m, k = a.shape
    n = b.shape[1]
    if k > _CHUNK:
        out = np.matmul(a[:, :_CHUNK], b[:_CHUNK], out=out)
        for start in range(_CHUNK, k, _CHUNK):
            out += a[:, start:start + _CHUNK] @ b[start:start + _CHUNK]
        return out
    if plain:
        return np.matmul(a, b, out=out)
    # The row count first: it keeps the T=16 and T=2 products off the
    # gate's dtype lookups.
    if out is None and m >= _PAD_MIN_ROWS:
        out = _padded(m, n, np.result_type(a, b))
    cuts = _column_blocks(m, k, n)
    if len(cuts) == 1:
        return np.matmul(a, b, out=out)
    if out is None:
        out = np.empty((m, n), dtype=np.result_type(a, b))
    for c in cuts:
        np.matmul(a, b[:, c], out=out[:, c])
    return out


# Output rows per GEMM of a banded matmul: 8 rows keep the contraction,
# 7 + k, within _PIECE_MAX_K up to k = 4. The last GEMM takes the remainder
# too, as a GEMM of a few rows runs other BLAS kernels than the dense call.
_BAND_ROWS = 8
# Shortest T that is banded; at T=16 one dense call was measured faster.
_BAND_MIN_T = 32


def _band_product(a, b, k, transpose):
    """a @ b, or a.T @ b, for a square ``a`` that is zero outside its k lower
    diagonals: one product per _BAND_ROWS output rows, over only the rows of
    ``b`` that meet the band there, each in column pieces by ``_product``.
    Only exact zero products are skipped; the bits match the dense product
    where BLAS sums both in one order, which the tests pin from N=4096 on
    (small N may differ in the last place). The output comes from
    ``_padded`` above its gate, as the dense product's does.
    """
    T = a.shape[0]
    dtype = np.result_type(a, b)
    out = _padded(T, b.shape[1], dtype)
    if out is None:
        out = np.empty((T, b.shape[1]), dtype=dtype)
    edges = [*range(0, T - _BAND_ROWS + 1, _BAND_ROWS), T]
    for r0, r1 in zip(edges, edges[1:]):
        if transpose:
            c1 = min(T, r1 + k - 1)
            _product(a[r0:c1, r0:r1].T, b[r0:c1], out[r0:r1])
        else:
            c0 = max(0, r0 - k + 1)
            _product(a[r0:r1, c0:r1], b[c0:r1], out[r0:r1])
    return out


def _band_weight_grad(g, b, k):
    """g @ b.T on its k lower diagonals, exactly +0.0 everywhere else.

    Row i >= k-1 of the band is the product of the k rows of ``b`` that row
    i of ``g`` meets, so every full row takes one batched product over a
    sliding window of ``b``; each of the k-1 head rows takes its own. That
    is about 2 T k N flops against the dense product's 2 T^2 N.
    """
    T = g.shape[0]
    out = np.zeros((T, T), dtype=np.result_type(g, b))
    window = sliding_window_view(b, k, axis=0).transpose(0, 2, 1)
    s0, s1 = out.strides
    band = as_strided(out[k - 1:], (T - k + 1, k), (s0 + s1, s1))
    band[...] = np.matmul(window, g[k - 1:, :, None])[..., 0]
    for i in range(k - 1):
        np.matmul(b[:i + 1], g[i], out=out[i, :i + 1])
    return out


def matmul(a, b, band=None):
    """2-D matrix product. Shapes (M,K) @ (K,N) -> (M,N).

    The forward and the gradient of ``b`` go through ``_product`` or
    ``_band_product``, so at small T they run in column pieces, with the
    bits of one call. From 32 rows, each a multiple of 4 KiB long, and
    4 MiB in all (the T=64, N=65536 float32 charge), both are padded:
    64-byte-aligned, non-contiguous views whose rows lie 64 bytes more
    than a row apart, with the contiguous product's bits. The gradient of
    ``a`` is a plain product, as it is small.

    ``band=k`` promises that ``a`` is square and zero outside its k lower
    diagonals (columns i-k+1..i of row i). For k < T and T >= 32 the forward
    and the gradient of ``b`` then multiply only that band, in blocks of
    _BAND_ROWS rows that are split into column pieces up to k = 4. If also
    4 k <= T, where it was measured faster than the dense product, the
    gradient of ``a`` is computed on the band alone and is +0.0 elsewhere,
    as callers read nothing else; otherwise it is the dense product.
    """
    ad, bd = a.data, b.data
    if ad.ndim != 2 or bd.ndim != 2 or ad.shape[1] != bd.shape[0]:
        raise ShapeMismatchError(
            f"matmul needs (M,K) @ (K,N), got {ad.shape} @ {bd.shape}")
    T = ad.shape[0]
    banded = band is not None and band < T and T >= _BAND_MIN_T
    out = _band_product(ad, bd, band, False) if banded else _product(ad, bd)

    def backward(gouts):
        g = gouts[0]
        if not a.requires_grad:
            ga = None
        elif banded and 4 * band <= T:
            ga = _band_weight_grad(g, bd, band)
        else:
            ga = _product(g, bd.T, plain=True)
        if not b.requires_grad:
            gb = None
        elif banded:
            gb = _band_product(ad, g, band, True)
        else:
            gb = _product(ad.T, g)
        return ga, gb

    return taped_op((a, b), out, backward)


def linear(x, w, b):
    """x @ w + b on the last axis, one taped op: (..., I) -> (..., O).

    The leading axes are flattened into one GEMM with the (I, O) weight,
    written straight into the output's own buffer, and the (O,) bias is
    added to every row.
    """
    xd, wd, bd = x.data, w.data, b.data
    if (xd.ndim < 1 or wd.ndim != 2 or xd.shape[-1] != wd.shape[0]
            or bd.shape != wd.shape[1:]):
        raise ShapeMismatchError(
            f"linear needs (..., I) @ (I, O) + (O,), got {xd.shape} @ "
            f"{wd.shape} + {bd.shape}")
    flat = xd.reshape(-1, wd.shape[0])
    out = np.empty(xd.shape[:-1] + bd.shape, dtype=np.result_type(xd, wd))
    _product(flat, wd, out.reshape(flat.shape[0], wd.shape[1]), plain=True)
    out += bd

    def backward(gouts):
        g = gouts[0].reshape(-1, wd.shape[1])
        gx = (_product(g, wd.T, plain=True).reshape(xd.shape)
              if x.requires_grad else None)
        gw = _product(flat.T, g, plain=True) if w.requires_grad else None
        gb = _column_sum(g) if b.requires_grad else None
        return gx, gw, gb

    return taped_op((x, w, b), out, backward)


def _column_sum(g):
    """g.sum(axis=0) of a 2-D array, bit for bit, without numpy's row loop.

    numpy reduces axis 0 of a C-ordered array one row at a time, at several
    times the cost of ``einsum``, which adds the rows in the same order and
    so gives the same bits. A single column is the exception: ``sum`` then
    adds pairwise. A Fortran-ordered array is summed pairwise too.
    """
    if g.shape[1] >= 2 and g.flags.c_contiguous:
        return np.einsum("ij->j", g)
    return g.sum(axis=0)


def _same_shape(op_name, a, b):
    if a.data.shape != b.data.shape:
        raise ShapeMismatchError(
            f"{op_name} needs equal shapes, got {a.data.shape} and "
            f"{b.data.shape}")


def add(a, b):
    """Elementwise a + b of two equal-shaped tensors."""
    _same_shape("add", a, b)
    out = a.data + b.data

    def backward(gouts):
        g = gouts[0]
        return (g if a.requires_grad else None,
                g if b.requires_grad else None)

    return taped_op((a, b), out, backward)


def mul(a, b):
    """Elementwise a * b of two equal-shaped tensors."""
    _same_shape("mul", a, b)
    ad, bd = a.data, b.data
    out = ad * bd

    def backward(gouts):
        g = gouts[0]
        return (g * bd if a.requires_grad else None,
                g * ad if b.requires_grad else None)

    return taped_op((a, b), out, backward)


def scale(a, k):
    """Elementwise a * k with a python scalar k."""
    k = a.data.dtype.type(k)
    out = a.data * k

    def backward(gouts):
        return (gouts[0] * k,)

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
    """Sum of all elements; the usual scalar loss terminal.

    numpy sums a C-contiguous array pairwise over all of it, but a padded
    product output row by row, so any other layout is summed from a
    contiguous copy, which gives the contiguous array's bits.
    """
    d = a.data
    out = (d if d.flags.c_contiguous else d.copy()).sum()
    shape = d.shape

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
    shape = a.data.shape
    dtype = a.data.dtype

    def backward(gouts):
        full = np.empty(shape, dtype=dtype)
        for t, g in enumerate(gouts):
            full[t] = 0 if g is None else g
        return (full,)

    return taped_op((a,), tuple(a.data), backward)


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
