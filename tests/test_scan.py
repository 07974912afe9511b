"""The reset-free charge kernel of ``parallel_no_reset`` against serial oracles.

It computes h[t] = decay * h[t-1] + scale * x[t] with ``_recurrence`` over
the blocks of ``_blocks``; IF is the (1, 1) case (a prefix sum) and LIF the
(1 - 1/tau_m, 1/tau_m) case.
"""

import numpy as np
import pytest

from psn.neurons import (VanillaNeuronParams, heaviside_surrogate,
                         parallel_no_reset)
from psn.neurons import vanilla
from psn.tensor import Tape, Tensor, mul, sum_all, taped_op


def _serial_recurrence(x, decay, scale):
    """float64 oracle for h[t] = decay * h[t-1] + scale * x[t]."""
    x = np.asarray(x, dtype=np.float64)
    out = np.zeros_like(x)
    v = np.zeros_like(x[0])
    for t in range(x.shape[0]):
        v = decay * v + scale * x[t]
        out[t] = v
    return out


def _recurrence(x, decay, scale):
    h = np.multiply(x, scale)
    rows = h.reshape(len(h), -1)
    vanilla._recurrence(rows, decay, 0, len(h), np.empty_like(rows[0]))
    return h


def _prefix_sum(x):
    return _recurrence(np.asarray(x, dtype=np.float64), 1.0, 1.0)


def test_prefix_sum_ones():
    np.testing.assert_array_equal(_prefix_sum([1.0, 1.0, 1.0]),
                                  [1.0, 2.0, 3.0])


def test_prefix_sum_impulse():
    np.testing.assert_array_equal(_prefix_sum([5.0, 0.0, 0.0, 0.0]),
                                  [5.0, 5.0, 5.0, 5.0])


def test_prefix_sum_matches_cumsum_t64():
    rng = np.random.default_rng(10)
    x = rng.standard_normal((64, 7)).astype(np.float32)
    h = _recurrence(x, 1.0, 1.0)
    np.testing.assert_allclose(h, np.cumsum(x, axis=0), atol=1e-5)


def test_linrec_halving_impulse():
    # tau = 2: decay 0.5, input scale 0.5.
    p = VanillaNeuronParams(kind="lif", reset_mode="none")
    h = parallel_no_reset(Tensor(np.array([[1.0], [0.0], [0.0]])), p).h
    np.testing.assert_allclose(h.data[:, 0], [0.5, 0.25, 0.125], rtol=1e-12)


def test_linrec_unit_coefficients_reduce_to_prefix_sum():
    # The IF charge is the unit-coefficient recurrence: a running sum.
    rng = np.random.default_rng(11)
    x = rng.standard_normal((17, 3))
    p = VanillaNeuronParams(kind="if", reset_mode="none")
    h = parallel_no_reset(Tensor(x), p).h.data
    np.testing.assert_allclose(h, np.cumsum(x, axis=0), atol=1e-12)


def test_linrec_matches_serial_oracle_t64():
    rng = np.random.default_rng(12)
    x = rng.standard_normal((64, 5)).astype(np.float32)
    h = _recurrence(x, 0.5, 0.5)
    np.testing.assert_allclose(h, _serial_recurrence(x, 0.5, 0.5), atol=1e-5)


@pytest.mark.parametrize("decay,scale", [(0.1, 0.9), (0.5, 0.5), (0.9, 1.0),
                                         (1.0, 0.25)])
@pytest.mark.parametrize("T", [1, 2, 3, 7, 16, 33, 64])
def test_linrec_coefficient_sweep(decay, scale, T):
    rng = np.random.default_rng([13, T])
    x = rng.standard_normal((T, 4)).astype(np.float32)
    h = _recurrence(x, decay, scale)
    assert h.dtype == np.float32
    np.testing.assert_allclose(h, _serial_recurrence(x, decay, scale),
                               atol=1e-5)


def test_linrec_backward_matches_fd():
    rng = np.random.default_rng(16)
    x0 = rng.standard_normal((9, 3))
    proj = rng.standard_normal((9, 3))
    # LIF at tau_m 2 is decay 0.5, scale 0.5; IF is decay 1, scale 1.
    for kind, decay, scale in (("lif", 0.5, 0.5), ("if", 1.0, 1.0)):
        p = VanillaNeuronParams(kind=kind, reset_mode="none")
        x = Tensor(x0.copy(), requires_grad=True)
        with Tape() as tape:
            h = parallel_no_reset(x, p).h
            tape.backward(sum_all(mul(h, Tensor(proj))))

        eps = 1e-6
        fd = np.zeros_like(x0)
        for i in np.ndindex(*x0.shape):
            xp = x0.copy()
            xp[i] += eps
            xm = x0.copy()
            xm[i] -= eps
            fp = (_serial_recurrence(xp, decay, scale) * proj).sum()
            fm = (_serial_recurrence(xm, decay, scale) * proj).sum()
            fd[i] = (fp - fm) / (2 * eps)
        np.testing.assert_allclose(x.grad, fd, rtol=1e-6, atol=1e-9)


def _two_op_charge_fire(x, p, relaxed):
    """The reset-free layer composed of two taped ops, as it was before the
    fused op: the whole recurrence, then the generic surrogate firing op."""
    decay, scale = (1.0, 1.0) if p.kind == "if" else (1 - 1 / p.tau_m,
                                                      1 / p.tau_m)

    def recurrence(a, reverse=False):
        h = np.multiply(a, a.dtype.type(scale), order="C")
        rows = h.reshape(h.shape[0], -1)
        if reverse:
            rows = rows[::-1]
        carry = np.empty_like(rows[0])
        for t in range(1, rows.shape[0]):
            np.multiply(rows[t - 1], h.dtype.type(decay), out=carry)
            np.add(rows[t], carry, out=rows[t])
        return h

    h = taped_op((x,), recurrence(x.data),
                 lambda gouts: (recurrence(gouts[0], reverse=True),))
    return h, heaviside_surrogate(h, p.v_th, relaxed=relaxed)


def _add(a, b):
    """a + b as one taped op, gradients (g, g): ``a.data + b.data``."""
    return taped_op((a, b), a.data + b.data, lambda gouts: gouts * 2)


def _layer_and_grad(forward, x0, loss, seed):
    rng = np.random.default_rng(seed)
    proj_s = Tensor(rng.standard_normal(x0.shape).astype(x0.dtype))
    proj_h = Tensor(rng.standard_normal(x0.shape).astype(x0.dtype))
    x = Tensor(x0.copy(), requires_grad=True)
    with Tape() as tape:
        h, s = forward(x)
        terms = {"sum": [sum_all(s)], "s": [sum_all(mul(s, proj_s))],
                 "h": [sum_all(mul(h, proj_h))],
                 "both": [sum_all(mul(s, proj_s)), sum_all(mul(h, proj_h))]}
        out = terms[loss][0]
        for term in terms[loss][1:]:
            out = _add(out, term)
        tape.backward(out)
    return h.data, s.data, x.grad


# Blocks of 2^16 columns and about 2^16 elements: one row each; 65 rows
# twice then the last 10; the whole array, which is at most two blocks; a
# row longer than a block in two column blocks; one column; 24000 columns in
# row blocks of 2; no columns at all. Each shape is the layout the input is
# drawn in; a layer takes it as (T, N), the (9,) sequence as (9, 1) and the
# (6, 4, 6000) batch as (6, 24000), as a model flattens its batch.
_FUSED_SHAPES = [(3, 65536), (140, 1000), (16, 2048), (2, 70000), (9,),
                 (6, 4, 6000), (4, 0)]


def test_fused_shapes_cover_each_kind_of_block():
    # The fused shapes; two blocks' worth as one; 2^21 columns in 32 column
    # blocks.
    shapes = [*_FUSED_SHAPES, (16, 8192), (2, 1 << 21)]
    walks = [vanilla._blocks(shape[0], int(np.prod(shape[1:])))
             for shape in shapes]
    # Rows per block, then column blocks.
    assert [(w[0][0].stop, len({c.start for _, c in w})) for w in walks] == [
        (1, 1), (65, 1), (16, 1), (1, 2), (9, 1), (2, 1), (4, 1), (16, 1),
        (1, 32)]
    for shape, walk in zip(shapes, walks):
        # Every element once, in order down each column block.
        T, M = shape[0], int(np.prod(shape[1:]))
        seen = np.zeros((T, M), int)
        for rows, cols in walk:
            assert seen[:rows.start, cols].all() and not seen[rows, cols].any()
            assert rows.stop <= T and cols.stop <= M
            seen[rows, cols] += 1
        assert (seen == 1).all()


@pytest.mark.parametrize("relaxed", [False, True])
@pytest.mark.parametrize("loss", ["sum", "s", "h", "both"])
@pytest.mark.parametrize("shape", _FUSED_SHAPES, ids=str)
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("kind", ["if", "lif"])
def test_fused_op_is_bit_identical_to_two_ops(kind, dtype, shape, loss,
                                              relaxed):
    p = VanillaNeuronParams(kind=kind, reset_mode="none")
    rng = np.random.default_rng([17, len(shape), shape[0]])
    x0 = rng.standard_normal(shape).reshape(shape[0], -1)
    x0 = (x0 * 1.5).astype(dtype)

    def fused(x):
        trace = parallel_no_reset(x, p, relaxed=relaxed)
        return trace.h, trace.s

    got = _layer_and_grad(fused, x0, loss, 18)
    want = _layer_and_grad(lambda x: _two_op_charge_fire(x, p, relaxed),
                           x0, loss, 18)
    for name, g, w in zip(("h", "s", "x.grad"), got, want):
        assert g.dtype == w.dtype and g.shape == w.shape, name
        assert g.tobytes() == w.tobytes(), name


def test_fused_op_records_one_tape_entry_for_both_outputs():
    p = VanillaNeuronParams(kind="lif", reset_mode="none")
    x = Tensor(np.ones((4, 3)), requires_grad=True)
    with Tape() as tape:
        trace = parallel_no_reset(x, p)
        assert len(tape) == 1
        assert trace.h.requires_grad and trace.s.requires_grad
