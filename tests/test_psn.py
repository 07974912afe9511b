"""Parallel neuron family: dense, masked, and sliding charge matrices."""

import numpy as np
import pytest

from psn.errors import ContractError, ShapeMismatchError
from psn.neurons import (MaskedPSNParams, PSNParams, SlidingPSNParams,
                        VanillaNeuronParams, build_mask, lambda_schedule,
                        masked_psn_forward, parallel_no_reset, psn_forward,
                        spsn_build_A, spsn_forward)
from psn import tensor, verify
from psn.data import SequenceBatch
from psn.neurons import parallel
from psn.neurons.surrogate import heaviside_surrogate
from psn.tensor import Tape, Tensor, mul, no_tape, sum_all
from psn.training import Model, ModelSpec, evaluate


def _psn(weight, threshold):
    return PSNParams(Tensor(np.asarray(weight, dtype=np.float64)),
                     Tensor(np.asarray(threshold, dtype=np.float64)))


def _dense(T, rng, dtype=np.float64):
    """(weight, threshold) as ``PSNParams.create`` draws them, in ``dtype``."""
    w = rng.uniform(-np.sqrt(5.0), np.sqrt(5.0), size=(T, T)).astype(dtype)
    return (Tensor(w, requires_grad=True),
            Tensor(np.ones(T, dtype), requires_grad=True))


def _sliding(k, dtype=np.float64):
    """``SlidingPSNParams.create(k)``'s parameters in ``dtype``."""
    kernel = np.power(2.0, np.arange(k) - k + 1.0).astype(dtype)
    return SlidingPSNParams(Tensor(kernel, requires_grad=True),
                            Tensor(np.ones((), dtype), requires_grad=True))


# ------------------------------------------------------------------ dense


def test_identity_weight_is_memoryless():
    x = np.array([[0.2, 0.7], [0.9, 0.1], [0.6, 0.6]])
    p = _psn(np.eye(3), np.full(3, 0.5))
    trace = psn_forward(Tensor(x), p)
    np.testing.assert_array_equal(trace.h.data, x)
    np.testing.assert_array_equal(trace.s.data, (x >= 0.5).astype(float))


def test_lower_triangular_ones_gives_running_sums():
    x = np.ones((4, 2))
    p = _psn(np.tril(np.ones((4, 4))), np.full(4, 1e9))
    trace = psn_forward(Tensor(x), p)
    np.testing.assert_array_equal(trace.h.data,
                                  np.arange(1.0, 5.0)[:, None] * np.ones(2))
    np.testing.assert_array_equal(trace.s.data, np.zeros((4, 2)))


def test_per_step_threshold_is_a_row_rule():
    x = np.ones((3, 4))
    p = _psn(np.eye(3), np.array([0.5, 1.5, 1.0]))
    s = psn_forward(Tensor(x), p).s.data
    np.testing.assert_array_equal(s, np.array([1.0, 0.0, 1.0])[:, None]
                                  * np.ones(4))


def test_dense_weights_subsume_lif_without_reset():
    # W[t][i] = (1/tau)(1 - 1/tau)^(t-i) reproduces the leaky recurrence.
    T, tau = 16, VanillaNeuronParams.tau_m
    t = np.arange(T)
    w = np.where(t[:, None] >= t[None, :],
                 (1 / tau) * (1 - 1 / tau) ** (t[:, None] - t[None, :]), 0.0)
    rng = np.random.default_rng(40)
    x = rng.standard_normal((T, 6))

    psn_trace = psn_forward(Tensor(x), _psn(w, np.ones(T)))
    lif_trace = parallel_no_reset(
        Tensor(x), VanillaNeuronParams(kind="lif", reset_mode="none"))
    np.testing.assert_allclose(psn_trace.h.data, lif_trace.h.data, atol=1e-5)
    np.testing.assert_array_equal(psn_trace.s.data, lif_trace.s.data)


def test_step_matrix_subsumes_if_without_reset():
    T = 12
    w = np.tril(np.ones((T, T)))
    rng = np.random.default_rng(41)
    x = rng.standard_normal((T, 3))
    psn_trace = psn_forward(Tensor(x), _psn(w, np.ones(T)))
    if_trace = parallel_no_reset(
        Tensor(x), VanillaNeuronParams(kind="if", reset_mode="none"))
    np.testing.assert_allclose(psn_trace.h.data, if_trace.h.data, atol=1e-5)


def test_param_shape_errors():
    with pytest.raises(ContractError):
        PSNParams(Tensor(np.zeros((3, 4))), Tensor(np.zeros(3)))
    with pytest.raises(ContractError):
        PSNParams(Tensor(np.zeros((3, 3))), Tensor(np.zeros(4)))
    p = _psn(np.eye(3), np.zeros(3))
    with pytest.raises(ShapeMismatchError):
        psn_forward(Tensor(np.zeros((4, 2))), p)  # wrong T
    with pytest.raises(ShapeMismatchError):
        psn_forward(Tensor(np.zeros(3)), p)  # not 2-D


def test_create_initializes_unit_thresholds():
    p = PSNParams.create(8, np.random.default_rng(42))
    np.testing.assert_array_equal(p.threshold.data, np.ones(8))
    assert p.weight.data.shape == (8, 8)
    assert p.weight.data.dtype == p.threshold.data.dtype == np.float32
    assert p.weight.requires_grad and p.threshold.requires_grad


def test_single_step_psn_is_a_thresholded_scale():
    p = _psn([[2.0]], [1.0])
    trace = psn_forward(Tensor(np.array([[0.4, 0.6]])), p)
    np.testing.assert_allclose(trace.h.data, [[0.8, 1.2]])
    np.testing.assert_array_equal(trace.s.data, [[0.0, 1.0]])


# ----------------------------------------------------------------- masked


def test_build_mask_band_examples():
    m = build_mask(3, 2).data
    np.testing.assert_array_equal(m, [[1, 0, 0], [1, 1, 0], [0, 1, 1]])
    np.testing.assert_array_equal(build_mask(3, 3).data,
                                  np.tril(np.ones((3, 3))))
    np.testing.assert_array_equal(build_mask(3, 1).data, np.eye(3))


def test_build_mask_order_bounds():
    for k in (0, 4, -1):
        with pytest.raises(ContractError):
            build_mask(3, k)


def test_blend_mask_endpoints_and_midpoint():
    p = MaskedPSNParams(*_dense(3, np.random.default_rng(42)), 1)
    p.set_lambda(0.0)
    np.testing.assert_array_equal(p.blended.data, np.ones((3, 3)))
    p.set_lambda(1.0)
    np.testing.assert_array_equal(p.blended.data, p.mask.data)
    p.set_lambda(0.5)
    mid = p.blended.data
    assert mid[1, 0] == 0.5 and mid[1, 1] == 1.0 and p.lam == 0.5


def test_blend_mask_range_check():
    p = MaskedPSNParams(*_dense(2, np.random.default_rng(42)), 1, lam=0.5)
    for lam in (-0.1, 1.1):
        with pytest.raises(ContractError):
            p.set_lambda(lam)
    assert p.lam == 0.5


def test_masked_at_lambda_zero_is_dense_psn():
    rng = np.random.default_rng(43)
    T = 6
    p = MaskedPSNParams(*_dense(T, rng), 2, lam=0.0)
    x = Tensor(rng.standard_normal((T, 4)))
    masked = masked_psn_forward(x, p)
    dense = psn_forward(x, PSNParams(p.weight, p.threshold))
    np.testing.assert_allclose(masked.h.data, dense.h.data, atol=1e-12)
    np.testing.assert_array_equal(masked.s.data, dense.s.data)


def test_masked_full_width_band_is_causal_dense():
    rng = np.random.default_rng(44)
    T = 5
    p = MaskedPSNParams(*_dense(T, rng), T)
    x = Tensor(rng.standard_normal((T, 3)))
    masked = masked_psn_forward(x, p)
    tril = PSNParams(Tensor(np.tril(p.weight.data)), p.threshold)
    np.testing.assert_allclose(masked.h.data, psn_forward(x, tril).h.data,
                               atol=1e-12)


def test_masked_lambda_one_is_causal():
    # Fully masked: perturbing a future input cannot move the charge.
    rng = np.random.default_rng(45)
    T, k = 6, 2
    p = MaskedPSNParams(*_dense(T, rng), k)
    x0 = rng.standard_normal((T, 2))
    x1 = x0.copy()
    x1[4] += 10.0
    h0 = masked_psn_forward(Tensor(x0), p).h.data
    h1 = masked_psn_forward(Tensor(x1), p).h.data
    np.testing.assert_array_equal(h0[:4], h1[:4])


def test_mask_gradient_never_reaches_masked_entries():
    rng = np.random.default_rng(46)
    T, k = 5, 2
    p = MaskedPSNParams(*_dense(T, rng), k)
    x = Tensor(rng.standard_normal((T, 3)))
    with Tape() as tape:
        trace = masked_psn_forward(x, p)
        tape.backward(sum_all(trace.s))
    off_band = p.mask.data == 0.0
    np.testing.assert_array_equal(p.weight.grad[off_band],
                                  np.zeros(off_band.sum()))


def test_masked_order_bounds_and_lambda_range():
    rng = np.random.default_rng(47)
    with pytest.raises(ContractError):
        MaskedPSNParams.create(4, 5, rng)
    with pytest.raises(ContractError):
        MaskedPSNParams.create(4, 0, rng)
    p = MaskedPSNParams.create(4, 2, rng)
    with pytest.raises(ContractError):
        p.set_lambda(1.5)


def test_lambda_schedule_values():
    assert lambda_schedule(0, 256) == 0.0
    assert lambda_schedule(16, 256) == pytest.approx(8 * 16 / 255)
    assert lambda_schedule(32, 256) == 1.0
    assert lambda_schedule(255, 256) == 1.0
    # Saturates at one-eighth of the run.
    epochs = 17
    sat = int(np.ceil((epochs - 1) / 8))
    assert lambda_schedule(sat, epochs) == 1.0
    assert lambda_schedule(sat - 1, epochs) < 1.0


def test_lambda_schedule_is_monotone():
    vals = [lambda_schedule(e, 50) for e in range(50)]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    assert vals[0] == 0.0 and vals[-1] == 1.0


def test_lambda_schedule_bounds():
    with pytest.raises(ContractError):
        lambda_schedule(0, 1)
    with pytest.raises(ContractError):
        lambda_schedule(-1, 10)
    with pytest.raises(ContractError):
        lambda_schedule(10, 10)


# ---------------------------------------------------------------- sliding


def test_spsn_matrix_hand_case():
    p = SlidingPSNParams(Tensor(np.array([2.0, 3.0])),
                         Tensor(np.asarray(1.0)))
    a = spsn_build_A(p, 3).data
    np.testing.assert_array_equal(a, [[3.0, 0.0, 0.0],
                                      [2.0, 3.0, 0.0],
                                      [0.0, 2.0, 3.0]])


def test_spsn_matrix_order_one_is_scaled_identity():
    p = SlidingPSNParams(Tensor(np.array([4.0])), Tensor(np.asarray(1.0)))
    np.testing.assert_array_equal(spsn_build_A(p, 3).data, 4.0 * np.eye(3))


def test_spsn_matrix_kernel_longer_than_sequence():
    p = SlidingPSNParams(Tensor(np.array([1.0, 2.0, 3.0, 4.0])),
                         Tensor(np.asarray(1.0)))
    a = spsn_build_A(p, 2).data
    np.testing.assert_array_equal(a, [[4.0, 0.0], [3.0, 4.0]])


def test_default_kernel_impulse_response_halves():
    k = 4
    p = _sliding(k)
    x = np.zeros((7, 1))
    x[0] = 1.0
    h = spsn_forward(Tensor(x), p).h.data[:, 0]
    expect = np.array([2.0 ** -t if t < k else 0.0 for t in range(7)])
    np.testing.assert_allclose(h, expect, rtol=1e-12)


def test_spsn_conv_and_matmul_paths_agree():
    rng = np.random.default_rng(48)
    for k in (1, 2, 5, 8):
        p = _sliding(k)
        x = rng.standard_normal((32, 4))
        h = spsn_forward(Tensor(x), p).h.data
        np.testing.assert_allclose(
            h, verify._conv_charge(p.kernel.data, x), atol=1e-6)


def test_spsn_is_time_invariant_inside_the_band():
    rng = np.random.default_rng(49)
    k, T = 3, 12
    p = _sliding(k)
    x = rng.standard_normal((T, 2))
    shifted = np.vstack([np.zeros((1, 2)), x[:-1]])
    h = spsn_forward(Tensor(x), p).h.data
    hs = spsn_forward(Tensor(shifted), p).h.data
    np.testing.assert_allclose(hs[1:], h[:-1], rtol=1e-12)


def test_spsn_kernel_gradient_sums_diagonals():
    rng = np.random.default_rng(50)
    p = _sliding(3)
    p.kernel.data[:] = rng.standard_normal(3)
    proj = rng.standard_normal((6, 6))
    with Tape() as tape:
        a = spsn_build_A(p, 6)
        tape.backward(sum_all(mul(a, Tensor(proj))))
    expect = np.array([np.trace(proj, offset=-(3 - 1 - i)) for i in range(3)])
    np.testing.assert_allclose(p.kernel.grad, expect, rtol=1e-12)


def test_sliding_param_validation():
    with pytest.raises(ContractError):
        SlidingPSNParams(Tensor(np.zeros((2, 2))), Tensor(np.asarray(1.0)))
    with pytest.raises(ContractError):
        SlidingPSNParams(Tensor(np.ones(2)), Tensor(np.ones(1)))
    with pytest.raises(ContractError):
        SlidingPSNParams.create(0)


def _banded_step(make_params, x0, r0):
    """(h, s, x.grad, *parameter grads) of one surrogate training step."""
    p = make_params()
    x = Tensor(x0, requires_grad=True)
    with Tape() as tape:
        trace = p.forward(x)
        tape.backward(sum_all(mul(trace.s, Tensor(r0))))
    return [trace.h.data, trace.s.data, x.grad,
            *(t.grad for t in p.parameters())]


def _charge_grad(make_params, h0, r0):
    """The gradient reaching the charge h, from its spikes alone."""
    h = Tensor(h0, requires_grad=True)
    with Tape() as tape:
        spikes = heaviside_surrogate(h, make_params().threshold)
        tape.backward(sum_all(mul(spikes, Tensor(r0))))
    return h.grad


@pytest.mark.parametrize("kind", ["masked-psn", "spsn"])
def test_banded_step_is_the_dense_step_up_to_the_weight_gradient(
        kind, monkeypatch):
    """h, s, x.grad and the threshold gradient keep the dense run's bits.

    The charge matrix's own gradient is summed only on its band, by a
    sliding window in another order than the dense product, so the weight
    (masked) and kernel (sliding) gradients are held to a float64
    reference: per entry within the product's rounding bound
    2 N eps |g| |x|.T, and for the kernel that bound summed along each
    diagonal.
    """
    T, N, k = 64, 4096, 4
    rng = np.random.default_rng(52)
    x0 = rng.standard_normal((T, N), dtype=np.float32)
    r0 = rng.standard_normal((T, N), dtype=np.float32)
    if kind == "spsn":
        def make_params():
            return SlidingPSNParams.create(k)
    else:
        def make_params():
            return MaskedPSNParams.create(T, k, np.random.default_rng(53))

    calls = []
    for name in ("_band_product", "_band_weight_grad"):
        monkeypatch.setattr(tensor, name, lambda *args, name=name,
                            real=getattr(tensor, name):
                            calls.append(name) or real(*args))
    banded = _banded_step(make_params, x0, r0)
    # The forward and the gradient of x, then the charge matrix's gradient.
    want_calls = ["_band_product", "_band_product", "_band_weight_grad"]
    assert sorted(calls) == want_calls
    monkeypatch.setattr(parallel, "matmul",
                        lambda a, b, band=None: tensor.matmul(a, b))
    dense = _banded_step(make_params, x0, r0)
    assert sorted(calls) == want_calls
    for i in (0, 1, 2, 4):  # h, s, x.grad, threshold grad
        got, want = banded[i], dense[i]
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    g = _charge_grad(make_params, banded[0], r0).astype(np.float64)
    x64 = x0.astype(np.float64)
    want = g @ x64.T
    bound = 2 * N * np.finfo(np.float32).eps * (np.abs(g) @ np.abs(x64).T)
    if kind == "spsn":
        depth = np.arange(k)
        want = np.array([np.trace(want, -d) for d in depth])[::-1]
        bound = np.array([np.trace(bound, -d) for d in depth])[::-1]
    else:
        mask = build_mask(T, k).data
        want, bound = want * mask, bound * mask
    for got in (banded[3], dense[3]):
        assert got.dtype == np.float32
        assert np.all(np.abs(got - want) <= bound)


def test_all_family_spikes_are_binary():
    rng = np.random.default_rng(51)
    x = Tensor(rng.standard_normal((8, 5)))
    traces = [
        psn_forward(x, PSNParams(*_dense(8, rng))),
        masked_psn_forward(x, MaskedPSNParams(*_dense(8, rng), 3)),
        spsn_forward(x, _sliding(3)),
    ]
    for trace in traces:
        assert set(np.unique(trace.s.data)) <= {0.0, 1.0}


# ------------------------------------------------------- untaped column walk


def _family(kind, T, dtype):
    rng = np.random.default_rng([54, T])
    if kind == "psn":
        return PSNParams(*_dense(T, rng, dtype))
    if kind == "spsn":
        return _sliding(min(3, T), dtype)
    lam = float(kind.rpartition("-")[2])
    return MaskedPSNParams(*_dense(T, rng, dtype), min(3, T), lam=lam)


def _family_input(T, N, dtype):
    """Spiking-range values with NaN, +-inf and -0.0 at columns of the
    first, a middle and the last block."""
    x = (1.5 * np.random.default_rng([55, T, N]).standard_normal(
        (T, N))).astype(dtype)
    cols = [0, N // 2, N - 1]
    x[0, cols] = [np.nan, np.inf, -0.0]
    x[T - 1, cols] = [-np.inf, -0.0, np.nan]
    return x


# With blocks of 8 columns (_COLS = 8 T elements): N=16 spans exactly two
# blocks (so the ops run); N=17 two blocks and a column; N=25 three and a
# column; N=100 many.
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("N", [16, 17, 25, 100])
@pytest.mark.parametrize("T", [1, 2, 5, 11, 12])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("relaxed", [False, True])
@pytest.mark.parametrize("kind",
                         ["psn", "masked-psn-1", "masked-psn-0.5", "spsn"])
def test_untaped_walk_is_the_taped_forward_bit_for_bit(kind, relaxed, dtype,
                                                      T, N, monkeypatch):
    monkeypatch.setattr(tensor, "_COLS", 8 * T)
    p = _family(kind, T, dtype)
    x0 = _family_input(T, N, dtype)
    x = Tensor(x0, requires_grad=True)
    with Tape() as tape:
        taped = p.forward(x, relaxed=relaxed)
    assert len(tape)
    free = p.forward(Tensor(x0), relaxed=relaxed)
    for got, want in ((free.h.data, taped.h.data),
                      (free.s.data, taped.s.data)):
        assert got.dtype == want.dtype == dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("kind", ["psn", "masked-psn-1", "spsn"])
def test_charge_fire_records_the_two_ops_or_walks_untaped(kind, monkeypatch):
    # A recording call (a tape is active and the input or a parameter
    # requires grad) tapes the charge matrix's op (masked: the blend;
    # sliding: the Toeplitz build), matmul and heaviside_surrogate, and
    # never walks. Any other call, evaluate()'s requires-grad input under
    # no_tape() included, records nothing and walks the blocks of 8
    # columns.
    monkeypatch.setattr(tensor, "_COLS", 32)
    fires = []
    fire = parallel._fire
    monkeypatch.setattr(parallel, "_fire",
                        lambda *a: fires.append(a) or fire(*a))
    T, N = 4, 40
    p = _family(kind, T, np.float32)
    x = Tensor(np.ones((T, N), np.float32), requires_grad=True)
    built = {"psn": [], "masked-psn-1": ["mul"], "spsn": ["spsn_build_A"]}
    for x_t in (x, Tensor(x.data)):
        with Tape() as tape:
            p.forward(x_t)
        assert [b.__qualname__.partition(".")[0]
                for _, _, b in tape._records] \
            == built[kind] + ["matmul", "heaviside_surrogate"]
    assert not fires
    with Tape() as tape:
        with no_tape():
            p.forward(x)
    free = p.forward(x)
    assert len(tape) == 0
    # Two walks of 5 blocks each: 4 x 40 elements in blocks of 32.
    assert len(fires) == 10
    # Two blocks run the ops: walking them was slower.
    p.forward(Tensor(np.ones((T, 16), np.float32)))
    assert len(fires) == 10
    # The walk's h and s start on a cache line and own their buffers.
    for arr in (free.h.data, free.s.data):
        assert tensor._owns_base(arr) and arr.ctypes.data % 64 == 0


def test_evaluate_walks_untaped(monkeypatch):
    monkeypatch.setattr(tensor, "_COLS", 16)
    fires = []
    fire = parallel._fire
    monkeypatch.setattr(parallel, "_fire",
                        lambda *a: fires.append(a) or fire(*a))
    rng = np.random.default_rng(56)
    batch = SequenceBatch(Tensor(rng.standard_normal((2, 24, 3))),
                          rng.integers(0, 2, 24))
    spec = ModelSpec(layers=(("linear", 3, 4), ("neuron", "psn", {}),
                             ("linear", 4, 2)), seed=1, num_steps=2)
    model = Model(spec, 3)
    with Tape() as tape:
        evaluate(model, batch)
    assert len(tape) == 0
    # 24 samples of 4 channels: 96 columns, 12 blocks of 8.
    assert len(fires) == 12


@pytest.mark.parametrize("T", [1, 2, 11, 12, 64])
@pytest.mark.parametrize("N", [0, 1, 16, 17, 24, 25, 33, 100, 1001])
def test_column_blocks_cover_every_column_once(T, N, monkeypatch):
    monkeypatch.setattr(tensor, "_COLS", 8 * T)
    cols = tensor._COLS // T
    blocks = tensor._column_blocks(T, T, N)
    assert [c for b in blocks for c in range(N)[b]] == list(range(N))
    if T > tensor._PIECE_MAX_K or N <= cols:
        assert list(blocks) == [slice(0, N)]
    else:
        assert len(blocks) == -(-N // cols)
        assert all(2 <= b.stop - b.start <= cols for b in blocks)
