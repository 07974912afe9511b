"""IF/LIF neurons: hand-computed traces, the taped loop vs the array loop,
the reset-free whole sequence against a float64 serial oracle."""

import dataclasses

import numpy as np
import pytest

from psn.bench import measure_memory, memory_summary
from psn.errors import ContractError
from psn.neurons import (SpikeTrace, VanillaNeuronParams,
                         heaviside_surrogate, parallel_no_reset, vanilla,
                         vanilla_sequence)
from psn.neurons.vanilla import apply_reset
from psn.tensor import (Tape, Tensor, mul, no_tape, split_rows, stack_rows,
                        sum_all, taped_op)
from psn.verify import _serial_charge


def _add(a, b):
    """a + b as one taped op, gradients (g, g): ``a.data + b.data``."""
    return taped_op((a, b), a.data + b.data, lambda gouts: gouts * 2)


def _scale(a, k):
    """a * k as one taped op for a python scalar k: ``a.data * dtype(k)``."""
    k = a.data.dtype.type(k)
    return taped_op((a,), a.data * k, lambda gouts: (gouts[0] * k,))


def _col(values):
    """(T,) list -> (T, 1) input tensor."""
    return Tensor(np.asarray(values, dtype=np.float64).reshape(-1, 1))


def test_if_hard_reset_single_step():
    # x = 1 reaches threshold exactly, fires, membrane drops to v_reset, so
    # the next step charges from 0.
    p = VanillaNeuronParams(kind="if", reset_mode="hard")
    trace = vanilla_sequence(_col([1.0, 0.25]), p)
    np.testing.assert_array_equal(trace.s.data[:, 0], [1.0, 0.0])
    np.testing.assert_array_equal(trace.h.data[:, 0], [1.0, 0.25])


def test_subthreshold_step_leaves_membrane():
    p = VanillaNeuronParams(kind="if", reset_mode="hard")
    trace = vanilla_sequence(_col([0.25, 0.25]), p)
    np.testing.assert_array_equal(trace.s.data[:, 0], [0.0, 0.0])
    np.testing.assert_allclose(trace.h.data[:, 0], [0.25, 0.5])


def test_lif_no_reset_halving_trace():
    p = VanillaNeuronParams(kind="lif", reset_mode="none")
    trace = parallel_no_reset(_col([1.0, 0.0, 0.0]), p)
    np.testing.assert_allclose(trace.h.data[:, 0], [0.5, 0.25, 0.125],
                               rtol=1e-12)
    np.testing.assert_array_equal(trace.s.data, np.zeros((3, 1)))


def test_lif_charge_formula():
    # h[1] = (1 - 1/2) * 0.75 + (1/2) * 2 from the sub-threshold h[0] = 0.75.
    p = VanillaNeuronParams(kind="lif", reset_mode="hard")
    trace = vanilla_sequence(_col([1.5, 2.0]), p)
    np.testing.assert_allclose(trace.h.data[:, 0], [0.75, 1.375])


def test_zero_input_never_fires():
    for kind in ("if", "lif"):
        p = VanillaNeuronParams(kind=kind, reset_mode="hard")
        trace = vanilla_sequence(Tensor(np.zeros((8, 3))), p)
        np.testing.assert_array_equal(trace.s.data, np.zeros((8, 3)))


def test_if_parallel_accumulates():
    p = VanillaNeuronParams(kind="if", reset_mode="none")
    trace = parallel_no_reset(_col([1.0, 1.0, 1.0]), p)
    np.testing.assert_allclose(trace.h.data[:, 0], [1.0, 2.0, 3.0])
    np.testing.assert_array_equal(trace.s.data[:, 0], [1.0, 1.0, 1.0])


@pytest.mark.parametrize("kind", ["if", "lif"])
def test_serial_and_parallel_agree_without_reset(kind):
    rng = np.random.default_rng([30, hash(kind) % 1000])
    p = VanillaNeuronParams(kind=kind, reset_mode="none")
    x = rng.standard_normal((33, 5))
    serial = _serial_charge(kind, x)
    par = parallel_no_reset(Tensor(x), p)
    np.testing.assert_allclose(par.h.data, serial, atol=1e-5)
    np.testing.assert_array_equal(par.s.data, serial >= p.v_th)


def test_parallel_rejects_an_empty_time_axis():
    p = VanillaNeuronParams(kind="lif", reset_mode="none")
    for shape in ((), (0, 2)):
        with pytest.raises(ContractError, match="^parallel_no_reset "):
            parallel_no_reset(Tensor(np.ones(shape)), p)


def test_parallel_rejects_reset_modes():
    p = VanillaNeuronParams(kind="if", reset_mode="hard")
    with pytest.raises(ContractError):
        parallel_no_reset(Tensor(np.ones((4, 2))), p)


def test_no_reset_membrane_dominates_hard_reset():
    # With non-negative drive, resetting can only lower the potential.
    rng = np.random.default_rng(31)
    x = Tensor(rng.uniform(0.0, 2.0, size=(12, 4)))
    free = parallel_no_reset(x, VanillaNeuronParams(kind="lif",
                                                    reset_mode="none"))
    hard = vanilla_sequence(x, VanillaNeuronParams(kind="lif",
                                                   reset_mode="hard"))
    assert np.all(free.h.data >= hard.h.data)


def test_spikes_are_binary_for_all_reset_modes():
    rng = np.random.default_rng(32)
    x = Tensor(rng.standard_normal((10, 6)) * 2)
    for mode in ("hard", "none"):
        p = VanillaNeuronParams(kind="if", reset_mode=mode)
        s = p.forward(x).s.data
        assert set(np.unique(s)) <= {0.0, 1.0}


def test_relaxed_hard_reset_matches_exact_on_binary_spikes():
    p = VanillaNeuronParams(kind="if", reset_mode="hard")
    h = Tensor(np.array([1.3, 0.4, 2.0]))
    s = Tensor(np.array([1.0, 0.0, 1.0]))
    exact = apply_reset(h, s, p, relaxed=False).data
    relaxed = apply_reset(h, s, p, relaxed=True).data
    np.testing.assert_allclose(relaxed, exact, rtol=1e-12)


# Every charge meets every spike: the select must equal np.where(s, +0.0, h)
# bit for bit, for any nonzero spike (NaN included) and with -0.0 counting
# as no spike.
_RESET_SPIKES = (0.0, 1.0, 0.5, 2.0, -0.0, np.nan)
_RESET_CHARGES = (np.inf, -np.inf, np.nan, -0.0, "subnormal", 1.3, -0.7)


def _exact(x, requires_grad=False):
    """A tensor over x as given: Tensor() would store float16 as float32."""
    return Tensor._make(x, requires_grad)


@pytest.mark.parametrize("dtype", [np.float16, np.float32, np.float64])
def test_exact_hard_reset_is_where_bit_for_bit(dtype):
    tiny = np.finfo(dtype).smallest_subnormal
    charges = np.array([tiny if c == "subnormal" else c
                        for c in _RESET_CHARGES], dtype=dtype)
    h = np.repeat(charges, len(_RESET_SPIKES))
    s = np.tile(np.array(_RESET_SPIKES, dtype=dtype), len(charges))
    p = VanillaNeuronParams(kind="if", reset_mode="hard")
    out = apply_reset(_exact(h), _exact(s), p).data
    want = np.where(s, dtype(0.0), h)
    assert out.dtype == h.dtype
    assert out.base is None
    bits = f"u{h.itemsize}"
    np.testing.assert_array_equal(out.view(bits), want.view(bits))


def test_exact_hard_reset_keeps_the_tracked_bytes():
    # The reset's output owns its buffer, as np.where's did, so the
    # tracker counts the same bytes as before. Each stack's two (1024,
    # 1024) weight gradients are padded product outputs, counted by their
    # base buffers: 64 bytes a row, 131072 bytes in all, above contiguous.
    *peaks, ratio = memory_summary(measure_memory(16, 1024))
    assert peaks == [17301504, 17825792, 17564736]
    assert round(ratio, 4) == 1.9917


def test_relaxed_hard_reset_interpolates_fractional_spikes():
    p = VanillaNeuronParams(kind="if", reset_mode="hard")
    h = Tensor(np.array([2.0]))
    half = apply_reset(h, Tensor(np.array([0.5])), p, relaxed=True).data
    np.testing.assert_allclose(half, [1.0])


@pytest.mark.parametrize("reset_mode", ["hard", "none"])
@pytest.mark.parametrize("kind", ["if", "lif"])
@pytest.mark.parametrize("T", [1, 2, 16])
def test_serial_loop_records_one_op_per_stage_and_step(T, kind, reset_mode,
                                                        monkeypatch):
    # Hard: a call records when x requires grad and a tape is active:
    # split_rows and stack_rows, then one charge op, one fire and one reset
    # per step, for IF and LIF alike. A relaxed call runs those ops too,
    # recorded or not. Any other call, evaluate()'s requires-grad input
    # under no_tape() included, runs the array loop. Reset-free: every call
    # runs the array loop, and a recording one records it as one op.
    calls = []
    array_loop = vanilla._array_loop
    monkeypatch.setattr(vanilla, "_array_loop",
                        lambda *a: calls.append(a) or array_loop(*a))
    p = VanillaNeuronParams(kind=kind, reset_mode=reset_mode)
    x = Tensor(np.ones((T, 3)), requires_grad=True)
    with Tape() as tape:
        p.forward(x)
    if reset_mode == "hard":
        assert len(tape) == 3 * T + 2
        assert not calls
    else:
        assert len(tape) == 1 and len(calls) == 1
    calls.clear()
    with Tape() as tape:
        p.forward(Tensor(np.ones((T, 3))))
        with no_tape():
            p.forward(x)
    p.forward(x)
    assert len(tape) == 0
    assert len(calls) == 3
    if reset_mode == "hard":
        calls.clear()
        with Tape() as tape:
            p.forward(x, relaxed=True)
        p.forward(x, relaxed=True)
        p.forward(Tensor(np.ones((T, 3))), relaxed=True)
        assert len(tape) == 3 * T + 2
        assert not calls


def _serial_input(shape, dtype):
    """Spiking-range values with NaN, +-inf, -0.0 and +-subnormals among
    them, at steps and columns fixed by the shape."""
    rng = np.random.default_rng([41, *shape])
    x = (1.5 * rng.standard_normal(shape)).astype(dtype)
    tiny = np.finfo(dtype).smallest_subnormal
    special = np.array([np.nan, np.inf, -np.inf, -0.0, tiny, -tiny], dtype)
    flat = x.reshape(-1)
    flat[rng.choice(flat.size, len(special), replace=False)] = special
    return x


def _assert_same_bits(got, want):
    for a, b in ((got.h.data, want.h.data), (got.s.data, want.s.data)):
        assert a.dtype == b.dtype and a.shape == b.shape
        np.testing.assert_array_equal(a.view(f"u{a.itemsize}"),
                                      b.view(f"u{b.itemsize}"))


def _taped(x, p, relaxed=False):
    with Tape() as tape:
        trace = vanilla_sequence(_exact(x, requires_grad=True),
                                 p, relaxed=relaxed)
    assert len(tape)
    return trace


def _taped_no_reset(x, p, relaxed=False):
    """The reset-free recurrence as taped ops per step, from h[0] = scale *
    x[0] with no +0.0 added, each step x*scale + h*decay as the array loop
    adds them."""
    lif = p.kind == "lif"
    decay, inv = (1 - 1 / p.tau_m, 1 / p.tau_m) if lif else (1, 1)
    with Tape() as tape:
        rows = split_rows(_exact(x, requires_grad=True))
        h = [_scale(rows[0], inv)]
        for x_t in rows[1:]:
            h.append(_add(_scale(x_t, inv), _scale(h[-1], decay)))
        h = stack_rows(h)
        s = heaviside_surrogate(h, p.v_th, relaxed=relaxed)
    assert len(tape)
    return SpikeTrace(s, h=h)


def _reference_hard_loop(x, p, relaxed):
    """(s, h) of the hard-reset loop taped one numpy call per op: per step
    a charge of ``_add`` (IF) or of two ``_scale``s and an ``_add`` (LIF),
    then the fire and reset ops. ``vanilla_sequence``'s one charge op must
    match it."""
    rows = split_rows(x)
    v = _exact(np.zeros(rows[0].data.shape, x.data.dtype))
    decay, k = 1 - 1 / p.tau_m, 1 / p.tau_m
    s_rows, h_rows = [], []
    for x_t in rows:
        h = (_add(v, x_t) if p.kind == "if"
             else _add(_scale(v, decay), _scale(x_t, k)))
        s = heaviside_surrogate(h, p.v_th, relaxed=relaxed)
        v = apply_reset(h, s, p, relaxed)
        s_rows.append(s)
        h_rows.append(h)
    return stack_rows(s_rows), stack_rows(h_rows)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("loss", ["sum_all", "random"])
@pytest.mark.parametrize("T", [1, 2, 16])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("relaxed", [False, True])
@pytest.mark.parametrize("kind", ["if", "lif"])
def test_taped_loop_is_the_reference_loop_bit_for_bit(kind, relaxed, dtype,
                                                      T, loss):
    # The one charge op per step against the public ops it replaces: h, s
    # and x.grad byte for byte. The random loss weights s and h by seeded
    # upstream gradients, so the reset's and the charge's backward both
    # carry values other than ones.
    x0 = _serial_input((T, 7), dtype)
    p = VanillaNeuronParams(kind=kind, reset_mode="hard")
    rng = np.random.default_rng([43, T])
    weights = [_exact(rng.standard_normal(x0.shape).astype(dtype))
               for _ in range(2)]

    def one_op_charge(x):
        trace = vanilla_sequence(x, p, relaxed=relaxed)
        return trace.s, trace.h

    got = []
    for run in (one_op_charge, lambda x: _reference_hard_loop(x, p, relaxed)):
        x = _exact(x0, requires_grad=True)
        with Tape() as tape:
            s, h = run(x)
            if loss == "sum_all":
                total = sum_all(s)
            else:
                total = _add(sum_all(mul(s, weights[0])),
                            sum_all(mul(h, weights[1])))
        tape.backward(total)
        got.append([h.data, s.data, x.grad])
    for a, b in zip(*got):
        assert a.dtype == b.dtype == dtype and a.shape == b.shape
        np.testing.assert_array_equal(a.view(f"u{a.itemsize}"),
                                      b.view(f"u{b.itemsize}"))


# With 8-element blocks, which split columns and rows: one row; N below, at
# and past a block and not a multiple of it; 15 columns over two blocks; 9
# rows of 2 columns in row blocks of 4, so the carry crosses row blocks
# within one column block.
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("shape", [(1, 13), (3, 6), (3, 8), (4, 13),
                                   (4, 15), (9, 2)])
@pytest.mark.parametrize("dtype", [np.float16, np.float32, np.float64])
@pytest.mark.parametrize("relaxed", [False, True])
@pytest.mark.parametrize("reset_mode", ["hard", "none"])
@pytest.mark.parametrize("kind", ["if", "lif"])
def test_in_place_loop_is_the_taped_loop_bit_for_bit(kind, reset_mode,
                                                     relaxed, dtype, shape,
                                                     monkeypatch):
    # Hard: the array loop against vanilla_sequence's taped loop, which
    # charges from +0.0, so a -0.0 input at t=0 gives h +0.0 on both. A
    # relaxed hard call runs the taped loop's ops unrecorded, so those cases
    # pin that recording leaves its bits alone.
    # Reset-free: the untaped parallel_no_reset against the taped steps of
    # _taped_no_reset, which keep h[0] = scale * x[0] (-0.0 stays -0.0).
    monkeypatch.setattr(vanilla, "_COLS", 8)
    x = _serial_input(shape, dtype)
    p = VanillaNeuronParams(kind=kind, reset_mode=reset_mode)
    free = p.forward(_exact(x), relaxed=relaxed)
    assert free.h.data.dtype == dtype
    taped = _taped if reset_mode == "hard" else _taped_no_reset
    _assert_same_bits(free, taped(x, p, relaxed))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("dtype", [np.float16, np.float32, np.float64])
@pytest.mark.parametrize("kind", ["if", "lif"])
def test_in_place_loop_keeps_the_taped_loops_nan_signs(kind, dtype):
    # A charge of two NaN operands returns the first operand's NaN on x86,
    # so columns of -nan then +nan, and of +nan then -nan, show a charge
    # whose operands the array loop takes in another order than the taped
    # loop. 20 columns of each, so numpy's vector loop and its tail both run.
    nan = np.array([-np.nan, np.nan], dtype)
    x = np.tile(np.stack([nan, nan[::-1]], axis=1), 20)
    assert np.signbit(x[0, ::2]).all() and not np.signbit(x[0, 1::2]).any()
    p = VanillaNeuronParams(kind=kind, reset_mode="hard")
    _assert_same_bits(vanilla_sequence(_exact(x), p),
                      _taped(x, p))


@pytest.mark.parametrize("kind", ["if", "lif"])
def test_in_place_loop_crosses_its_column_block_bit_for_bit(kind):
    x = 1.5 * np.random.default_rng(42).standard_normal(
        (3, vanilla._COLS + 5), dtype=np.float32)
    p = VanillaNeuronParams(kind=kind, reset_mode="hard")
    _assert_same_bits(vanilla_sequence(Tensor(x), p), _taped(x, p))


def test_in_place_loop_takes_steps_of_no_columns():
    x = np.ones((3, 0))
    p = VanillaNeuronParams(kind="lif", reset_mode="hard")
    _assert_same_bits(vanilla_sequence(Tensor(x), p), _taped(x, p))


@pytest.mark.parametrize("requires_grad", [False, True])
def test_serial_rejects_an_empty_time_axis(requires_grad):
    p = VanillaNeuronParams(kind="if", reset_mode="hard")
    for shape in ((), (0, 2)):
        x = Tensor(np.ones(shape), requires_grad=requires_grad)
        with Tape(), pytest.raises(ContractError,
                                   match="^vanilla_sequence "):
            vanilla_sequence(x, p)


def test_serial_refuses_the_reset_free_kinds():
    p = VanillaNeuronParams(kind="if", reset_mode="none")
    for requires_grad in (False, True):
        x = Tensor(np.ones((4, 2)), requires_grad=requires_grad)
        with Tape(), pytest.raises(ContractError, match="parallel_no_reset"):
            vanilla_sequence(x, p)


def test_param_validation():
    with pytest.raises(ContractError):
        VanillaNeuronParams(kind="izhikevich")
    with pytest.raises(ContractError):
        VanillaNeuronParams(reset_mode="bounce")
    with pytest.raises(ContractError):
        VanillaNeuronParams(reset_mode="soft")


def test_defaults():
    # Two settable fields; the constants are class attributes.
    fields = dataclasses.fields(VanillaNeuronParams)
    assert tuple(f.name for f in fields) == ("kind", "reset_mode")
    p = VanillaNeuronParams()
    assert (p.kind, p.reset_mode) == ("lif", "hard")
    assert (p.tau_m, p.v_th, p.v_reset) == (2.0, 1.0, 0.0)
    assert str(p.v_reset) == "0.0"  # +0.0, the select's one reset value
