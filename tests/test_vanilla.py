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
from psn.tensor import (Tape, Tensor, add, no_tape, scale, split_rows,
                        stack_rows)
from psn.verify import _serial_charge


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


@pytest.mark.parametrize("dtype", [np.float16, np.float32, np.float64])
def test_exact_hard_reset_is_where_bit_for_bit(dtype):
    tiny = np.finfo(dtype).smallest_subnormal
    charges = np.array([tiny if c == "subnormal" else c
                        for c in _RESET_CHARGES], dtype=dtype)
    h = np.repeat(charges, len(_RESET_SPIKES))
    s = np.tile(np.array(_RESET_SPIKES, dtype=dtype), len(charges))
    p = VanillaNeuronParams(kind="if", reset_mode="hard")
    out = apply_reset(Tensor(h, dtype=dtype), Tensor(s, dtype=dtype), p).data
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
    # split_rows and stack_rows, then charge (IF: add; LIF: two scale and an
    # add), fire and reset per step. The first LIF step records no scale of
    # the zero initial potential, which needs no grad. Any other call,
    # evaluate()'s requires-grad input under no_tape() included, runs the
    # array loop. Reset-free: every call runs the array loop, and a
    # recording one records it as one op.
    calls = []
    array_loop = vanilla._array_loop
    monkeypatch.setattr(vanilla, "_array_loop",
                        lambda *a: calls.append(a) or array_loop(*a))
    p = VanillaNeuronParams(kind=kind, reset_mode=reset_mode)
    x = Tensor(np.ones((T, 3)), requires_grad=True)
    with Tape() as tape:
        p.forward(x)
    if reset_mode == "hard":
        assert len(tape) == {"if": 3 * T + 2, "lif": 5 * T + 1}[kind]
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
        trace = vanilla_sequence(Tensor(x, requires_grad=True, dtype=x.dtype),
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
        rows = split_rows(Tensor(x, requires_grad=True, dtype=x.dtype))
        h = [scale(rows[0], inv)]
        for x_t in rows[1:]:
            h.append(add(scale(x_t, inv), scale(h[-1], decay)))
        h = stack_rows(h)
        s = heaviside_surrogate(h, p.v_th, relaxed=relaxed)
    assert len(tape)
    return SpikeTrace(s, h=h)


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
    # charges from +0.0, so a -0.0 input at t=0 gives h +0.0 on both.
    # Reset-free: the untaped parallel_no_reset against the taped steps of
    # _taped_no_reset, which keep h[0] = scale * x[0] (-0.0 stays -0.0).
    monkeypatch.setattr(vanilla, "_COLS", 8)
    x = _serial_input(shape, dtype)
    p = VanillaNeuronParams(kind=kind, reset_mode=reset_mode)
    free = p.forward(Tensor(x, dtype=dtype), relaxed=relaxed)
    assert free.h.data.dtype == dtype
    taped = _taped if reset_mode == "hard" else _taped_no_reset
    _assert_same_bits(free, taped(x, p, relaxed))


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
