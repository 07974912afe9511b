"""Step-form IF/LIF neurons: hand-computed traces, serial vs whole-sequence."""

import numpy as np
import pytest

from psn.bench import bench_memory
from psn.errors import ContractError
from psn.neurons import (VanillaNeuronParams, apply_reset, charge,
                        heaviside_surrogate, parallel_no_reset,
                        vanilla_sequence, vanilla_step)
from psn.tensor import (Tape, Tensor, add, mul, scalar_affine, split_rows,
                        stack_rows, sum_all)


def _col(values):
    """(T,) list -> (T, 1) input tensor."""
    return Tensor(np.asarray(values, dtype=np.float64).reshape(-1, 1))


def test_if_hard_reset_single_step():
    # x = 1 reaches threshold exactly, fires, membrane drops to v_reset.
    p = VanillaNeuronParams(kind="if", reset_mode="hard")
    v0 = Tensor(np.zeros(1))
    s, v, h = vanilla_step(Tensor(np.array([1.0])), v0, p)
    assert s.data[0] == 1.0
    assert h.data[0] == 1.0
    assert v.data[0] == 0.0


def test_if_soft_reset_keeps_surplus():
    p = VanillaNeuronParams(kind="if", reset_mode="soft")
    s, v, h = vanilla_step(Tensor(np.array([1.5])), Tensor(np.zeros(1)), p)
    assert s.data[0] == 1.0
    np.testing.assert_allclose(v.data, [0.5])


def test_subthreshold_step_leaves_membrane():
    p = VanillaNeuronParams(kind="if", reset_mode="hard")
    s, v, h = vanilla_step(Tensor(np.array([0.25])), Tensor(np.zeros(1)), p)
    assert s.data[0] == 0.0
    np.testing.assert_allclose(v.data, [0.25])


def test_lif_no_reset_halving_trace():
    p = VanillaNeuronParams(kind="lif", tau_m=2.0, reset_mode="none")
    trace = vanilla_sequence(_col([1.0, 0.0, 0.0]), p)
    np.testing.assert_allclose(trace.h.data[:, 0], [0.5, 0.25, 0.125],
                               rtol=1e-12)
    np.testing.assert_array_equal(trace.s.data, np.zeros((3, 1)))


def test_lif_charge_formula():
    p = VanillaNeuronParams(kind="lif", tau_m=4.0, reset_mode="none")
    h = charge(Tensor(np.array([2.0])), Tensor(np.array([1.0])), p)
    # h = (1 - 1/4) * 1 + (1/4) * 2
    np.testing.assert_allclose(h.data, [1.25])


def test_sequence_of_one_step_equals_single_step():
    p = VanillaNeuronParams(kind="lif", reset_mode="soft")
    x = np.array([[0.9, 2.1]])
    trace = vanilla_sequence(Tensor(x), p)
    s, v, h = vanilla_step(Tensor(x[0]), Tensor(np.zeros(2)), p)
    np.testing.assert_array_equal(trace.s.data[0], s.data)
    np.testing.assert_array_equal(trace.h.data[0], h.data)


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
    x = Tensor(rng.standard_normal((33, 5)))
    serial = vanilla_sequence(x, p)
    par = parallel_no_reset(x, p)
    np.testing.assert_allclose(par.h.data, serial.h.data, atol=1e-5)
    np.testing.assert_array_equal(par.s.data, serial.s.data)


def test_parallel_rejects_an_empty_time_axis():
    p = VanillaNeuronParams(kind="lif", reset_mode="none")
    with pytest.raises(ContractError):
        parallel_no_reset(Tensor(np.ones((0, 2))), p)


def test_parallel_rejects_reset_modes():
    x = Tensor(np.ones((4, 2)))
    for mode in ("hard", "soft"):
        p = VanillaNeuronParams(kind="if", reset_mode=mode)
        with pytest.raises(ContractError):
            parallel_no_reset(x, p)


def test_no_reset_membrane_dominates_soft_reset():
    # With non-negative drive, resetting can only lower the potential.
    rng = np.random.default_rng(31)
    x = Tensor(rng.uniform(0.0, 2.0, size=(12, 4)))
    free = vanilla_sequence(x, VanillaNeuronParams(kind="lif",
                                                   reset_mode="none"))
    soft = vanilla_sequence(x, VanillaNeuronParams(kind="lif",
                                                   reset_mode="soft"))
    assert np.all(free.h.data >= soft.h.data - 1e-12)


def test_spikes_are_binary_for_all_reset_modes():
    rng = np.random.default_rng(32)
    x = Tensor(rng.standard_normal((10, 6)) * 2)
    for mode in ("hard", "soft", "none"):
        p = VanillaNeuronParams(kind="if", reset_mode=mode)
        s = vanilla_sequence(x, p).s.data
        assert set(np.unique(s)) <= {0.0, 1.0}


def test_relaxed_hard_reset_matches_exact_on_binary_spikes():
    p = VanillaNeuronParams(kind="if", reset_mode="hard")
    h = Tensor(np.array([1.3, 0.4, 2.0]))
    s = Tensor(np.array([1.0, 0.0, 1.0]))
    exact = apply_reset(h, s, p, relaxed=False).data
    relaxed = apply_reset(h, s, p, relaxed=True).data
    np.testing.assert_allclose(relaxed, exact, rtol=1e-12)


# Every charge/spike pairing below meets every v_reset: the select must
# equal np.where(s, v_reset, h) bit for bit, for any nonzero spike (NaN
# included) and with -0.0 counting as no spike.
_RESET_SPIKES = (0.0, 1.0, 0.5, 2.0, -0.0, np.nan)
_RESET_CHARGES = (np.inf, -np.inf, np.nan, -0.0, "subnormal", 1.3, -0.7)


@pytest.mark.parametrize("dtype", [np.float16, np.float32, np.float64])
@pytest.mark.parametrize("v_reset", [0.0, -0.0, -0.25, 0.5])
def test_exact_hard_reset_is_where_bit_for_bit(dtype, v_reset):
    tiny = np.finfo(dtype).smallest_subnormal
    charges = np.array([tiny if c == "subnormal" else c
                        for c in _RESET_CHARGES], dtype=dtype)
    h = np.repeat(charges, len(_RESET_SPIKES))
    s = np.tile(np.array(_RESET_SPIKES, dtype=dtype), len(charges))
    p = VanillaNeuronParams(kind="if", reset_mode="hard", v_reset=v_reset)
    out = apply_reset(Tensor(h, dtype=dtype), Tensor(s, dtype=dtype), p).data
    want = np.where(s, dtype(v_reset), h)
    assert out.dtype == h.dtype
    assert out.base is None
    bits = f"u{h.itemsize}"
    np.testing.assert_array_equal(out.view(bits), want.view(bits))


def test_exact_hard_reset_keeps_the_tracked_bytes():
    # The reset's output owns its buffer, as np.where's did, so the
    # tracker counts the same bytes as before.
    *peaks, ratio = bench_memory(16, 1024)
    assert peaks == [17170432, 17694720, 17433664]
    assert round(ratio, 4) == 1.9917


def test_relaxed_hard_reset_interpolates_fractional_spikes():
    p = VanillaNeuronParams(kind="if", reset_mode="hard", v_reset=0.0)
    h = Tensor(np.array([2.0]))
    half = apply_reset(h, Tensor(np.array([0.5])), p, relaxed=True).data
    np.testing.assert_allclose(half, [1.0])


@pytest.mark.parametrize("kind", ["if", "lif"])
@pytest.mark.parametrize("reset_mode", ["hard", "soft"])
def test_detached_reset_gradient_matches_a_loop_oracle(kind, reset_mode):
    """detach_reset=True against a loop of generic ops that resets with
    s.detached(), both on the relaxed float64 forward."""
    rng = np.random.default_rng([34, len(kind), len(reset_mode)])
    x0 = rng.standard_normal((7, 4)) * 1.5
    proj = Tensor(rng.standard_normal((7, 4)))

    def input_grad(forward):
        x = Tensor(x0.copy(), requires_grad=True)
        with Tape() as tape:
            tape.backward(sum_all(mul(forward(x), proj)))
        return x.grad

    def oracle(x):
        v = Tensor(np.zeros(x0.shape[1]))
        spikes = []
        for x_t in split_rows(x):
            h = charge(x_t, v, p)
            s = heaviside_surrogate(h, p.v_th, relaxed=True)
            if reset_mode == "hard":  # h + s (v_reset - h)
                v = add(h, mul(s.detached(),
                               scalar_affine(h, -1.0, p.v_reset)))
            else:  # h - v_th s
                v = add(h, scalar_affine(s.detached(), -p.v_th, 0.0))
            spikes.append(s)
        return stack_rows(spikes)

    p = VanillaNeuronParams(kind=kind, reset_mode=reset_mode,
                            detach_reset=True)
    want = input_grad(oracle)
    got = input_grad(lambda x: vanilla_sequence(x, p, relaxed=True).s)
    np.testing.assert_allclose(got, want, rtol=1e-12)
    honest = VanillaNeuronParams(kind=kind, reset_mode=reset_mode)
    assert np.abs(input_grad(
        lambda x: vanilla_sequence(x, honest, relaxed=True).s) - want
    ).max() > 1e-4


@pytest.mark.parametrize("reset_mode", ["hard", "soft"])
@pytest.mark.parametrize("kind", ["if", "lif"])
@pytest.mark.parametrize("T", [1, 2, 16])
def test_serial_loop_records_one_op_per_stage_and_step(T, kind, reset_mode):
    # split_rows and stack_rows, then charge (IF: add; LIF: two
    # scalar_affine and an add), fire and reset per step. The first LIF
    # step records no scalar_affine of the zero initial potential, which
    # needs no grad.
    p = VanillaNeuronParams(kind=kind, reset_mode=reset_mode)
    x = Tensor(np.ones((T, 3)), requires_grad=True)
    with Tape() as tape:
        vanilla_sequence(x, p)
    assert len(tape) == {"if": 3 * T + 2, "lif": 5 * T + 1}[kind]
    with Tape() as tape:
        vanilla_sequence(Tensor(np.ones((T, 3))), p)
    assert len(tape) == 0


def test_param_validation():
    with pytest.raises(ContractError):
        VanillaNeuronParams(kind="izhikevich")
    with pytest.raises(ContractError):
        VanillaNeuronParams(reset_mode="bounce")
    with pytest.raises(ContractError):
        VanillaNeuronParams(kind="lif", tau_m=1.0)
    with pytest.raises(ContractError):
        VanillaNeuronParams(reset_mode="hard", v_th=0.0, v_reset=0.5)


def test_defaults():
    p = VanillaNeuronParams()
    assert (p.kind, p.tau_m, p.v_th, p.v_reset) == ("lif", 2.0, 1.0, 0.0)
    assert p.reset_mode == "hard" and p.detach_reset is False
