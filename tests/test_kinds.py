"""The neuron-kind registry: every kind builds, runs, and names its tensors."""

import numpy as np
import pytest

from psn.errors import ContractError
from psn.neurons import (KINDS, ORDER_KINDS, MaskedPSNParams, PSNParams,
                        make, masked_psn_forward, parallel_no_reset,
                        psn_forward, spsn_forward, vanilla_sequence)
from psn.neurons.kinds import T_SIZED_KINDS
from psn.tensor import Tape, Tensor

# The public forward each kind's ``forward`` method must run.
_PUBLIC_FORWARD = {
    "psn": psn_forward, "masked-psn": masked_psn_forward,
    "spsn": spsn_forward, "if": vanilla_sequence, "lif": vanilla_sequence,
    "if-no-reset": parallel_no_reset, "lif-no-reset": parallel_no_reset,
}


def _opts(kind, k=3):
    return {"order": k} if kind in ORDER_KINDS else None


def test_kinds_and_order_kinds():
    assert KINDS == ("psn", "masked-psn", "spsn", "if", "lif",
                     "if-no-reset", "lif-no-reset")
    assert ORDER_KINDS == ("masked-psn", "spsn")


@pytest.mark.parametrize("kind", KINDS)
def test_every_kind_builds_and_fires(kind):
    T, N = 6, 5
    p = make(kind, T, np.random.default_rng(0), _opts(kind))
    x = np.random.default_rng(1).standard_normal((T, N)).astype(np.float32)
    with Tape() as tape:
        trace = p.forward(Tensor(x, requires_grad=True))
    assert trace.s.data.shape == (T, N)
    assert set(np.unique(trace.s.data)) <= {0.0, 1.0}
    # The serial and whole-sequence reset-free forwards can agree bit for
    # bit, so the tape length is what shows which one ran.
    with Tape() as ref_tape:
        ref = _PUBLIC_FORWARD[kind](Tensor(x, requires_grad=True), p)
    assert trace.s.data.tobytes() == ref.s.data.tobytes()
    assert len(tape) == len(ref_tape)


def test_make_parameter_shapes():
    T, k = 6, 4
    rng = np.random.default_rng(0)
    dense = {"weight": (T, T), "threshold": (T,)}
    expected = {"psn": dense, "masked-psn": dense,
                "spsn": {"kernel": (k,), "threshold": ()}}
    for kind in KINDS:
        p = make(kind, T, rng, _opts(kind, k))
        shapes = {name: getattr(p, name).data.shape for name in p.names}
        assert shapes == expected.get(kind, {}), kind
        if p.names:
            assert p.parameters() == [getattr(p, n) for n in p.names]


def test_make_draws_like_the_constructors():
    a = make("psn", 5, np.random.default_rng(3))
    b = PSNParams.create(5, np.random.default_rng(3))
    assert a.weight.data.tobytes() == b.weight.data.tobytes()
    m = make("masked-psn", 5, np.random.default_rng(3), {"order": 2})
    assert isinstance(m, MaskedPSNParams) and m.order_k == 2
    assert m.weight.data.tobytes() == b.weight.data.tobytes()


def test_make_rejects_bad_requests():
    rng = np.random.default_rng(0)
    with pytest.raises(ContractError, match="unknown neuron kind"):
        make("hodgkin-huxley", 4, rng)
    for kind, opts in (("psn", {"order": 2}), ("lif", {"leak": 0.5}),
                       ("lif", {"tau_m": 4.0}), ("if", {"reset_mode": "soft"}),
                       ("lif-no-reset", {"reset_mode": "hard"})):
        with pytest.raises(ContractError, match="unknown neuron options"):
            make(kind, 4, rng, opts)
    for kind in ORDER_KINDS:
        with pytest.raises(ContractError, match="order"):
            make(kind, 4, rng)
    with pytest.raises(ContractError):
        make("psn", None, rng)
    for num_steps in (0, -1, 2.5, "3", True):
        for kind in KINDS:
            with pytest.raises(ContractError, match="at least one time step"):
                make(kind, num_steps, rng, _opts(kind, 1))


@pytest.mark.parametrize("dtype", [np.int32, np.complex64, np.bool_])
@pytest.mark.parametrize("taped", [False, True])
@pytest.mark.parametrize("kind", KINDS)
def test_every_kind_rejects_a_non_float_input(kind, taped, dtype):
    T, N = 4, 6
    p = make(kind, T, np.random.default_rng(7), _opts(kind, 2))
    x0 = np.random.default_rng([7, T, N]).standard_normal((T, N))
    x = Tensor._make(x0.astype(dtype), taped)
    name = _PUBLIC_FORWARD[kind].__name__
    with Tape() as tape:
        with pytest.raises(ContractError,
                           match=f"^{name} needs a floating-point input"):
            p.forward(x)
    assert len(tape) == 0


@pytest.mark.parametrize("taped", [False, True])
@pytest.mark.parametrize("kind", KINDS)
def test_every_kind_rejects_an_input_that_is_not_t_by_n(kind, taped):
    # 0-d, 1-d and 3-d inputs, no time steps, and for the kinds whose
    # weights are T x T a T they were not built for.
    T, N = 4, 6
    p = make(kind, T, np.random.default_rng(7), _opts(kind, 2))
    shapes = [(), (T,), (T, 2, 3), (0, N)]
    if kind in T_SIZED_KINDS:
        shapes.append((T + 1, N))
    name = _PUBLIC_FORWARD[kind].__name__
    for shape in shapes:
        x = Tensor(np.ones(shape, np.float32), requires_grad=taped)
        with Tape() as tape:
            with pytest.raises(ContractError, match=f"^{name} "):
                p.forward(x)
        assert len(tape) == 0, shape
