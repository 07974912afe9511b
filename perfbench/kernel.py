"""One neuron layer, timed alone: inputs, parameters, steps and oracles.

A *step* is what one training iteration of the layer costs: a taped
forward, ``sum_all`` of the spikes, then ``Tape.backward``. An *infer* is the
untaped forward. Both go only through the public forward functions of
``psn.neurons``, looked up at call time so the traced run can wrap them.

Every output is checked against a reference that plain numpy computes in
float64 during set-up, independently of the library's own code paths:

- PSN kinds: the charge H = W_eff X, and the spikes away from threshold
  ties (|H - B| within the float32 rounding bound of the GEMM);
- ``lif``: the hard-reset loop; a column that comes near the threshold
  anywhere is excluded, because a flipped spike changes all later steps;
- ``lif-no-reset``: the leaky recurrence, within a fixed tolerance.

Gradients of a step must exist and be finite.
"""

import numpy as np
from psn import neurons
from psn.tensor import Tape, Tensor, sum_all

KINDS = ("psn", "masked-psn", "spsn", "lif", "lif-no-reset")
PSN_KINDS = ("psn", "masked-psn", "spsn")
INFER_KINDS = ("psn", "lif", "lif-no-reset")

MASK_ORDER = 4  # k of masked-psn and spsn, capped at T
_FORWARD = {"psn": "psn_forward", "masked-psn": "masked_psn_forward",
            "spsn": "spsn_forward", "lif": "vanilla_sequence",
            "lif-no-reset": "parallel_no_reset"}
# The recurrence tolerance: float32 charges of order 1-10 carry about 1e-6
# rounding, a scan reorders the sums, and 1e-4 still fails a real fault.
_RECURRENCE_TOL = 1e-4
_EPS32 = float(np.finfo(np.float32).eps)


def make_input(seed, T, N):
    rng = np.random.default_rng([seed, T, N])
    return rng.standard_normal((T, N), dtype=np.float32)


def make_params(kind, T, rng):
    if kind == "psn":
        return neurons.PSNParams.create(T, rng)
    if kind == "masked-psn":
        return neurons.MaskedPSNParams.create(T, min(MASK_ORDER, T), rng)
    if kind == "spsn":
        return neurons.SlidingPSNParams.create(min(MASK_ORDER, T))
    reset = "hard" if kind == "lif" else "none"
    return neurons.VanillaNeuronParams(kind="lif", reset_mode=reset)


def forward(kind, x, params):
    return getattr(neurons, _FORWARD[kind])(x, params)


def param_tensors(params):
    return params.parameters() if hasattr(params, "parameters") else []


class Reference:
    """Expected charge and spikes; ``tie`` marks entries not compared."""

    def __init__(self, h, spikes, tie, tol):
        self.h = h.astype(np.float32)
        self.spikes = spikes
        self.tie = tie
        self.tol = float(tol)


def _charge_matrix(kind, params, T):
    """W_eff in float64, rebuilt from the parameter values alone."""
    if kind == "spsn":
        kernel = params.kernel.data.astype(np.float64)
        k = kernel.shape[0]
        a = np.zeros((T, T))
        for d in range(min(k, T)):
            idx = np.arange(d, T)
            a[idx, idx - d] = kernel[k - 1 - d]
        return a
    w = params.weight.data.astype(np.float64)
    if kind == "masked-psn":
        k = params.order_k
        ones = np.ones((T, T))
        w = w * (np.tril(ones) - np.tril(ones, -k))
    return w


def reference(kind, x, params):
    T = x.shape[0]
    x64 = x.astype(np.float64)
    if kind in PSN_KINDS:
        w = _charge_matrix(kind, params, T)
        h = w @ x64
        th = params.threshold.data.astype(np.float64)
        th = th.reshape(-1, 1) if th.ndim == 1 else th
        # A float32 GEMM of length T is off by at most about T eps sum|w x|.
        tol = 2.0 * T * _EPS32 * float((np.abs(w) @ np.abs(x64)).max()) + 1e-6
        gap = np.abs(h - th)
        return Reference(h, h >= th, gap <= tol, tol)

    p = params
    decay = 1.0 - 1.0 / p.tau_m
    h = np.empty_like(x64)
    v = np.zeros(x64.shape[1:])
    for t in range(T):
        ht = decay * v + x64[t] / p.tau_m
        h[t] = ht
        v = np.where(ht >= p.v_th, p.v_reset, ht) if kind == "lif" else ht
    tie = np.abs(h - p.v_th) <= _RECURRENCE_TOL
    if kind == "lif":
        tie[:, tie.any(axis=0)] = True
    return Reference(h, h >= p.v_th, tie, _RECURRENCE_TOL)


def check_trace(ref, trace):
    """None if the trace matches the reference, else why it does not."""
    s = trace.s.data
    h = trace.h.data
    if s.shape != ref.spikes.shape or h.shape != ref.h.shape:
        return f"output shape {s.shape}/{h.shape}, expected {ref.spikes.shape}"
    if not np.isfinite(h).all():
        return "non-finite charge"
    fired = s != 0
    if np.count_nonzero(s[fired] != 1):
        return "spike values outside {0, 1}"
    wrong = (fired != ref.spikes) & ~ref.tie
    if wrong.any():
        return f"{np.count_nonzero(wrong)} spikes differ from the reference"
    off = (np.abs(h - ref.h) > ref.tol) & ~ref.tie
    if off.any():
        return (f"{np.count_nonzero(off)} charges differ from the reference "
                f"by more than {ref.tol:.3g}")
    return None


def check_grads(tensors):
    for t in tensors:
        if t.grad is None:
            return "missing gradient"
        if not np.isfinite(t.grad).all():
            return "non-finite gradient"
    return None


class KernelCase:
    """One kind at one (T, N): its input, parameters and reference."""

    def __init__(self, kind, x, rng):
        self.kind = kind
        self.x = x
        self.params = make_params(kind, x.shape[0], rng)
        self.ref = reference(kind, x, self.params)

    def step(self):
        for p in param_tensors(self.params):
            p.zero_grad()
        x = Tensor(self.x, requires_grad=True)
        with Tape() as tape:
            trace = forward(self.kind, x, self.params)
            tape.backward(sum_all(trace.s))
        return trace, x

    def check_step(self, out):
        trace, x = out
        return (check_trace(self.ref, trace)
                or check_grads([x] + param_tensors(self.params)))

    def infer(self):
        return forward(self.kind, Tensor(self.x), self.params)

    def check_infer(self, trace):
        return check_trace(self.ref, trace)

