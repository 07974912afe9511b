"""User-facing self-check suites.

Each suite re-derives an equivalence the library is built on and checks the
shipped kernels against it: the serial loop against the whole-sequence
reset-free recurrence, the dense parallel neuron against the integrate-only
kinds it subsumes, the banded mask against its index predicate, the sliding
charge against a kernel slid over the input, and every analytic gradient
against central finite differences.

Suites run in float64 regardless of the training dtype. The equivalences are
algebraic identities; running them at float32 would bound the comparison by
accumulated rounding (measured up to ~1e-5 on the largest grid cells) instead
of by correctness, and a red suite must mean a wrong kernel, not a rounding
tail. Each failure carries the exact (T, N, seed) that produced it so a red
run is reproducible in isolation.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError
from .neurons import (MaskedPSNParams, PSNParams, SlidingPSNParams,
                      VanillaNeuronParams, build_mask, masked_psn_forward,
                      parallel_no_reset, psn_forward, spsn_build_A,
                      spsn_forward, vanilla_sequence)
from .tensor import Tape, Tensor, mul, sum_all
from .training.model import LinearLayer

H_ATOL = 1e-5
CONV_ATOL = 1e-6
GRAD_RTOL = 1e-3
GRAD_ATOL = 1e-8

_MAX_LISTED_FAILURES = 5


@dataclass
class SuiteResult:
    name: str
    passed: bool
    cases: int
    failures: list = field(default_factory=list)
    wall_time_seconds: float = 0.0

    def line(self):
        if self.passed:
            return (f"PASS {self.name} ({self.cases} cases, "
                    f"{self.wall_time_seconds:.1f}s)")
        shown = "; ".join(self.failures[:_MAX_LISTED_FAILURES])
        more = len(self.failures) - _MAX_LISTED_FAILURES
        if more > 0:
            shown += f"; and {more} more"
        return (f"FAIL {self.name} ({len(self.failures)} of {self.cases} "
                f"cases): {shown}")


def _timed(name, body):
    t0 = time.perf_counter()
    cases, failures = body()
    return SuiteResult(name, not failures, cases, failures,
                       time.perf_counter() - t0)


def suite_serial_parallel(t_values=range(2, 65), n_values=(1, 16, 256),
                          num_seeds=100):
    """The whole-sequence charge and firing must match the step loop without
    reset."""
    t_values = tuple(t_values)

    def body():
        cases = 0
        failures = []
        for kind in ("if", "lif"):
            p = VanillaNeuronParams(kind=kind, reset_mode="none")
            for T in t_values:
                for N in n_values:
                    for seed in range(num_seeds):
                        rng = np.random.default_rng([101, T, N, seed])
                        x = rng.standard_normal((T, N))
                        serial = vanilla_sequence(Tensor(x), p)
                        par = parallel_no_reset(Tensor(x), p)
                        cases += 1
                        h_ser = serial.h.data
                        h_par = par.h.data
                        dh = float(np.abs(h_ser - h_par).max())
                        # Spikes are only decidable where the charge clears
                        # the threshold by more than the tolerance itself.
                        decidable = np.abs(h_ser - p.v_th) > H_ATOL
                        ds = np.any((serial.s.data != par.s.data) & decidable)
                        if dh > H_ATOL or ds:
                            failures.append(
                                f"(T={T}, N={N}, seed={seed}, kind={kind}, "
                                f"max|dH|={dh:.3g})")
        return cases, failures

    return _timed("serial-parallel", body)


def _subsumption_weight(kind, T):
    t = np.arange(T)
    step = (t[:, None] >= t[None, :]).astype(float)
    if kind == "if":
        return step
    tau = VanillaNeuronParams.tau_m
    return (1.0 / tau) * (1.0 - 1.0 / tau) ** (t[:, None] - t[None, :]) * step


# T=64 over 8192 float64 columns (rows of 64 KiB, 4 MiB) writes the dense
# charge into a padded, non-contiguous product output; N=32 never does.
_PADDED_T, _PADDED_N = 64, 8192


def suite_psn_subsumption(t_values=range(1, 65), num_seeds=5, N=32):
    """Closed-form weights must reproduce the integrate-only neurons.

    Lower-triangular ones give the running sum; the geometric band gives the
    leaky version. Spikes must agree exactly, charge to tolerance.
    """

    def body():
        cases = 0
        failures = []
        grid = [(T, N) for T in t_values] + [(_PADDED_T, _PADDED_N)]
        for kind in ("if", "lif"):
            vp = VanillaNeuronParams(kind=kind, reset_mode="none")
            for T, n in grid:
                w = _subsumption_weight(kind, T)
                pp = PSNParams(Tensor(w), Tensor(np.full(T, vp.v_th)))
                for seed in range(num_seeds):
                    rng = np.random.default_rng([211, T, seed])
                    x = rng.standard_normal((T, n))
                    ref = parallel_no_reset(Tensor(x), vp)
                    got = psn_forward(Tensor(x), pp)
                    cases += 1
                    dh = float(np.abs(ref.h.data - got.h.data).max())
                    same_spikes = np.array_equal(ref.s.data, got.s.data)
                    if dh > H_ATOL or not same_spikes:
                        failures.append(
                            f"(T={T}, N={n}, seed={seed}, kind={kind}, "
                            f"max|dH|={dh:.3g}, spikes_equal={same_spikes})")
        return cases, failures

    return _timed("psn-subsumption", body)


# T=40 runs the forward charge as matmul's block-banded product (five row
# blocks), which the small grid never reaches; it is checked at 3 orders.
# The banded gradients are the grad suite's "-banded" cases.
_BANDED_T, _BANDED_ORDERS = 40, (1, 4, 39)


def suite_mask_causality(max_T=8, num_seeds=3, N=4, delta=0.75):
    """The band predicate, and zero leakage outside it at full masking."""

    def body():
        cases = 0
        failures = []
        for T in (*range(1, max_T + 1), _BANDED_T):
            for k in (range(1, T + 1) if T <= max_T else _BANDED_ORDERS):
                mask = build_mask(T, k).data
                t = np.arange(T)[:, None]
                i = np.arange(T)[None, :]
                oracle = ((i >= t - k + 1) & (i <= t)).astype(mask.dtype)
                cases += 1
                if not np.array_equal(mask, oracle):
                    failures.append(f"(T={T}, k={k}, mask!=predicate)")
                    continue
                for seed in range(num_seeds):
                    rng = np.random.default_rng([223, T, k, seed])
                    p = MaskedPSNParams(
                        Tensor(rng.standard_normal((T, T))),
                        Tensor(np.ones(T)), k, lam=1.0)
                    x = rng.standard_normal((T, N))
                    base = masked_psn_forward(Tensor(x), p).h.data
                    for t_out in range(T):
                        lo = t_out - k + 1
                        for i_in in range(T):
                            if lo <= i_in <= t_out:
                                continue
                            bumped = x.copy()
                            bumped[i_in] += delta
                            h = masked_psn_forward(Tensor(bumped), p).h.data
                            cases += 1
                            if h[t_out].tobytes() != base[t_out].tobytes():
                                failures.append(
                                    f"(T={T}, k={k}, seed={seed}, "
                                    f"t={t_out}, i={i_in}, leak)")
        return cases, failures

    return _timed("mask-causality", body)


def _toeplitz_oracle(kernel, T):
    k = kernel.shape[0]
    a = np.zeros((T, T), dtype=kernel.dtype)
    for t in range(T):
        for i in range(T):
            d = t - i
            if 0 <= d <= k - 1:
                a[t, i] = kernel[k - 1 - d]
    return a


def _conv_charge(kernel, x):
    """The sliding charge in float64 by sliding the kernel over x directly."""
    k, T = kernel.shape[0], x.shape[0]
    padded = np.concatenate([np.zeros((k - 1,) + x.shape[1:]), x])
    h = np.zeros(x.shape)
    for i in range(k):
        h += kernel[i] * padded[i:i + T]
    return h


# T=64 at orders 1 and 4 over 40001 columns runs the sliding charge's band
# blocks in column pieces, which N=16 never reaches.
_SPLIT_T, _SPLIT_ORDERS, _SPLIT_N = 64, (1, 4), 40001


def suite_conv_vs_matmul(t_values=(1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64),
                         num_seeds=5, N=16):
    """The sliding charge against a slid kernel, and the banded matrix
    against brute force."""

    def body():
        cases = 0
        failures = []
        grid = [(T, k, N) for T in t_values for k in (1, 2, 4, 8, T)]
        grid += [(_SPLIT_T, k, _SPLIT_N) for k in _SPLIT_ORDERS]
        for T, k, n in grid:
            for seed in range(num_seeds):
                rng = np.random.default_rng([227, T, k, seed])
                p = SlidingPSNParams(
                    Tensor(rng.standard_normal(k)),
                    Tensor(np.asarray(1.0)))
                a = spsn_build_A(p, T).data
                cases += 1
                if not np.array_equal(a, _toeplitz_oracle(p.kernel.data, T)):
                    failures.append(f"(T={T}, k={k}, seed={seed}, "
                                    f"A!=toeplitz)")
                    continue
                x = rng.standard_normal((T, n))
                h = spsn_forward(Tensor(x), p).h.data
                cases += 1
                dh = float(np.abs(h - _conv_charge(p.kernel.data, x)).max())
                if dh > CONV_ATOL:
                    failures.append(f"(T={T}, k={k}, N={n}, seed={seed}, "
                                    f"max|dH|={dh:.3g})")
        return cases, failures

    return _timed("conv-vs-matmul", body)


def _grad_case_builders():
    """Name -> (rng -> (named tensors, loss closure)).

    Every closure is pure in the tensor data so it can be re-evaluated for
    finite differences; all randomness is drawn up front.
    """
    def proj_for(shape, rng):
        return Tensor(rng.standard_normal(shape))

    def linear_case(rng):
        T, N = int(rng.integers(2, 6)), int(rng.integers(1, 4))
        cin, cout = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        layer = LinearLayer(cin, cout, rng, dtype=np.float64)
        x = Tensor(rng.standard_normal((T, N, cin)), requires_grad=True)
        proj = proj_for((T, N, cout), rng)
        tensors = {"x": x, "weight": layer.weight, "bias": layer.bias}
        return tensors, lambda: sum_all(mul(layer(x), proj))

    def psn_case(rng):
        T, N = int(rng.integers(2, 7)), int(rng.integers(1, 4))
        p = PSNParams(
            Tensor(rng.standard_normal((T, T)), requires_grad=True),
            Tensor(rng.standard_normal(T) * 0.3, requires_grad=True))
        x = Tensor(rng.standard_normal((T, N)), requires_grad=True)
        proj = proj_for((T, N), rng)
        tensors = {"x": x, "weight": p.weight, "threshold": p.threshold}
        return tensors, lambda: sum_all(mul(
            psn_forward(x, p, relaxed=True).s, proj))

    def masked_case(rng, t_range=(2, 7), lam=0.6, banded=False):
        T, N = int(rng.integers(*t_range)), int(rng.integers(1, 4))
        k = int(rng.integers(1, (T // 4 if banded else T) + 1))
        p = MaskedPSNParams(
            Tensor(rng.standard_normal((T, T)), requires_grad=True),
            Tensor(rng.standard_normal(T) * 0.3, requires_grad=True),
            k, lam=lam)
        x = Tensor(rng.standard_normal((T, N)), requires_grad=True)
        proj = proj_for((T, N), rng)
        tensors = {"x": x, "weight": p.weight, "threshold": p.threshold}
        return tensors, lambda: sum_all(mul(
            masked_psn_forward(x, p, relaxed=True).s, proj))

    def spsn_case(rng, t_range=(2, 7), banded=False):
        T, N = int(rng.integers(*t_range)), int(rng.integers(1, 4))
        k = int(rng.integers(1, (T // 4 if banded else T) + 1))
        p = SlidingPSNParams(
            Tensor(rng.standard_normal(k), requires_grad=True),
            Tensor(np.asarray(rng.standard_normal() * 0.3),
                   requires_grad=True))
        x = Tensor(rng.standard_normal((T, N)), requires_grad=True)
        proj = proj_for((T, N), rng)
        tensors = {"x": x, "kernel": p.kernel, "threshold": p.threshold}
        return tensors, lambda: sum_all(mul(
            spsn_forward(x, p, relaxed=True).s, proj))

    def vanilla_case(kind, reset_mode):
        def build(rng):
            T, N = int(rng.integers(2, 7)), int(rng.integers(1, 4))
            p = VanillaNeuronParams(kind=kind, reset_mode=reset_mode)
            x = Tensor(rng.standard_normal((T, N)), requires_grad=True)
            proj = proj_for((T, N), rng)
            return {"x": x}, lambda: sum_all(mul(
                p.forward(x, relaxed=True).s, proj))

        return build

    return {
        "linear": linear_case,
        "psn": psn_case,
        "masked-psn": masked_case,
        "spsn": spsn_case,
        "if-hard": vanilla_case("if", "hard"),
        "lif-hard": vanilla_case("lif", "hard"),
        "if-no-reset": vanilla_case("if", "none"),
        "lif-no-reset": vanilla_case("lif", "none"),
        # From T=32 on, the fully masked and the sliding charge run as
        # matmul's block-banded product; with k <= T/4 the charge matrix's
        # gradient is only its band, from a sliding window.
        "masked-psn-banded": lambda rng: masked_case(rng, (32, 37), 1.0,
                                                     banded=True),
        "spsn-banded": lambda rng: spsn_case(rng, (32, 37), banded=True),
    }


def suite_grad(instances=20):
    """Analytic gradients against central differences, smooth forward.

    The relaxed forward replaces the step with its antiderivative pair, so
    the whole computation is differentiable and the analytic backward must
    match finite differences to first order; float64 throughout.
    """
    builders = _grad_case_builders()

    def body():
        cases = 0
        failures = []
        for idx, (name, build) in enumerate(builders.items()):
            for inst in range(instances):
                rng = np.random.default_rng([307, idx, inst])
                tensors, loss_fn = build(rng)
                with Tape() as tape:
                    tape.backward(loss_fn())
                analytic = {key: t.grad.copy() for key, t in tensors.items()}
                for key, t in tensors.items():
                    flat = t.data.reshape(-1)
                    grad = analytic[key].reshape(-1)
                    cases += 1
                    for j in range(flat.size):
                        saved = flat[j]
                        eps = 1e-6 * max(1.0, abs(saved))
                        flat[j] = saved + eps
                        up = float(loss_fn().data)
                        flat[j] = saved - eps
                        down = float(loss_fn().data)
                        flat[j] = saved
                        fd = (up - down) / (2.0 * eps)
                        err = abs(fd - grad[j])
                        tol = GRAD_RTOL * max(abs(fd), abs(grad[j])) + GRAD_ATOL
                        if err > tol:
                            failures.append(
                                f"(case={name}, instance={inst}, param={key}, "
                                f"coord={j}, analytic={grad[j]:.6g}, "
                                f"fd={fd:.6g})")
                            break
        return cases, failures

    return _timed("grad", body)


SUITES = {
    "serial-parallel": suite_serial_parallel,
    "psn-subsumption": suite_psn_subsumption,
    "mask-causality": suite_mask_causality,
    "conv-vs-matmul": suite_conv_vs_matmul,
    "grad": suite_grad,
}


def run_suites(names=None):
    """Run the named suites (all of them by default), in registry order."""
    if names is None:
        names = list(SUITES)
    for name in names:
        if name not in SUITES:
            raise ContractError(
                f"unknown suite {name!r}; expected a subset of "
                f"{tuple(SUITES)}")
    return [SUITES[name]() for name in names]
