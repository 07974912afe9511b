"""The verification suites themselves, run at reduced scale, plus their
ability to actually catch an injected defect (a checker that cannot fail
proves nothing)."""

import numpy as np
import pytest

from psn.errors import ContractError
from psn import tensor
from psn.neurons import parallel, vanilla
from psn.tensor import Tensor
from psn.verify import (SUITES, SuiteResult, run_suites, suite_conv_vs_matmul,
                       suite_grad, suite_mask_causality,
                       suite_psn_subsumption, suite_serial_parallel)


def test_serial_parallel_small_grid_passes():
    result = suite_serial_parallel(t_values=range(2, 17), n_values=(1, 8),
                                   num_seeds=5)
    assert result.passed
    assert result.cases == 15 * 2 * 5 * 2  # T grid x N grid x seeds x kinds
    assert result.failures == []


def test_serial_parallel_catches_combine_fault(monkeypatch):
    recurrence = vanilla._recurrence

    def biased(rows, decay, start, stop, carry):
        # Every carried step of the reset-free charge off by 1e-3.
        recurrence(rows, decay, start, stop, carry)
        rows[max(start, 1):stop] += 1e-3

    monkeypatch.setattr(vanilla, "_recurrence", biased)
    result = suite_serial_parallel(t_values=(16,), n_values=(8,),
                                   num_seeds=2)
    assert not result.passed
    # Witnesses carry enough to reproduce the cell.
    assert any("T=16" in w and "seed=" in w for w in result.failures)


def test_subsumption_suite_passes():
    result = suite_psn_subsumption(t_values=range(1, 17), num_seeds=2)
    # 16 T values plus the padded T=64, N=8192 case, two kinds, two seeds.
    assert result.passed and result.cases == 17 * 2 * 2


def test_subsumption_suite_catches_overlapping_padded_rows(monkeypatch):
    padded = tensor._padded
    calls = []

    def overlapping(m, n, dtype):
        # The padded output with rows 64 bytes short of a row apart: each
        # row's tail and the next row's head share memory.
        view = padded(m, n, dtype)
        if view is None:
            return None
        calls.append((m, n))
        row = view.strides[1] * n
        return np.lib.stride_tricks.as_strided(
            view, strides=(row - 64, view.strides[1]))

    monkeypatch.setattr(tensor, "_padded", overlapping)
    result = suite_psn_subsumption(t_values=(4,), num_seeds=1)
    assert calls == [(64, 8192)] * 2 and not result.passed
    assert all("T=64, N=8192" in w for w in result.failures)


def test_mask_causality_passes_and_counts():
    result = suite_mask_causality(max_T=6, num_seeds=2)
    assert result.passed
    assert result.cases > 0


def test_conv_vs_matmul_passes():
    result = suite_conv_vs_matmul(t_values=(4, 9, 16), num_seeds=2)
    assert result.passed


def test_conv_vs_matmul_catches_a_wrong_sliding_charge(monkeypatch):
    build = parallel.spsn_build_A

    def short_band(p, num_steps):
        # The charge loses its oldest diagonal, k-1 below the main one; the
        # suite's own imported spsn_build_A still builds the whole band.
        return Tensor(np.triu(build(p, num_steps).data, 2 - p.order_k))

    monkeypatch.setattr(parallel, "spsn_build_A", short_band)
    result = suite_conv_vs_matmul(t_values=(4, 16), num_seeds=2)
    assert not result.passed
    assert all("max|dH|" in w for w in result.failures)


def test_conv_vs_matmul_catches_a_skipped_column_piece(monkeypatch):
    product = tensor._product
    calls = []

    def skip_last_piece(a, b, out=None):
        # The product as made, with the last of its column pieces left
        # unwritten (zero here, so the mutation is the same on every run).
        out = product(a, b, out)
        m, k = a.shape
        n = b.shape[1]
        pieces = -(-m * k * n // tensor._SMALL_GEMM)
        if k <= tensor._PIECE_MAX_K and pieces > 1:
            calls.append(pieces)
            out[:, (pieces - 1) * n // pieces:] = 0
        return out

    monkeypatch.setattr(tensor, "_product", skip_last_piece)
    result = suite_conv_vs_matmul(t_values=(4, 64), num_seeds=2)
    assert calls and not result.passed
    assert all("N=40001" in w and "max|dH|" in w for w in result.failures)


def test_grad_suite_passes_at_reduced_count():
    result = suite_grad(instances=4)
    assert result.passed and result.failures == []
    # One case per checked parameter: at least every builder x instance.
    assert result.cases >= 9 * 4


def test_grad_suite_catches_a_dropped_weight_gradient_diagonal(monkeypatch):
    band_weight_grad = tensor._band_weight_grad
    calls = []

    def no_main_diagonal(g, b, k):
        calls.append(k)
        return np.tril(band_weight_grad(g, b, k), -1)

    monkeypatch.setattr(tensor, "_band_weight_grad", no_main_diagonal)
    result = suite_grad(instances=2)
    # Every instance of both banded cases takes the sliding-window gradient.
    assert len(calls) == 2 * 2
    assert not result.passed
    failed = {w.split(",")[0] for w in result.failures}
    assert failed == {"(case=masked-psn-banded", "(case=spsn-banded"}


def test_grad_suite_checks_the_fused_reset_free_backward(monkeypatch):
    charge_fire = vanilla._charge_fire
    backward = vanilla._charge_fire_backward
    relaxed = []

    def recording(*args):
        relaxed.append(args[4])
        return charge_fire(*args)

    def skewed(*args):
        return backward(*args) * 1.01

    monkeypatch.setattr(vanilla, "_charge_fire", recording)
    monkeypatch.setattr(vanilla, "_charge_fire_backward", skewed)
    result = suite_grad(instances=2)
    # The reset-free cases run the fused op's relaxed forward, and the
    # finite differences reject its skewed backward.
    assert relaxed and all(relaxed)
    failed = {w.split(",")[0] for w in result.failures}
    assert failed == {"(case=if-no-reset", "(case=lif-no-reset"}


def test_grad_harness_detects_a_wrong_gradient():
    """Detaching the reset changes real gradients; finite differences on
    the relaxed forward side with the honest backward and reject the
    detached one. Same relaxed-closure machinery the suite runs on."""
    from psn.neurons import VanillaNeuronParams, vanilla_sequence
    from psn.tensor import Tape, Tensor, mul, sum_all

    rng = np.random.default_rng(90)
    x0 = rng.standard_normal((5, 3))
    proj = rng.standard_normal((5, 3))
    honest = VanillaNeuronParams(kind="lif", reset_mode="hard")
    detached = VanillaNeuronParams(kind="lif", reset_mode="hard",
                                   detach_reset=True)

    def tape_grad(params):
        x = Tensor(x0.copy(), requires_grad=True)
        with Tape() as tape:
            trace = vanilla_sequence(x, params, relaxed=True)
            tape.backward(sum_all(mul(trace.s, Tensor(proj))))
        return x.grad

    g_honest = tape_grad(honest)
    g_detached = tape_grad(detached)
    assert np.max(np.abs(g_honest - g_detached)) > 1e-3

    def relaxed_loss(xv):
        trace = vanilla_sequence(Tensor(xv), honest, relaxed=True)
        return float((trace.s.data * proj).sum())

    eps = 1e-6
    fd = np.zeros_like(x0)
    for i in np.ndindex(*x0.shape):
        xp = x0.copy()
        xp[i] += eps
        xm = x0.copy()
        xm[i] -= eps
        fd[i] = (relaxed_loss(xp) - relaxed_loss(xm)) / (2 * eps)

    np.testing.assert_allclose(g_honest, fd, rtol=1e-3, atol=1e-8)
    assert np.max(np.abs(g_detached - fd)) > 1e-3


def test_run_suites_by_name():
    results = run_suites(["grad"])
    assert len(results) == 1 and results[0].name == "grad"


def test_run_suites_rejects_unknown_names():
    with pytest.raises(ContractError):
        run_suites(["grad", "telepathy"])


def test_registry_is_complete():
    assert set(SUITES) == {"serial-parallel", "psn-subsumption",
                           "mask-causality", "conv-vs-matmul", "grad"}


def test_suite_result_lines():
    ok = SuiteResult(name="demo", passed=True, cases=12, failures=[],
                     wall_time_seconds=0.25)
    assert ok.line() == "PASS demo (12 cases, 0.2s)"
    bad = SuiteResult(name="demo", passed=False, cases=12,
                      failures=["(T=3)", "(T=4)"], wall_time_seconds=1.0)
    line = bad.line()
    assert line.startswith("FAIL demo (2 of 12 cases)")
    assert "(T=3)" in line


def test_failure_listing_is_capped():
    many = [f"(case={i})" for i in range(40)]
    r = SuiteResult(name="demo", passed=False, cases=40, failures=many,
                    wall_time_seconds=0.0)
    line = r.line()
    assert "and 35 more" in line
    assert "(case=39)" not in line
