"""Tests of the benchmark's own checks and bookkeeping.

    python3 -m pytest perfbench/test_checks.py

The oracles must pass real library output and fail corrupted output; a
failed check must count as a failed operation. The metric names the
benchmark emits must be exactly those ``BENCHMARK.json`` declares.
"""

import json
import sys
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import numpy as np  # noqa: E402
import psn.tensor  # noqa: E402
import pytest  # noqa: E402
from psn.training import History  # noqa: E402

import kernel  # noqa: E402
import measure  # noqa: E402
import toy  # noqa: E402
import tracing  # noqa: E402

T, N = 8, 256


def _case(kind):
    return kernel.KernelCase(kind, kernel.make_input(0, T, N),
                             np.random.default_rng(0))


def _flip_spike(case, trace):
    """Flip one spike where the reference is not a tie."""
    t, n = np.argwhere(~case.ref.tie)[0]
    s = trace.s.data
    s[t, n] = 1.0 - s[t, n]


def _shift_charge(case, trace):
    t, n = np.argwhere(~case.ref.tie)[0]
    trace.h.data[t, n] += 1.0


@pytest.mark.parametrize("kind", kernel.KINDS)
def test_real_output_passes(kind):
    case = _case(kind)
    assert case.check_step(case.step()) is None
    assert case.check_infer(case.infer()) is None


@pytest.mark.parametrize("kind", kernel.KINDS)
@pytest.mark.parametrize("corrupt", [_flip_spike, _shift_charge])
def test_corrupted_output_counts_as_failed(kind, corrupt):
    case = _case(kind)

    def op():
        out = case.step()
        corrupt(case, out[0])
        return out

    tally = measure.Tally()
    assert tally.run("step", op, case.check_step) is None
    assert (tally.attempted, tally.failed) == (1, 1)


@pytest.mark.parametrize("kind", kernel.KINDS)
def test_non_finite_gradient_counts_as_failed(kind):
    case = _case(kind)

    def op():
        trace, x = case.step()
        x.grad[0, 0] = np.nan
        return trace, x

    tally = measure.Tally()
    tally.run("step", op, case.check_step)
    assert tally.failed == 1


def test_raise_counts_as_failed():
    def op():
        raise ValueError("boom")

    tally = measure.Tally()
    assert tally.run("op", op, lambda out: None) is None
    assert tally.failed == 1 and "boom" in tally.errors[0]


def _history(final_accuracy, loss=0.5):
    h = History()
    for epoch in range(toy.EPOCHS):
        h.add(epoch, "train", "loss", loss)
        h.add(epoch, "test", "accuracy", final_accuracy)
    return h


def test_history_checks():
    good = _history(0.9)
    assert toy.check_history("psn", good, None) is None
    assert toy.check_history("psn", good, good.lines()) is None
    assert "differs" in toy.check_history("psn", _history(0.91),
                                          good.lines())
    assert "floor" in toy.check_history("psn", _history(0.3), None)
    assert "non-finite" in toy.check_history("psn", _history(0.9, np.nan),
                                             None)


def test_spans_account_for_the_step_and_unwrap_restores():
    original = psn.tensor.matmul
    case = _case("psn")
    rec = tracing.Recorder()
    undo = tracing.wrap(rec)
    try:
        with rec.span("step.psn"):
            case.step()
    finally:
        tracing.unwrap(undo)
    assert psn.tensor.matmul is original
    (root, duration, selfs), = rec.runs().values()
    assert root == "step.psn"
    assert {"parallel.fwd", "tensor.matmul", "surrogate.fwd",
            "tensor.backward"} <= set(selfs)
    assert sum(selfs.values()) == pytest.approx(duration)
    assert rec.counts[(0, "kernel.gemm_flops")] == 3 * 2 * T * T * N
    assert rec.counts[(0, "tensor.tape_ops")] == 3


def _declared(key):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(m["name"], m["unit"]) for m in spec[key]]


@pytest.mark.parametrize("workload", measure.WORKLOADS)
def test_end_to_end_names_match_benchmark_json(workload):
    spec = measure.WORKLOADS[workload]
    bench = SimpleNamespace(spec=spec, train_batch=[0] if spec["train"]
                            else None)
    e2e = measure.end_to_end(bench, {}, 1.0)
    assert [(k, v[1]) for k, v in e2e.items()] == _declared("end_to_end")


def test_per_layer_names_match_benchmark_json():
    rec = tracing.Recorder()
    with rec.span("step.psn"):
        pass
    memory = {kind: (0, 0) for kind in kernel.KINDS}
    stall = {"threads": 1, "share": 0.0}
    m, _ = measure.per_layer(rec, {"step.psn": [1.0]}, {"step.psn": [1.0]},
                             memory, stall)
    assert [(k, v[1]) for k, v in m.items()] == _declared("per_layer")


def test_workload_names_match():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]
    assert [w["name"] for w in declared] == list(measure.WORKLOADS)
