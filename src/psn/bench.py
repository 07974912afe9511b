"""Wall-time and memory benchmarks for the neuron kernels.

Two grids (inference and training) time every requested neuron kind against
the serial hard-reset LIF loop, which is the baseline every ratio is computed
from: in inference the in-place loop, in training the taped loop. The memory
probe runs one training step of the same synapse stack with no neuron, an IF
neuron, and a dense parallel neuron, under the library's own buffer
accounting, and reports beside it the real peak that ``tracemalloc`` sees
over the same step (numpy reports its buffers to it; it is not RSS).

Caveats that keep these numbers honest: everything here is CPU wall time in a
single process, so the ratios are directional and machine-dependent. The
serial baseline pays T steps (in training, a tape entry per stage and step);
the parallel kinds pay one matmul. That asymmetry is the point being
measured, not an unfairness.
"""

from __future__ import annotations

import resource
import statistics
import time
import tracemalloc
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, oversize_as_memory_error
from .neurons import KINDS, ORDER_KINDS, make
from .tensor import Tape, Tensor, matmul, sum_all, tracker

MODES = ("inference", "training")
# Memory configuration -> the neuron kind between the two synapses.
_MEMORY_NEURONS = {"no_neuron": None, "if_neuron": "if", "psn": "psn"}
MEMORY_CONFIGURATIONS = tuple(_MEMORY_NEURONS)

DEFAULT_N_VALUES = (2 ** 8, 2 ** 12, 2 ** 16, 2 ** 20)
DEFAULT_T_VALUES = (2, 4, 8, 16, 32, 64)

CSV_COLUMNS = ("neuron_kind", "N", "T", "mode",
               "wall_time_seconds", "ratio_vs_baseline", "status")


@dataclass
class BenchConfig:
    neuron_kinds: tuple = ("lif", "psn")
    n_values: tuple = DEFAULT_N_VALUES
    t_values: tuple = DEFAULT_T_VALUES
    mode: str = "inference"
    warmup_iters: int = 1
    measured_iters: int = 5
    seed: int = 0

    def __post_init__(self):
        self.neuron_kinds = tuple(self.neuron_kinds)
        self.n_values = tuple(int(n) for n in self.n_values)
        self.t_values = tuple(int(t) for t in self.t_values)
        for kind in self.neuron_kinds:
            if kind not in KINDS:
                raise ContractError(
                    f"unknown neuron kind {kind!r}; expected one of {KINDS}")
        if self.mode not in MODES:
            raise ContractError(f"mode must be one of {MODES}, got "
                                f"{self.mode!r}")
        if self.measured_iters < 3:
            raise ContractError(
                f"median timing needs measured_iters >= 3, got "
                f"{self.measured_iters}")
        if self.seed < 0:
            raise ContractError(f"seed must be >= 0, got {self.seed}")
        if self.warmup_iters < 0:
            raise ContractError(
                f"warmup_iters must be >= 0, got {self.warmup_iters}")
        if not self.neuron_kinds or not self.n_values or not self.t_values:
            raise ContractError("benchmark grid must be non-empty")
        if min(self.n_values + self.t_values) < 1:
            raise ContractError(
                f"every N and T must be >= 1, got N in {self.n_values}, "
                f"T in {self.t_values}")


@dataclass
class BenchRecord:
    neuron_kind: str
    N: int
    T: int
    mode: str
    wall_time_seconds: float
    ratio_vs_baseline: float
    status: str = "ok"  # "ok" | "skipped"
    # Minor page faults this process took over the measured calls (0 when
    # skipped). The manifest carries it; the CSV does not.
    minor_faults: int = 0

    def csv_row(self):
        return (f"{self.neuron_kind},{self.N},{self.T},{self.mode},"
                f"{self.wall_time_seconds:.6g},{self.ratio_vs_baseline:.6g},"
                f"{self.status}")


@dataclass
class MemoryRecord:
    configuration: str
    T: int
    N: int
    peak_tracked_bytes: int
    # Everything allocated, temporaries included, as tracemalloc saw it.
    peak_tracemalloc_bytes: int


def bench_input(seed, N, T):
    """The one input array every kind at (N, T) must see, byte for byte."""
    rng = np.random.default_rng([seed, N, T])
    return rng.standard_normal((T, N), dtype=np.float32)


def _make_params(kind, T, seed):
    opts = {"order": min(4, T)} if kind in ORDER_KINDS else None
    return make(kind, T, np.random.default_rng([seed, T]), opts)


def _make_step(mode, x_data, params):
    if mode == "inference":
        def step():
            params.forward(Tensor(x_data))
    else:
        def step():
            x = Tensor(x_data, requires_grad=True)
            with Tape() as tape:
                trace = params.forward(x)
                loss = sum_all(trace.s)
                tape.backward(loss)
    return step


def _time_median(step, warmup_iters, measured_iters):
    """(median seconds, minor page faults) over the measured calls."""
    for _ in range(warmup_iters):
        step()
    samples = []
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(measured_iters):
        t0 = time.perf_counter()
        step()
        samples.append(time.perf_counter() - t0)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    return statistics.median(samples), faults


def _skipped(kind, N, T, mode):
    return BenchRecord(kind, N, T, mode, float("nan"), float("nan"),
                       status="skipped")


def _unless_too_large(fn):
    """fn(), or None when it needs more memory than there is."""
    try:
        with oversize_as_memory_error():
            return fn()
    except MemoryError:
        return None


def _run_cell(cfg, mode, N, T):
    """All records for one (N, T) grid cell, baseline timed exactly once.

    A cell whose input cannot be allocated is skipped for every kind.
    """
    x_data = _unless_too_large(lambda: bench_input(cfg.seed, N, T))
    if x_data is None:
        return [_skipped(kind, N, T, mode) for kind in cfg.neuron_kinds]

    def timed(kind):
        return _unless_too_large(lambda: _time_median(
            _make_step(mode, x_data, _make_params(kind, T, cfg.seed)),
            cfg.warmup_iters, cfg.measured_iters))

    baseline = timed("lif")
    records = []
    for kind in cfg.neuron_kinds:
        timing = baseline if kind == "lif" else timed(kind)
        if timing is None:
            records.append(_skipped(kind, N, T, mode))
            continue
        wall, faults = timing
        ratio = baseline[0] / wall if baseline is not None else float("nan")
        records.append(BenchRecord(kind, N, T, mode, wall, ratio,
                                   minor_faults=faults))
    return records


def run_bench(cfg):
    """One record per (kind, N, T), timed in ``cfg.mode``."""
    records = []
    for N in cfg.n_values:
        for T in cfg.t_values:
            records.extend(_run_cell(cfg, cfg.mode, N, T))
    return records


def _measure_config(configuration, T, N):
    """(tracked, tracemalloc) peak bytes for one step of the shared stack.

    The stack is linear -> (nothing | IF | dense parallel neuron) -> linear,
    x and both weights allocated before the window opens so only step-local
    buffers count. Both peaks are taken over the same window, above what was
    live when it opened.
    """
    rng = np.random.default_rng([97, T, N])
    scale = 1.0 / np.sqrt(N)
    x = Tensor(rng.standard_normal((T, N), dtype=np.float32))
    w_in = Tensor(scale * rng.standard_normal((N, N), dtype=np.float32),
                  requires_grad=True)
    w_out = Tensor(scale * rng.standard_normal((N, N), dtype=np.float32),
                   requires_grad=True)
    kind = _MEMORY_NEURONS[configuration]
    neuron = make(kind, T, rng) if kind else None

    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        tracker.start()
        with Tape() as tape:
            pre = matmul(x, w_in)
            z = pre if neuron is None else neuron.forward(pre).s
            loss = sum_all(matmul(z, w_out))
            tape.backward(loss)
        real = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracked = tracker.stop()
        if not was_tracing:
            tracemalloc.stop()
    return int(tracked), int(real)


def measure_memory(T=16, N=1024):
    """One MemoryRecord per configuration at identical (T, N)."""
    return [MemoryRecord(c, T, N, *_measure_config(c, T, N))
            for c in MEMORY_CONFIGURATIONS]


def memory_summary(records):
    """(peak_no_neuron, peak_if, peak_psn, excess ratio IF/parallel) of the
    tracked peaks in ``measure_memory`` records.

    The ratio divides what the IF neuron adds over the bare stack by what the
    dense parallel neuron adds; serial IF retains both the charge and the
    post-reset potential per step, the parallel kind only its charge, so the
    expected value sits near 2.
    """
    peaks = {r.configuration: r.peak_tracked_bytes for r in records}
    d_if = peaks["if_neuron"] - peaks["no_neuron"]
    d_psn = peaks["psn"] - peaks["no_neuron"]
    ratio = d_if / d_psn if d_psn > 0 else float("nan")
    return (peaks["no_neuron"], peaks["if_neuron"], peaks["psn"], ratio)


def to_csv(records):
    """Stable column order, one record per line, header first."""
    lines = [",".join(CSV_COLUMNS)]
    lines.extend(r.csv_row() for r in records)
    return "\n".join(lines) + "\n"


def _cell_text(record):
    if record.status != "ok":
        return "skipped"
    return (f"{record.wall_time_seconds * 1e3:.2f}ms "
            f"x{record.ratio_vs_baseline:.2f}")


def grid_table(records):
    """One block per (kind, mode): T rows, N columns, time and ratio."""
    by_block = {}
    for r in records:
        by_block.setdefault((r.neuron_kind, r.mode), []).append(r)
    out = []
    for (kind, mode), block in by_block.items():
        n_values = sorted({r.N for r in block})
        t_values = sorted({r.T for r in block})
        cells = {(r.N, r.T): _cell_text(r) for r in block}
        width = max(len("skipped"), 9 + len(f"N={max(n_values)}"),
                    *(len(c) for c in cells.values()))
        out.append(f"{kind} ({mode}), time per pass and ratio vs serial LIF")
        header = ["T \\ N".rjust(8)]
        header.extend(f"N={n}".rjust(width) for n in n_values)
        out.append("  ".join(header))
        for t in t_values:
            row = [f"{t}".rjust(8)]
            row.extend(cells.get((n, t), "-").rjust(width)
                       for n in n_values)
            out.append("  ".join(row))
        out.append("")
    return "\n".join(out).rstrip("\n") + "\n"
