"""Benchmark harness: grid mechanics, CSV shape, memory probe."""

import numpy as np
import pytest

from psn.bench import (BenchConfig, CSV_COLUMNS, bench_input, grid_table,
                       measure_memory, memory_summary, run_bench, to_csv)
from psn.errors import ContractError

TINY = dict(n_values=(32,), t_values=(2, 4), warmup_iters=0,
            measured_iters=3)


def test_config_validation():
    with pytest.raises(ContractError):
        BenchConfig(measured_iters=2)
    with pytest.raises(ContractError):
        BenchConfig(mode="profiling")
    with pytest.raises(ContractError):
        BenchConfig(neuron_kinds=("psn", "hopfield"))
    with pytest.raises(ContractError):
        BenchConfig(warmup_iters=-1)
    with pytest.raises(ContractError):
        BenchConfig(n_values=())
    for grid in ({"n_values": (0,)}, {"n_values": (32, -4)},
                 {"t_values": (0,)}, {"t_values": (2, -2)}):
        with pytest.raises(ContractError, match=">= 1"):
            BenchConfig(**grid)


def test_bench_input_is_deterministic_and_shaped():
    a = bench_input(0, 64, 8)
    b = bench_input(0, 64, 8)
    assert a.shape == (8, 64) and a.dtype == np.float32
    assert a.tobytes() == b.tobytes()
    assert bench_input(1, 64, 8).tobytes() != a.tobytes()


def test_grid_produces_one_record_per_cell():
    cfg = BenchConfig(neuron_kinds=("lif", "psn", "spsn"), **TINY)
    records = run_bench(cfg)
    assert len(records) == 3 * 1 * 2
    keys = {(r.neuron_kind, r.N, r.T) for r in records}
    assert len(keys) == len(records)


def test_serial_lif_is_its_own_baseline():
    cfg = BenchConfig(neuron_kinds=("lif", "psn"), **TINY)
    for r in run_bench(cfg):
        assert r.status == "ok"
        assert r.wall_time_seconds > 0
        if r.neuron_kind == "lif":
            assert r.ratio_vs_baseline == 1.0
        else:
            assert r.ratio_vs_baseline > 0


def test_training_mode_records_are_marked():
    cfg = BenchConfig(neuron_kinds=("lif", "psn"), mode="training", **TINY)
    records = run_bench(cfg)
    assert all(r.mode == "training" for r in records)
    fw = run_bench(BenchConfig(neuron_kinds=("lif", "psn"), **TINY))
    assert all(r.mode == "inference" for r in fw)


def test_csv_layout(tmp_path):
    cfg = BenchConfig(neuron_kinds=("lif", "psn"), **TINY)
    records = run_bench(cfg)
    text = to_csv(records)
    lines = text.strip().split("\n")
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 1 + len(records)
    # Every row parses back into the column count.
    assert all(len(l.split(",")) == len(CSV_COLUMNS) for l in lines[1:])
    assert text.endswith("\n")


def test_grid_table_mentions_kinds_and_cells(monkeypatch):
    from psn import bench

    cfg = BenchConfig(neuron_kinds=("lif", "psn"), **TINY)
    table = grid_table(run_bench(cfg))
    assert "psn" in table and "lif" in table
    assert "x" in table  # speedup annotation

    def out_of_memory(*args):
        raise MemoryError

    # A cell whose steps, or whose input, run out of memory is marked, not
    # fatal.
    for name in ("_time_median", "bench_input"):
        with monkeypatch.context() as m:
            m.setattr(bench, name, out_of_memory)
            records = run_bench(cfg)
        assert len(records) == 4
        assert all(r.status == "skipped" for r in records)
        assert all(np.isnan(r.wall_time_seconds) for r in records)
        assert "skipped" in grid_table(records)


def test_memory_probe_orders_configurations():
    records = measure_memory(T=16, N=256)
    by_name = {r.configuration: r for r in records}
    assert set(by_name) == {"no_neuron", "if_neuron", "psn"}
    base = by_name["no_neuron"].peak_tracked_bytes
    assert by_name["if_neuron"].peak_tracked_bytes > base
    assert by_name["psn"].peak_tracked_bytes > base


def test_memory_probe_reports_the_real_peak_beside_the_tracked_one():
    import tracemalloc

    for r in measure_memory(T=16, N=256):
        # Every tracked buffer is a real allocation; temporaries add more.
        assert r.peak_tracemalloc_bytes >= r.peak_tracked_bytes > 0
    assert not tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        assert all(r.peak_tracemalloc_bytes > 0
                   for r in measure_memory(T=16, N=256))
        assert tracemalloc.is_tracing()
    finally:
        tracemalloc.stop()


def test_memory_ratio_band():
    # Reset overhead of the stepwise neuron against the one-shot matrix
    # form, both measured above the same no-neuron baseline.
    m_no, m_if, m_psn, ratio = memory_summary(measure_memory(T=16, N=256))
    assert m_no < m_if and m_no < m_psn
    assert 1.5 <= ratio <= 2.5


def test_memory_overhead_scales_with_t_times_n():
    rows = []
    for t, n in ((16, 256), (16, 512), (32, 256)):
        m_no, m_if, m_psn, _ = memory_summary(measure_memory(T=t, N=n))
        rows.append(((m_if - m_no) - (m_psn - m_no)) / (t * n))
    # Per-element gap should be roughly constant across shapes.
    lo, hi = min(rows), max(rows)
    assert hi <= 2.0 * max(lo, 1e-9)
