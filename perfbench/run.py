"""Benchmark of the psn library: neuron kernels and toy training.

    python3 perfbench/run.py --workload kernel-long --seed 1 --seconds 30

Workloads (see README.md for why each exists):

- ``kernel-long``: one neuron layer at T=64, N=65536;
- ``kernel-short``: the same at T=2, N=2^21 (same bytes, 1/32 the GEMM);
- ``toy-train``: ``train()`` on the ``psn train`` default task, plus the
  neuron layer alone at its batch shape T=16, N=2048.

Every workload reports the same metrics, each measured on that workload's
own shape. The loop is closed: one call at a time, each after the previous
one returned. BLAS is pinned to one thread before numpy loads, and the run
refuses to report if the library says otherwise. Every output is checked;
a raise, a non-finite value or a reference mismatch is a failed operation.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` alternates
untraced rounds with rounds traced by spans around the library's public
names (their difference is the tracing overhead), then runs a memory pass
(tracemalloc and the library's tracker) and a pass at ``nproc`` BLAS
threads, and prints the per-layer metrics. Both print a readable report,
then one JSON line, and write the details to ``.perfbench_out/`` at the
repository root.
"""

import argparse
import ctypes
import json
import sys
import time
from pathlib import Path

import blas as blaslib

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
# glibc mallopt parameters and the values the run fixes them at.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
MALLOC_PIN = {"mmap_threshold": 32 << 20, "trim_threshold": 1 << 30}


def pin_allocator():
    """Serve every (T, N) buffer from a heap that is never trimmed.

    By default glibc moves its mmap threshold up after the first large free,
    so whether a 16 MB array is page-faulted afresh or reused depends on the
    process's allocation history, which here includes the checks' own
    data-dependent temporaries: kernel-short step times differed by up to
    20% between seeds on that alone. Fixing both thresholds gives every run
    the reuse a long training process reaches anyway. Returns what was set,
    or None where the C library is not glibc.
    """
    try:
        libc = ctypes.CDLL("libc.so.6")
        mallopt = libc.mallopt
    except (OSError, AttributeError):
        return None
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    ok = (mallopt(_M_MMAP_THRESHOLD, MALLOC_PIN["mmap_threshold"])
          and mallopt(_M_TRIM_THRESHOLD, MALLOC_PIN["trim_threshold"]))
    return dict(MALLOC_PIN) if ok else None


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


def _fmt(value):
    return "-" if value is None else f"{value:.6g}"


def run_untraced(measure, args, tally, import_s):
    bench, setup_s = measure.set_up(args.workload, args.seed, tally)
    samples = bench.measure(args.seconds)
    e2e = measure.end_to_end(bench, samples, import_s + setup_s)
    lines = [f"{k:32s} {_fmt(v):>10s} {u:4s} "
             f"{'p%d %s' % (t[0], _fmt(t[1])) if t else '':16s} n={n}"
             for k, (v, u, t, n) in e2e.items()]
    detail = {"end_to_end": {k: {"value": v, "unit": u, "tail": t, "n": n}
                             for k, (v, u, t, n) in e2e.items()}}
    return {k: (v, u) for k, (v, u, _, _) in e2e.items()}, lines, detail


def run_traced(measure, tracing, args, tally, blas):
    rec = tracing.Recorder()
    undo = tracing.wrap(rec)
    try:
        bench, _ = measure.set_up(args.workload, args.seed, tally, rec)
    finally:
        tracing.unwrap(undo)
    untraced, traced = measure.measure_traced(bench, rec, args.seconds)
    memory = measure.memory_pass(bench)
    stall = measure.stall_pass(bench, blas)
    metrics, table = measure.per_layer(rec, traced, untraced, memory, stall)
    lines = [f"{k:40s} {_fmt(v)} {u}" for k, (v, u) in metrics.items()]
    lines.append("self time per operation (ms), traced phase:")
    for name, row in table.items():
        parts = ", ".join(f"{k} {v:.3f}" for k, v in row["self_ms"].items())
        lines.append(f"  {name} n={row['n']} mean {row['mean_ms']:.3f}: "
                     f"{parts}")
    detail = {"per_layer_table": table, "stall": stall, "spans": rec.spans,
              "span_fields": ["name", "start", "end", "parent", "run"]}
    return metrics, lines, detail


def main(argv=None):
    args = parse_args(argv)
    t0 = time.perf_counter()
    blaslib.pin_env()
    malloc = pin_allocator()
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import psn
    except ImportError as e:
        print(f"error: cannot import psn from {ROOT / 'src'}: {e}",
              file=sys.stderr)
        return 2
    if Path(psn.__file__).resolve().parent.parent != ROOT / "src":
        print(f"error: psn resolved to {psn.__file__}, not this checkout",
              file=sys.stderr)
        return 2
    import measure  # loads numpy, under the pin
    import tracing
    import_s = time.perf_counter() - t0
    if args.workload not in measure.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; expected one of "
              f"{', '.join(measure.WORKLOADS)}", file=sys.stderr)
        return 2

    blas = blaslib.OpenBLAS()
    env = dict(blaslib.environment(blas), malloc=malloc)
    if env["blas_threads_effective"] != blaslib.PINNED_THREADS:
        print(f"error: BLAS runs {env['blas_threads_effective']} threads, "
              f"pinned {blaslib.PINNED_THREADS}; refusing to report",
              file=sys.stderr)
        return 3

    tally = measure.Tally()
    if args.trace:
        metrics, lines, detail = run_traced(measure, tracing, args, tally,
                                            blas)
    else:
        metrics, lines, detail = run_untraced(measure, args, tally, import_s)

    error_rate = tally.failed / tally.attempted
    detail.update(workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace, env=env,
                  attempted=tally.attempted, failed=tally.failed,
                  error_rate=error_rate, errors=tally.errors,
                  metrics={k: v for k, (v, _) in metrics.items()})
    OUT_DIR.mkdir(exist_ok=True)
    out_path = OUT_DIR / (f"{args.workload}-seed{args.seed}"
                          f"-trace{args.trace}.json")
    out_path.write_text(json.dumps(detail) + "\n")

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} "
          f"trace {args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    for line in lines:
        print(line)
    print(f"error_rate {error_rate:.6g} ({tally.failed} of {tally.attempted})")
    for error in tally.errors:
        print(f"  failed: {error}")
    print(f"details in {out_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": tally.failed == 0, "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
