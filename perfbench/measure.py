"""Timed rounds, set-up, and the metrics computed from them.

Import this only after ``blas.pin_env``: it loads numpy.
"""

import contextlib
import os
import resource
import statistics
import time
import tracemalloc

import numpy as np
import psn.tensor
from psn import training

import kernel
import toy
import tracing
from blas import PINNED_THREADS

SETUP_REPS = 5
MIN_ROUNDS = 2
MEMORY_STEPS = 3
STALL_STEPS = 16
STALL_BATCHES = 64
STALL_FACTOR = 3.0

# shape (T, N) of the neuron layer; kernel rounds per measuring round.
WORKLOADS = {
    "kernel-long": {"shape": (64, 65536), "inner": 1, "train": False},
    "kernel-short": {"shape": (2, 2 ** 21), "inner": 1, "train": False},
    "toy-train": {"shape": (16, 2048), "inner": 40, "train": True},
}


class Tally:
    """Operations attempted and failed, with the first few reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def run(self, label, op, check):
        """Seconds the op took, or None if it raised or failed its check."""
        self.attempted += 1
        try:
            t0 = time.perf_counter()
            out = op()
            elapsed = time.perf_counter() - t0
            error = check(out)
        except Exception as e:  # a raise is a failed operation, not a crash
            error = f"{type(e).__name__}: {e}"
        if error is None:
            return elapsed
        self.failed += 1
        if len(self.errors) < 10:
            self.errors.append(f"{label}: {error}")
        return None


class Bench:
    """One workload's inputs, parameters and references, and its rounds.

    ``rec`` is the traced run's span recorder, or None: with one, every
    timed operation runs inside a root span named after its label.
    """

    def __init__(self, workload, seed, tally, rec=None):
        self.spec = WORKLOADS[workload]
        self.seed = seed
        self.tally = tally
        self.rec = rec
        T, N = self.spec["shape"]
        x = kernel.make_input(seed, T, N)
        self.cases = {k: kernel.KernelCase(k, x, np.random.default_rng(
            [seed, T, i])) for i, k in enumerate(kernel.KINDS)}
        self.train_batch = self.test_batch = None
        self.expected = {}  # kind -> first history lines at this seed
        if self.spec["train"]:
            with self._span("synth"):
                self.train_batch, self.test_batch = toy.make_data(seed)

    def _span(self, name):
        return self.rec.span(name) if self.rec else contextlib.nullcontext()

    def _timed(self, label, op, check, samples):
        def traced():
            with self._span(label):
                return op()

        elapsed = self.tally.run(label, traced if self.rec else op, check)
        if elapsed is not None and samples is not None:
            samples.setdefault(label, []).append(elapsed)

    def _train(self, kind, samples, epochs, label):
        with self._span(f"build.{kind}"):
            model = toy.make_model(kind, self.seed, self.train_batch)
        cfg = toy.train_config(self.seed, epochs)
        full = epochs == toy.EPOCHS

        def check(history):
            error = toy.check_history(
                kind, history, self.expected.get(kind) if full else None,
                epochs)
            if error is None and full:
                self.expected.setdefault(kind, history.lines())
            return error

        self._timed(label, lambda: training.train(
            model, self.train_batch, self.test_batch, cfg), check, samples)

    def warm_up(self):
        """One of every operation: caches, lazy imports, first allocations.

        Labelled apart, so the traced run keeps them out of per-step medians.
        """
        for kind, case in self.cases.items():
            self._timed(f"warm-up.step.{kind}", case.step, case.check_step,
                        None)
        for kind in kernel.INFER_KINDS:
            case = self.cases[kind]
            self._timed(f"warm-up.infer.{kind}", case.infer, case.check_infer,
                        None)
        if self.spec["train"]:
            for kind in toy.TRAIN_KINDS:
                self._train(kind, None, 1, f"warm-up.train.{kind}")

    def round(self, samples):
        for _ in range(self.spec["inner"]):
            for kind, case in self.cases.items():
                self._timed(f"step.{kind}", case.step, case.check_step,
                            samples)
            for kind in kernel.INFER_KINDS:
                case = self.cases[kind]
                self._timed(f"infer.{kind}", case.infer, case.check_infer,
                            samples)
        if self.spec["train"]:
            for kind in toy.TRAIN_KINDS:
                self._train(kind, samples, toy.EPOCHS, f"train.{kind}")

    def measure(self, seconds):
        """{label: [seconds]}: whole rounds until ``seconds`` have passed."""
        samples = {}
        deadline = time.perf_counter() + seconds
        rounds = 0
        while rounds < MIN_ROUNDS or time.perf_counter() < deadline:
            self.round(samples)
            rounds += 1
        return samples


def measure_traced(bench, rec, seconds):
    """({label: [seconds]} untraced, the same traced), from alternating
    untraced and traced rounds, so drift in machine speed hits both."""
    untraced, traced = {}, {}
    deadline = time.perf_counter() + seconds
    rounds = 0
    while rounds < MIN_ROUNDS or time.perf_counter() < deadline:
        bench.rec = None
        bench.round(untraced)
        bench.rec = rec
        undo = tracing.wrap(rec)
        try:
            bench.round(traced)
        finally:
            tracing.unwrap(undo)
            bench.rec = None
        rounds += 1
    return untraced, traced


def set_up(workload, seed, tally, rec=None):
    """SETUP_REPS fresh set-ups; returns the last and the median seconds."""
    times = []
    bench = None
    for _ in range(SETUP_REPS):
        bench = None  # free the previous set-up before building the next
        t0 = time.perf_counter()
        bench = Bench(workload, seed, tally, rec)
        bench.warm_up()
        times.append(time.perf_counter() - t0)
    return bench, statistics.median(times)


def tail(values):
    """(p, value): the highest percentile with at least ten samples above,
    or None while that would not lie above the median."""
    ordered = sorted(values)
    rank = len(ordered) - 11
    p = 100 * (rank + 1) // len(ordered)
    return (p, ordered[rank]) if p > 50 else None


def end_to_end(bench, samples, setup_s):
    """{name: (value, unit, tail, n)} for every end-to-end metric."""
    out = {}

    def timing(name, label, unit, convert):
        values = samples.get(label, [])
        if not values:
            out[name] = (None, unit, None, 0)
            return
        t = tail(values)
        out[name] = (convert(statistics.median(values)), unit,
                     t and (t[0], convert(t[1])), len(values))

    for kind in kernel.KINDS:
        timing(f"step_ms.{kind}", f"step.{kind}", "ms", lambda s: 1e3 * s)
    for kind in kernel.INFER_KINDS:
        timing(f"infer_ms.{kind}", f"infer.{kind}", "ms", lambda s: 1e3 * s)
    for kind in toy.TRAIN_KINDS:
        if bench.spec["train"]:
            work = toy.EPOCHS * len(bench.train_batch)
            timing(f"train_samples_per_s.{kind}", f"train.{kind}", "1/s",
                   lambda s: work / s)
        else:
            # No train() here: a sample is one of the N columns the
            # layer's training step processes.
            n = bench.spec["shape"][1]
            timing(f"train_samples_per_s.{kind}", f"step.{kind}", "1/s",
                   lambda s: n / s)
    out["setup_s"] = (setup_s, "s", None, SETUP_REPS)
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["peak_rss_mb"] = (rss, "MB", None, 1)
    return out


def memory_pass(bench):
    """{kind: (tracked peak bytes, tracemalloc peak bytes)}, median of steps.

    The tracker is the library's own buffer accounting (0 if this version
    has none); tracemalloc sees every numpy allocation. Both count only what
    a step allocates beyond what was live before it.
    """
    tracker = getattr(psn.tensor, "tracker", None)
    out = {}
    tracemalloc.start()
    try:
        for kind, case in bench.cases.items():
            tracked, real = [], []

            def op(case=case, tracked=tracked, real=real):
                base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                if tracker is not None:
                    tracker.start()
                result = case.step()
                tracked.append(tracker.stop() if tracker is not None else 0)
                real.append(tracemalloc.get_traced_memory()[1] - base)
                return result

            for _ in range(MEMORY_STEPS):
                bench.tally.run(f"memory.{kind}", op, case.check_step)
            out[kind] = (statistics.median(tracked or [0]),
                         statistics.median(real or [0]))
    finally:
        tracemalloc.stop()
    return out


def stall_pass(bench, blas):
    """Share of kernel-short PSN steps and toy batches, run at nproc BLAS
    threads, slower than STALL_FACTOR times their one-thread median."""
    threads = len(os.sched_getaffinity(0))
    T, N = WORKLOADS["kernel-short"]["shape"]
    case = kernel.KernelCase("psn", kernel.make_input(bench.seed, T, N),
                             np.random.default_rng([bench.seed, T, 0]))
    train_batch = bench.train_batch
    if train_batch is None:
        train_batch = toy.make_data(bench.seed)[0]
    loop = toy.BatchLoop("psn", bench.seed, train_batch)

    def finite(loss):
        return None if np.isfinite(loss) else "non-finite loss"

    def series(label, op, check, n):
        times = (bench.tally.run(label, op, check) for _ in range(n))
        return [t for t in times if t is not None]

    def both():
        return (series("stall.step", case.step, case.check_step, STALL_STEPS),
                series("stall.batch", loop.step, finite, STALL_BATCHES))

    one = both()
    effective = blas.set_threads(threads)
    try:
        many = both()
    finally:
        blas.set_threads(PINNED_THREADS)
    if blas.threads() != PINNED_THREADS:
        raise RuntimeError("BLAS threads did not return to the pin")
    slow = total = 0
    for base, runs in zip(one, many):
        if base and runs:
            limit = STALL_FACTOR * statistics.median(base)
            slow += sum(t > limit for t in runs)
            total += len(runs)
    return {"threads": effective, "share": slow / total if total else None,
            "one_thread_ms": [1e3 * statistics.median(b) for b in one if b],
            "many_thread_ms": [1e3 * statistics.median(m) for m in many if m]}


def per_layer(rec, traced, untraced, memory, stall):
    """{name: (value, unit)} for every per-layer metric, and the per-root
    self-time table that accounts for each operation's wall time."""
    by_root = {}
    for run, (root, duration, selfs) in rec.runs().items():
        by_root.setdefault(root, []).append((run, duration, selfs))

    def self_ms(root, layer, per=1.0):
        vals = [selfs.get(layer, 0.0) for _, _, selfs in by_root.get(root, [])]
        return 1e3 * statistics.median(vals) / per if vals else 0.0

    def counted(root, name):
        vals = [rec.counts.get((run, name), 0.0)
                for run, _, _ in by_root.get(root, [])]
        return statistics.median(vals) if vals else 0.0

    m = {}
    for kind in kernel.PSN_KINDS:
        root = f"step.{kind}"
        m[f"parallel.fwd_ms.{kind}"] = (self_ms(root, "parallel.fwd"), "ms")
        m[f"tensor.matmul_ms.{kind}"] = (self_ms(root, "tensor.matmul"), "ms")
    for kind in kernel.KINDS:
        root = f"step.{kind}"
        m[f"surrogate.fwd_ms.{kind}"] = (self_ms(root, "surrogate.fwd"), "ms")
        m[f"tensor.backward_ms.{kind}"] = (self_ms(root, "tensor.backward"),
                                           "ms")
    m["scan.fwd_ms.lif-no-reset"] = (self_ms("step.lif-no-reset", "scan.fwd"),
                                     "ms")
    for kind in ("lif", "lif-no-reset"):
        m[f"vanilla.fwd_ms.{kind}"] = (self_ms(f"step.{kind}", "vanilla.fwd"),
                                       "ms")
    for kind in kernel.KINDS:
        m[f"tensor.tape_ops.{kind}"] = (
            counted(f"step.{kind}", "tensor.tape_ops"), "count")
    for kind in toy.TRAIN_KINDS:
        root = f"train.{kind}"
        for metric, layer in (("forward_ms", "training.forward"),
                              ("loss_ms", "training.loss"),
                              ("optim_ms", "training.optim"),
                              ("evaluate_ms", "training.evaluate"),
                              ("loop_self_ms", "training.loop")):
            m[f"training.{metric}.{kind}"] = (
                self_ms(root, layer, per=toy.EPOCHS), "ms")
    m["data.synth_ms"] = (self_ms("synth", "data.synth"), "ms")
    for kind in toy.TRAIN_KINDS:
        m[f"training.model_init_ms.{kind}"] = (
            self_ms(f"build.{kind}", "training.model_init"), "ms")
    for kind in kernel.KINDS:
        tracked, real = memory[kind]
        m[f"tensor.tracked_peak_bytes.{kind}"] = (tracked, "bytes")
        m[f"tensor.tracemalloc_peak_bytes.{kind}"] = (real, "bytes")
    for kind in kernel.PSN_KINDS:
        m[f"kernel.gemm_flops.{kind}"] = (
            counted(f"step.{kind}", "kernel.gemm_flops"), "flop")

    timed = sorted(set(traced) & set(untraced))
    base = sum(statistics.median(untraced[k]) for k in timed)
    over = sum(statistics.median(traced[k]) for k in timed)
    m["trace.overhead_pct"] = (100.0 * (over - base) / base, "%")
    ops = [r for name in timed for r in by_root.get(name, [])]
    m["trace.unaccounted_pct"] = (
        100.0 * sum(s.get("(root)", 0.0) for _, _, s in ops)
        / sum(d for _, d, _ in ops), "%")
    m["blas.stall_share"] = (stall["share"], "ratio")
    m["blas.stall_threads"] = (stall["threads"], "count")

    table = {}
    for name in timed:
        rows = by_root.get(name, [])
        layers = {}
        for _, _, selfs in rows:
            for layer, s in selfs.items():
                layers[layer] = layers.get(layer, 0.0) + s
        table[name] = {
            "n": len(rows),
            "mean_ms": 1e3 * sum(d for _, d, _ in rows) / len(rows),
            "self_ms": {k: 1e3 * v / len(rows) for k, v in
                        sorted(layers.items(), key=lambda kv: -kv[1])}}
    return m, table
