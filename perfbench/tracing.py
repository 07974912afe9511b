"""Spans around calls into the library's public names, for the traced run.

The library has no tracing of its own, so the traced run wraps the public
functions and methods listed in ``LAYERS``: every module of ``psn`` that
holds a reference to one of them gets the wrapper in its place, so calls the
library makes internally are caught too. A name that does not exist (a later
version may delete ``psn.scan``) is skipped. ``unwrap`` puts every original
back.

Spans live in memory as [name, start, end, parent, run] lists. A span opened
with no parent is a root: it starts a new run id, and every span under it
shares that id. A span's self time is its duration minus its children's.
"""

import importlib
import sys
import time
from collections import defaultdict

# (span name, module, public name); "Class.method" names patch the class.
LAYERS = (
    ("parallel.fwd", "psn.neurons.parallel", "psn_forward"),
    ("parallel.fwd", "psn.neurons.parallel", "masked_psn_forward"),
    ("parallel.fwd", "psn.neurons.parallel", "spsn_forward"),
    ("tensor.matmul", "psn.tensor", "matmul"),
    ("tensor.backward", "psn.tensor", "Tape.backward"),
    ("surrogate.fwd", "psn.neurons.surrogate", "heaviside_surrogate"),
    ("scan.fwd", "psn.scan", "linrec_scan"),
    ("scan.fwd", "psn.scan", "prefix_sum"),
    ("vanilla.fwd", "psn.neurons.vanilla", "vanilla_sequence"),
    ("vanilla.fwd", "psn.neurons.vanilla", "parallel_no_reset"),
    ("training.model_init", "psn.training.model", "Model.__init__"),
    ("training.forward", "psn.training.model", "Model.forward"),
    ("training.loss", "psn.training.losses", "loss_ce_mean"),
    ("training.optim", "psn.training.optim", "AdamLike.step"),
    ("training.optim", "psn.training.optim", "AdamLike.zero_grad"),
    ("training.evaluate", "psn.training.loop", "evaluate"),
    ("training.loop", "psn.training.loop", "train"),
    ("data.synth", "psn.data", "synth_toy_dataset"),
)


class Recorder:
    """In-memory spans plus counters attached to the current run."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(float)  # (run, name) -> total
        self._stack = []
        self._run = -1

    def open(self, name):
        if self._stack:
            parent = self._stack[-1]
        else:
            parent = -1
            self._run += 1
        self._stack.append(len(self.spans))
        self.spans.append([name, time.perf_counter(), None, parent, self._run])

    def close(self):
        self.spans[self._stack.pop()][2] = time.perf_counter()

    def span(self, name):
        return _Span(self, name)

    def count(self, name, value):
        self.counts[(self._run, name)] += value

    def runs(self):
        """Per run: (root name, root duration, {span name: self seconds})."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for i, (name, start, end, parent, run) in enumerate(self.spans):
            if parent < 0:
                out[run] = (name, end - start, defaultdict(float))
            out[run][2][name if parent >= 0 else "(root)"] += \
                end - start - child[i]
        return out


class _Span:
    __slots__ = ("rec", "name")

    def __init__(self, rec, name):
        self.rec = rec
        self.name = name

    def __enter__(self):
        self.rec.open(self.name)

    def __exit__(self, *exc):
        self.rec.close()
        return False


def _gemm_flops(rec, a, b, *_):
    """2 M K N per GEMM: the forward, plus one per input that gets a
    gradient when the product is recorded on a tape."""
    from psn.tensor import active_tape

    m, k = a.data.shape
    flops = 2 * m * k * b.data.shape[1]
    gemms = 1
    if active_tape() is not None:
        gemms += a.requires_grad + b.requires_grad
    rec.count("kernel.gemm_flops", gemms * flops)


def _tape_ops(rec, tape, *_):
    rec.count("tensor.tape_ops", len(tape))


_COUNTERS = {"tensor.matmul": _gemm_flops, "tensor.backward": _tape_ops}


def _wrapper(rec, name, fn):
    counter = _COUNTERS.get(name)

    def wrapped(*args, **kwargs):
        if counter is not None:
            counter(rec, *args)
        rec.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            rec.close()

    wrapped.__wrapped__ = fn
    return wrapped


def wrap(rec):
    """Wrap every existing name of LAYERS; returns the undo list."""
    undo = []
    for span_name, module_name, public in LAYERS:
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            continue
        owner_name, _, attr = public.rpartition(".")
        owner = getattr(module, owner_name) if owner_name else None
        fn = getattr(owner if owner is not None else module, attr, None)
        if fn is None:
            continue
        wrapped = _wrapper(rec, span_name, fn)
        holders = [owner] if owner is not None else [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == "psn" or n.startswith("psn."))]
        for holder in holders:
            for key, value in list(vars(holder).items()):
                if value is fn:
                    setattr(holder, key, wrapped)
                    undo.append((holder, key, fn))
    return undo


def unwrap(undo):
    for holder, key, fn in reversed(undo):
        setattr(holder, key, fn)
