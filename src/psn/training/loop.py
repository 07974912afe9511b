"""BPTT training loop over column-sequence batches.

Determinism is a hard contract here: with a fixed (seed, config, data) the
whole run, including the emitted history, is bit-identical across
executions. Shuffling derives a fresh generator from (seed, epoch), model
init derives from the spec seed, and nothing else draws randomness.

History is line-delimited text, one record per line:

    epoch<TAB>split<TAB>metric<TAB>value

with the value printed by repr() so floats round-trip exactly. Per epoch
the loop emits train loss, train/test accuracy, per-layer firing rates from
the test pass (metric ``firing_rate.<i>``), the learning rate actually
used, and lambda when a masked PSN is present.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..atomic import write_atomic
from ..errors import ContractError
from ..neurons import lambda_schedule
from ..tensor import Tensor, no_tape, Tape
from .losses import loss_ce_mean, loss_tet
from .optim import AdamLike, SGDMomentum, cosine_lr

OPTIMIZERS = ("sgd_momentum", "adam_like")
LOSSES = ("ce_mean_output", "tet")
EVAL_BATCH = 256


@dataclass
class TrainConfig:
    epochs: int
    batch_size: int = 64
    learning_rate: float = 1e-3
    optimizer_kind: str = "adam_like"
    loss_kind: str = "ce_mean_output"
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1:
            raise ContractError(f"epochs must be >= 1, got {self.epochs}")
        if not 0 < self.learning_rate < float("inf"):
            raise ContractError(f"learning rate must be finite and > 0, "
                                f"got {self.learning_rate}")
        if self.seed < 0:
            raise ContractError(f"seed must be >= 0, got {self.seed}")
        if self.batch_size < 1:
            raise ContractError(
                f"batch size must be >= 1, got {self.batch_size}")
        if self.optimizer_kind not in OPTIMIZERS:
            raise ContractError(
                f"unknown optimizer {self.optimizer_kind!r}")
        if self.loss_kind not in LOSSES:
            raise ContractError(f"unknown loss {self.loss_kind!r}")


class History:
    """Ordered (epoch, split, metric, value) records with a text form.

    ``epoch_seconds`` holds the wall time of each epoch ``train`` ran. It
    is kept apart from the records, so the text form stays bit-identical
    across executions.
    """

    def __init__(self):
        self.records = []
        self.epoch_seconds = []

    def add(self, epoch, split, metric, value):
        self.records.append((int(epoch), split, metric, float(value)))

    def lines(self):
        return [f"{e}\t{s}\t{m}\t{v!r}" for e, s, m, v in self.records]

    def to_text(self):
        return "\n".join(self.lines()) + "\n"

    def write(self, path):
        write_atomic(path, self.to_text())

    def series(self, split, metric):
        return [(e, v) for e, s, m, v in self.records
                if s == split and m == metric]


def evaluate(model, batch):
    """Top-1 accuracy plus mean firing rate per neuron layer."""
    inputs = batch.inputs.data
    labels = batch.labels
    n = inputs.shape[1]
    correct = 0
    rate_sums = np.zeros(len(model.neuron_layers()))
    with no_tape():
        for start in range(0, n, EVAL_BATCH):
            stop = min(start + EVAL_BATCH, n)
            xb = Tensor(inputs[:, start:stop, :])
            logits = model.forward(xb).data
            if model.spec.head == "per-step":
                # Each sample's most voted class, the lowest on a tie.
                votes = logits.argmax(axis=2)  # (T, b)
                classes = np.arange(logits.shape[2])
                pred = (votes[..., None] == classes).sum(axis=0).argmax(axis=1)
            else:
                pred = logits.mean(axis=0).argmax(axis=1)
            correct += int((pred == labels[start:stop]).sum())
            rates = model.firing_rates()
            rate_sums += np.asarray(rates) * (stop - start)
    return correct / n, list(rate_sums / n)


def train(model, train_batch, test_batch, cfg):
    """Train ``model`` in place under the cosine schedule; returns the
    History.

    Each epoch's wall time, evaluation included, is appended to the
    history's ``epoch_seconds``.
    """
    loss_fn = loss_ce_mean if cfg.loss_kind == "ce_mean_output" else loss_tet
    optimizer = (SGDMomentum if cfg.optimizer_kind == "sgd_momentum"
                 else AdamLike)(model.parameters(), cfg.learning_rate)
    history = History()

    inputs = train_batch.inputs.data
    labels = train_batch.labels
    n = inputs.shape[1]
    has_masked = model.masked_lambda() is not None

    for epoch in range(cfg.epochs):
        started = time.perf_counter()
        if has_masked:
            lam = (lambda_schedule(epoch, cfg.epochs)
                   if cfg.epochs >= 2 else 1.0)
            model.set_masked_lambda(lam)

        optimizer.lr = lr = cosine_lr(cfg.learning_rate, epoch, cfg.epochs)

        order = np.random.default_rng([cfg.seed, epoch]).permutation(n)
        loss_total = 0.0
        for start in range(0, n, cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            xb = Tensor(np.ascontiguousarray(inputs[:, idx, :]))
            yb = labels[idx]
            optimizer.zero_grad()
            with Tape() as tape:
                logits = model.forward(xb)
                loss = loss_fn(logits, yb)
                loss_value = float(loss.data)
                if not np.isfinite(loss_value):
                    model.raise_divergence(loss_value)
                tape.backward(loss)
            optimizer.step()
            loss_total += loss_value * len(idx)

        train_acc, _ = evaluate(model, train_batch)
        test_acc, test_rates = evaluate(model, test_batch)

        history.add(epoch, "train", "loss", loss_total / n)
        history.add(epoch, "train", "accuracy", train_acc)
        history.add(epoch, "train", "lr", lr)
        history.add(epoch, "test", "accuracy", test_acc)
        for i, rate in enumerate(test_rates):
            history.add(epoch, "test", f"firing_rate.{i}", rate)
        if has_masked:
            history.add(epoch, "train", "lambda", model.masked_lambda())
        history.epoch_seconds.append(time.perf_counter() - started)

    return history
