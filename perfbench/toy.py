"""The ``psn train`` default task, trained end to end through ``train()``.

Data, model and optimizer match the CLI defaults (4 classes x 500 samples,
T=16, C=16, hidden 32, batch 64, Adam at lr 2e-3, cosine schedule). Only the
epoch count is cut, to 16, so a run holds several trainings per kind. Every
training starts from a fresh model at the workload seed, so each one must
write the same history as the first, and end above an accuracy floor.
"""

import numpy as np
from psn import data, training
from psn.tensor import Tape, Tensor

TRAIN_KINDS = ("psn", "lif", "lif-no-reset")
CLASSES = 4
PER_CLASS = 500
HIDDEN = 32
BATCH = 64
LR = 2e-3
EPOCHS = 16
# Final test accuracy after 16 epochs over seeds 0-39 was at least 0.84
# (psn) and 0.64 (lif, lif-no-reset); chance is 0.25.
ACCURACY_FLOOR = {"psn": 0.6, "lif": 0.5, "lif-no-reset": 0.5}


def make_data(seed):
    return data.synth_toy_dataset(CLASSES, PER_CLASS, seed)


def make_model(kind, seed, batch):
    spec = training.ModelSpec(
        layers=(("linear", batch.num_channels, HIDDEN),
                ("neuron", kind),
                ("linear", HIDDEN, CLASSES)),
        seed=seed, num_steps=batch.num_steps)
    return training.Model(spec, num_channels=batch.num_channels)


def train_config(seed, epochs=EPOCHS):
    return training.TrainConfig(epochs=epochs, batch_size=BATCH,
                                learning_rate=LR, optimizer_kind="adam_like",
                                seed=seed)


def check_history(kind, history, expected_lines, epochs=EPOCHS):
    """None if a training's history is sound, else why it is not.

    ``expected_lines`` is the first history at this seed (None for the
    first); a later one must match it line for line.
    """
    values = [v for _, _, _, v in history.records]
    if not values or not np.isfinite(values).all():
        return "non-finite or empty history"
    lines = history.lines()
    if expected_lines is not None and lines != expected_lines:
        return "history differs from the first training at this seed"
    accuracy = history.series("test", "accuracy")
    if len(accuracy) != epochs:
        return f"{len(accuracy)} epochs recorded, expected {epochs}"
    if epochs == EPOCHS and accuracy[-1][1] < ACCURACY_FLOOR[kind]:
        return (f"final test accuracy {accuracy[-1][1]:.3f} below the floor "
                f"{ACCURACY_FLOOR[kind]}")
    return None


class BatchLoop:
    """Single training batches of one model, for timing batch by batch."""

    def __init__(self, kind, seed, train_batch):
        self.model = make_model(kind, seed, train_batch)
        self.optimizer = training.AdamLike(self.model.parameters(), LR)
        self.inputs = train_batch.inputs.data
        self.labels = train_batch.labels
        self.start = 0

    def step(self):
        n = self.inputs.shape[1]
        idx = np.arange(self.start, self.start + BATCH) % n
        self.start = (self.start + BATCH) % n
        xb = Tensor(np.ascontiguousarray(self.inputs[:, idx, :]))
        self.optimizer.zero_grad()
        with Tape() as tape:
            loss = training.loss_ce_mean(self.model.forward(xb),
                                         self.labels[idx])
            tape.backward(loss)
        self.optimizer.step()
        return float(loss.data)
