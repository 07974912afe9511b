"""Column-sequence batches: synthetic toy data and IDX image files.

Images are presented to the network column by column, left to right: a
(N, H, W) batch becomes a (T=W, N, C=H) sequence where step t delivers
column t of every image. That is a pure axis permutation, so it is lossless
and bit-exact invertible.

The synthetic task encodes class in *when* things happen, not in what or
how much: every sample is a burst of bright columns of fixed width whose
onset column is class-dependent (plus jitter and pixel noise). Total
brightness is class-independent by construction, so any model that pools
over time without temporal context sits at chance; a model that can
integrate across steps separates the classes easily. A PSN with
lower-triangular ones for weights and a constant threshold turns the onset
into a first-crossing time, whose time-averaged spike count identifies the
class exactly, so perfect weights exist.
"""

from __future__ import annotations

import csv
import struct

import numpy as np

from .errors import ContractError, ParseError
from .tensor import Tensor


class SequenceBatch:
    """Inputs (T, N, C) as a tensor, integer labels (N,), and metadata."""

    def __init__(self, inputs, labels, metadata=None):
        self.inputs = inputs
        self.labels = np.asarray(labels, dtype=np.int64)
        self.metadata = dict(metadata or {})
        T, N = inputs.data.shape[0], inputs.data.shape[1]
        if self.labels.shape != (N,):
            raise ContractError(
                f"labels shape {self.labels.shape} does not match batch "
                f"size {N}")

    def __len__(self):
        return self.inputs.data.shape[1]

    @property
    def num_steps(self):
        return self.inputs.data.shape[0]

    @property
    def num_channels(self):
        return self.inputs.data.shape[2]


def columnize(images, labels=None, normalize=False, stats=None):
    """(N, H, W) images -> SequenceBatch with T=W, C=H.

    ``normalize`` standardizes with mean/std taken from ``stats`` when given
    (the train split's statistics) or computed from this batch otherwise;
    the stats used end up in the metadata either way.
    """
    arr = images.data if isinstance(images, Tensor) else np.asarray(images)
    arr = arr.astype(np.float32, copy=False)
    if arr.ndim != 3 or arr.size == 0:
        raise ContractError(
            f"columnize needs a non-empty (N, H, W) batch, got shape "
            f"{arr.shape}")
    n, h, w = arr.shape
    seq = np.ascontiguousarray(arr.transpose(2, 0, 1))  # (W, N, H)

    meta = {"source": "columnize"}
    if normalize:
        if stats is None:
            stats = (float(seq.mean()), float(seq.std()))
        mean, std = stats
        if std <= 0:
            raise ContractError(f"normalization std must be > 0, got {std}")
        seq = (seq - np.float32(mean)) / np.float32(std)
        meta["normalization"] = {"mean": mean, "std": std}

    if labels is None:
        labels = np.zeros(n, dtype=np.int64)
    return SequenceBatch(Tensor(seq), labels, meta)


_IMG_SIZE = 16
_BURST_ENERGY = 4.8
_ROW_KEEP_PROB = 0.75
_AMP_JITTER = 0.10
_PIXEL_NOISE = 0.25


# Burst geometry per class count: (widths, start columns). Every class
# carries the same expected energy (amplitude * width is constant), so
# time-averaged activity alone carries no class signal. Widths between
# groups differ by large ratios, keeping amplitude readable through noise,
# and classes sharing a width differ only in onset. A model that ignores
# column order sees identical value histograms for a shared-width pair,
# which caps order-blind accuracy strictly below 100%.
_GEOMETRY = {
    2: ((8, 2), (2, 12)),
    3: ((8, 4, 2), (1, 7, 12)),
    4: ((8, 4, 4, 2), (1, 6, 10, 13)),
    5: ((8, 4, 4, 2, 2), (1, 6, 10, 2, 14)),
    6: ((8, 8, 4, 4, 2, 2), (1, 5, 9, 12, 3, 14)),
    7: ((8, 8, 6, 4, 4, 2, 2), (1, 4, 9, 7, 12, 2, 14)),
    8: ((8, 8, 6, 6, 4, 4, 2, 2), (1, 5, 3, 9, 6, 12, 8, 14)),
    9: ((8, 8, 6, 6, 4, 4, 3, 2, 2), (1, 5, 3, 9, 6, 12, 10, 8, 14)),
    10: ((8, 8, 6, 6, 4, 4, 3, 3, 2, 2),
         (1, 5, 3, 9, 6, 12, 2, 10, 8, 14)),
}


def _class_geometry(num_classes):
    """Per-class (start column, width, amplitude) of the bright burst."""
    if num_classes not in _GEOMETRY:
        raise ContractError(
            f"toy geometry is defined for 2..10 classes, got {num_classes}")
    widths, starts = (np.asarray(v) for v in _GEOMETRY[num_classes])
    amps = _BURST_ENERGY / widths
    return starts, widths, amps


def _toy_images(num_classes, per_class, rng):
    starts, widths, amps = _class_geometry(num_classes)
    n = num_classes * per_class
    images = rng.normal(0.0, _PIXEL_NOISE,
                        size=(n, _IMG_SIZE, _IMG_SIZE)).astype(np.float32)
    labels = np.repeat(np.arange(num_classes), per_class)
    keep = rng.random(size=(n, _IMG_SIZE, _IMG_SIZE)) < _ROW_KEEP_PROB
    amp = amps[labels] * (1.0 + _AMP_JITTER * rng.standard_normal(size=n))
    for i in range(n):
        s, w = starts[labels[i]], widths[labels[i]]
        images[i, :, s:s + w] += amp[i] * keep[i, :, :w].astype(np.float32)
    order = rng.permutation(n)
    return images[order], labels[order]


def synth_toy_dataset(num_classes, samples_per_class, seed):
    """Deterministic (train, test) SequenceBatch pair, balanced classes.

    The test split holds samples_per_class // 4 samples per class (at least
    one) and is drawn from a separate child of the seed stream, so the
    splits are disjoint by construction. Normalization statistics come from
    the train split and are applied to both.
    """
    if num_classes < 2:
        raise ContractError(f"need at least 2 classes, got {num_classes}")
    if samples_per_class < 1:
        raise ContractError(
            f"need at least 1 sample per class, got {samples_per_class}")
    train_rng, test_rng = [
        np.random.default_rng(s) for s in
        np.random.SeedSequence(seed).spawn(2)]
    test_per_class = max(1, samples_per_class // 4)

    train_images, train_labels = _toy_images(
        num_classes, samples_per_class, train_rng)
    test_images, test_labels = _toy_images(
        num_classes, test_per_class, test_rng)

    stats = (float(train_images.mean()), float(train_images.std()))
    train = columnize(train_images, train_labels, normalize=True, stats=stats)
    test = columnize(test_images, test_labels, normalize=True, stats=stats)
    for split, batch in (("train", train), ("test", test)):
        batch.metadata.update(source="synth_toy", split=split, seed=int(seed),
                              num_classes=int(num_classes))
    return train, test


_IDX_IMAGE_MAGIC = 0x00000803
_IDX_LABEL_MAGIC = 0x00000801


def load_idx_images(path):
    """Standard big-endian IDX image container -> (N, H, W) float32 in [0, 1]."""
    with open(path, "rb") as f:
        blob = f.read()
    if len(blob) < 4:
        raise ParseError("IDX file shorter than its magic", offset=0)
    magic = struct.unpack(">I", blob[:4])[0]
    if magic != _IDX_IMAGE_MAGIC:
        raise ParseError(
            f"bad IDX image magic 0x{magic:08x}, expected "
            f"0x{_IDX_IMAGE_MAGIC:08x}", offset=0)
    if len(blob) < 16:
        raise ParseError("IDX image header truncated", offset=len(blob))
    n, h, w = struct.unpack(">III", blob[4:16])
    need = 16 + n * h * w
    if len(blob) < need:
        raise ParseError(
            f"IDX image payload truncated: need {need} bytes, have "
            f"{len(blob)}", offset=len(blob))
    pixels = np.frombuffer(blob[16:need], dtype=np.uint8)
    return pixels.reshape(n, h, w).astype(np.float32) / 255.0


def load_idx_labels(path):
    """Standard big-endian IDX label container -> (N,) int64."""
    with open(path, "rb") as f:
        blob = f.read()
    if len(blob) < 4:
        raise ParseError("IDX file shorter than its magic", offset=0)
    magic = struct.unpack(">I", blob[:4])[0]
    if magic != _IDX_LABEL_MAGIC:
        raise ParseError(
            f"bad IDX label magic 0x{magic:08x}, expected "
            f"0x{_IDX_LABEL_MAGIC:08x}", offset=0)
    if len(blob) < 8:
        raise ParseError("IDX label header truncated", offset=len(blob))
    n = struct.unpack(">I", blob[4:8])[0]
    if len(blob) < 8 + n:
        raise ParseError(
            f"IDX label payload truncated: need {8 + n} bytes, have "
            f"{len(blob)}", offset=len(blob))
    return np.frombuffer(blob[8:8 + n], dtype=np.uint8).astype(np.int64)


def load_csv_labels(path):
    """One non-negative integer label per row, UTF-8; fallback when labels
    are not IDX."""
    labels = []
    with open(path, newline="", encoding="utf-8") as f:
        try:
            for i, row in enumerate(csv.reader(f)):
                if not row:
                    continue
                label = row[0].strip()
                if not (label.isascii() and label.isdigit()
                        and len(label) < 19):
                    raise ParseError(f"line {i + 1}: {row[0]!r} is not a "
                                     f"non-negative integer label")
                labels.append(int(label))
        except (UnicodeDecodeError, csv.Error) as err:
            raise ParseError(f"{path}: not a CSV text file: {err}") from None
    return np.asarray(labels, dtype=np.int64)


def load_idx_pair(image_path, label_path, normalize=True):
    """Images + labels (IDX or CSV for labels) as one SequenceBatch."""
    images = load_idx_images(image_path)
    if str(label_path).endswith(".csv"):
        labels = load_csv_labels(label_path)
    else:
        labels = load_idx_labels(label_path)
    if labels.shape[0] != images.shape[0]:
        raise ContractError(
            f"{labels.shape[0]} labels for {images.shape[0]} images")
    batch = columnize(images, labels, normalize=normalize)
    batch.metadata["source"] = str(image_path)
    return batch
