"""Classification losses over per-step logits.

Both losses consume (T, N, C) logits. ``loss_ce_mean`` averages the logits
over time first and takes one cross-entropy; ``loss_tet`` takes the
cross-entropy at every time step and averages the losses. They coincide for
T=1 and for time-constant logits.

Cross-entropy is one fused op on the tape: the forward runs a stable
log-softmax, the backward is (softmax - one-hot target)/M.
"""

from __future__ import annotations

import numpy as np

from ..errors import ContractError
from ..tensor import mean_axis0, reshape, taped_op


def _check_labels(labels, num_classes, batch):
    labels = np.asarray(labels)
    if labels.shape != (batch,):
        raise ContractError(
            f"labels shape {labels.shape} does not match batch size {batch}")
    if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
        bad = labels[(labels < 0) | (labels >= num_classes)][0]
        raise ContractError(
            f"label {bad} outside [0, {num_classes})")
    return labels.astype(np.int64)


def cross_entropy(logits, labels):
    """Mean cross-entropy of (M, C) logits against integer labels."""
    ld = logits.data
    if ld.ndim != 2 or ld.shape[1] < 2:
        raise ContractError(
            f"cross_entropy needs (M, C>=2) logits, got shape {ld.shape}")
    m, c = ld.shape
    labels = _check_labels(labels, c, m)

    shifted = ld - ld.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    logp = shifted - lse

    target = np.zeros((m, c), dtype=ld.dtype)
    target[np.arange(m), labels] = 1.0

    loss = -(target * logp).sum() / m

    def backward(gouts):
        g = gouts[0]
        softmax = np.exp(logp)
        return ((softmax - target) * (g / m),)

    return taped_op((logits,), np.asarray(loss), backward)


def loss_ce_mean(outputs, labels):
    """Cross-entropy of time-averaged logits."""
    if outputs.data.ndim != 3:
        raise ContractError(
            f"expected (T, N, C) outputs, got shape {outputs.data.shape}")
    return cross_entropy(mean_axis0(outputs), labels)


def loss_tet(outputs, labels):
    """Mean over time of per-step cross-entropy."""
    if outputs.data.ndim != 3:
        raise ContractError(
            f"expected (T, N, C) outputs, got shape {outputs.data.shape}")
    t, n, c = outputs.data.shape
    flat = reshape(outputs, (t * n, c))
    tiled = np.tile(np.asarray(labels), t)
    return cross_entropy(flat, tiled)
