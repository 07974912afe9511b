"""The neuron-kind registry: the one place a kind name becomes a neuron.

Every kind is a parameter object with a ``forward(x, *, relaxed=False)``
method, which returns a SpikeTrace for a (T, N) input, and a ``names``
tuple of its learnable tensors as checkpoints name them. The module-level
forwards take ``(x, p, *, relaxed=False)``. The reset-free kinds are the
IF/LIF parameters with ``reset_mode`` fixed to "none", which their
``forward`` runs as one whole-sequence recurrence.
"""

from __future__ import annotations

import numpy as np

from ..errors import ContractError
from .parallel import MaskedPSNParams, PSNParams, SlidingPSNParams
from .vanilla import VanillaNeuronParams

_VANILLA_OPTIONS = ("tau_m", "v_th", "v_reset", "detach_reset")

# The options each kind accepts. "order" is the history window k and is
# required wherever it is accepted.
_OPTIONS = {
    "psn": (),
    "masked-psn": ("order",),
    "spsn": ("order",),
    "if": _VANILLA_OPTIONS + ("reset_mode",),
    "lif": _VANILLA_OPTIONS + ("reset_mode",),
    "if-no-reset": _VANILLA_OPTIONS,
    "lif-no-reset": _VANILLA_OPTIONS,
}

KINDS = tuple(_OPTIONS)
# Kinds that take a history window k as opts["order"].
ORDER_KINDS = tuple(k for k, opts in _OPTIONS.items() if "order" in opts)
# Kinds whose weights are T x T, so they need T at build time.
T_SIZED_KINDS = ("psn", "masked-psn")


def make(kind, num_steps, rng, opts=None, dtype=np.float32):
    """Build one neuron layer's parameters; PSN kinds draw weights from rng."""
    if kind not in _OPTIONS:
        raise ContractError(
            f"unknown neuron kind {kind!r}; expected one of {KINDS}")
    opts = dict(opts or {})
    unknown = sorted(set(opts) - set(_OPTIONS[kind]))
    if unknown:
        raise ContractError(
            f"unknown neuron options for {kind!r}: {unknown}")
    if kind in ORDER_KINDS and "order" not in opts:
        raise ContractError(f"{kind} needs opts['order']")
    if kind in T_SIZED_KINDS and num_steps is None:
        raise ContractError(f"{kind} needs the number of time steps")
    if kind == "psn":
        return PSNParams.create(num_steps, rng, dtype)
    if kind == "masked-psn":
        return MaskedPSNParams.create(num_steps, opts["order"], rng, dtype)
    if kind == "spsn":
        return SlidingPSNParams.create(opts["order"], dtype)
    base, _, no_reset = kind.partition("-")
    if no_reset:
        opts["reset_mode"] = "none"
    return VanillaNeuronParams(kind=base, **opts)
