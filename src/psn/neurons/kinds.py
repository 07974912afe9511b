"""The neuron-kind registry: the one place a kind name becomes a neuron.

Every kind is a parameter object with a ``forward(x, *, relaxed=False)``
method, which returns a SpikeTrace for a (T, N) input, and a ``names``
tuple of its learnable tensors as checkpoints name them. The module-level
forwards take ``(x, p, *, relaxed=False)``. The IF/LIF kinds take no
options: ``if``/``lif`` are ``VanillaNeuronParams`` with the hard reset
(to +0.0), run by ``vanilla_sequence``, and the reset-free kinds the same
with ``reset_mode`` "none", run by ``parallel_no_reset``; both run one
array loop over one block walk.
"""

from __future__ import annotations

import numbers

from ..errors import ContractError
from .parallel import MaskedPSNParams, PSNParams, SlidingPSNParams
from .vanilla import VanillaNeuronParams

KINDS = ("psn", "masked-psn", "spsn", "if", "lif", "if-no-reset",
         "lif-no-reset")
# Kinds that take a history window k as opts["order"], and require it; no
# other kind takes an option.
ORDER_KINDS = ("masked-psn", "spsn")
# Kinds whose weights are T x T, so they need T at build time.
T_SIZED_KINDS = ("psn", "masked-psn")


def make(kind, num_steps, rng, opts=None):
    """Build one neuron layer's parameters; PSN kinds draw weights from rng."""
    if kind not in KINDS:
        raise ContractError(
            f"unknown neuron kind {kind!r}; expected one of {KINDS}")
    opts = opts or {}
    unknown = sorted(set(opts) - ({"order"} if kind in ORDER_KINDS else set()))
    if unknown:
        raise ContractError(
            f"unknown neuron options for {kind!r}: {unknown}")
    if kind in ORDER_KINDS and "order" not in opts:
        raise ContractError(f"{kind} needs opts['order']")
    if kind in T_SIZED_KINDS and num_steps is None:
        raise ContractError(f"{kind} needs the number of time steps")
    if num_steps is not None and not (
            isinstance(num_steps, numbers.Integral)
            and not isinstance(num_steps, bool) and num_steps >= 1):
        raise ContractError(
            f"need an integer of at least one time step, got {num_steps!r}")
    if kind == "psn":
        return PSNParams.create(num_steps, rng)
    if kind == "masked-psn":
        return MaskedPSNParams.create(num_steps, opts["order"], rng)
    if kind == "spsn":
        return SlidingPSNParams.create(opts["order"])
    base, _, no_reset = kind.partition("-")
    return VanillaNeuronParams(kind=base,
                               reset_mode="none" if no_reset else "hard")
