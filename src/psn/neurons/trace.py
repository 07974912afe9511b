"""The input contract and result container of every neuron layer."""

from __future__ import annotations

from ..errors import ContractError, ShapeMismatchError
from ..tensor import stack_rows


def _check_input(x, caller, num_steps=None):
    """The input contract of every neuron forward: a floating-point (T, N)
    array, T >= 1, and T = ``num_steps`` where the layer was built for a
    number of steps. Each message starts with ``caller``, the forward."""
    xd = x.data
    if xd.dtype.kind != "f":
        raise ContractError(
            f"{caller} needs a floating-point input, got {xd.dtype}")
    if xd.ndim != 2 or len(xd) == 0:
        raise ShapeMismatchError(
            f"{caller} needs a (T, N) input with T >= 1, got shape {xd.shape}")
    if num_steps is not None and len(xd) != num_steps:
        raise ShapeMismatchError(
            f"{caller} got {len(xd)} time steps for a layer of {num_steps}")


class SpikeTrace:
    """Spikes plus the pre-spike potential that produced them.

    ``s`` is the (T, N) binary spike tensor. ``h`` is the matching charge
    history; serial layers build it lazily from per-step rows so that merely
    running a sequence does not pay for stacking T rows nobody reads.
    """

    __slots__ = ("s", "_h", "_h_rows")

    def __init__(self, s, h=None, h_rows=None):
        self.s = s
        self._h = h
        self._h_rows = h_rows

    @property
    def h(self):
        if self._h is None:
            self._h = stack_rows(self._h_rows)
            self._h_rows = None
        return self._h

    @property
    def firing_rate(self):
        """Mean spike count over every entry, in [0, 1]."""
        return float(self.s.data.mean())
