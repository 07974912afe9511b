"""Parameter updates and learning-rate schedules.

Two optimizers: classic SGD with momentum, and an Adam-style update with
bias correction. Both keep their state in flat buffers over all
parameters, which must share one dtype, and mutate parameter data in
place, outside any tape. A parameter without a gradient is skipped: its
state and data stay as they are. ``lr`` is a plain attribute so the
training loop can drive it from a schedule each epoch.
"""

from __future__ import annotations

import numpy as np

from ..errors import ContractError


class _FlatParams:
    """Parameters of one dtype laid end to end in one flat index space.

    An optimizer keeps its state in flat buffers of this layout, so each
    update formula runs once over every parameter.
    """

    def __init__(self, params):
        self.params = list(params)
        dtypes = {p.data.dtype for p in self.params}
        if len(dtypes) > 1:
            raise ContractError(
                f"optimizer parameters must share one dtype, got "
                f"{sorted(d.name for d in dtypes)}")
        self.dtype = dtypes.pop() if dtypes else np.dtype(np.float32)
        self.sizes = [p.data.size for p in self.params]

    def zeros(self):
        return np.zeros(sum(self.sizes), dtype=self.dtype)

    def gather(self):
        """(live, where, grads): the parameters that have a gradient, the
        selector of their entries in a flat buffer (a slice when all are
        live) and their gradients end to end. ``live`` may be empty."""
        live = [p for p in self.params if p.grad is not None]
        if len(live) == len(self.params):
            where = slice(None)
        else:
            where = np.repeat([p.grad is not None for p in self.params],
                              self.sizes)
        if not live:
            return live, where, None
        return live, where, np.concatenate([p.grad.ravel() for p in live])

    def subtract(self, live, delta):
        """Subtract each live parameter's slice of ``delta`` in place.

        ``delta`` is rounded to the parameters' dtype first: a numpy float64
        learning rate (the cosine schedule's) makes it float64.
        """
        delta = np.asarray(delta, dtype=self.dtype)
        pos = 0
        for p in live:
            d = p.data
            d -= delta[pos:pos + d.size].reshape(d.shape)
            pos += d.size


class SGDMomentum:
    def __init__(self, params, lr, momentum=0.9):
        if lr < 0:
            raise ContractError(f"learning rate must be >= 0, got {lr}")
        if not 0.0 <= momentum < 1.0:
            raise ContractError(f"momentum must lie in [0, 1), got {momentum}")
        self._flat = _FlatParams(params)
        self.params = self._flat.params
        self.lr = float(lr)
        self.momentum = float(momentum)
        self._velocity = self._flat.zeros()

    def zero_grad(self):
        for p in self.params:
            p.zero_grad()

    def step(self):
        live, where, g = self._flat.gather()
        if not live:
            return
        v = self._velocity[where]
        v *= self.momentum
        v += g
        if not isinstance(where, slice):
            self._velocity[where] = v
        self._flat.subtract(live, self.lr * v)


class AdamLike:
    def __init__(self, params, lr=1e-3, betas=(0.9, 0.999), eps=1e-8):
        if lr < 0:
            raise ContractError(f"learning rate must be >= 0, got {lr}")
        b1, b2 = betas
        if not (0.0 <= b1 < 1.0 and 0.0 <= b2 < 1.0):
            raise ContractError(f"betas must lie in [0, 1), got {betas}")
        self._flat = _FlatParams(params)
        self.params = self._flat.params
        self.lr = float(lr)
        self.betas = (float(b1), float(b2))
        self.eps = float(eps)
        self._m = self._flat.zeros()
        self._v = self._flat.zeros()
        self._t = 0

    def zero_grad(self):
        for p in self.params:
            p.zero_grad()

    def step(self):
        self._t += 1
        live, where, g = self._flat.gather()
        if not live:
            return
        b1, b2 = self.betas
        c1 = 1.0 - b1 ** self._t
        c2 = 1.0 - b2 ** self._t
        m = self._m[where]
        v = self._v[where]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * np.square(g)
        if not isinstance(where, slice):
            self._m[where] = m
            self._v[where] = v
        update = (m / c1) / (np.sqrt(v / c2) + self.eps)
        self._flat.subtract(live, self.lr * update)


def cosine_lr(base_lr, epoch, epochs):
    """Cosine annealing from base_lr to 0 across the run.

    The rate is a numpy float64, so an optimizer step is float64 until
    ``_FlatParams.subtract`` rounds it; kept so old manifests replay exactly.
    """
    if epochs <= 1:
        return base_lr
    return base_lr * 0.5 * (1.0 + np.cos(np.pi * epoch / (epochs - 1)))


def step_lr(base_lr, epoch, epochs, gamma=0.1):
    """Decay by gamma at 1/2 and 3/4 of the run."""
    factor = 1.0
    if epoch >= epochs // 2:
        factor *= gamma
    if epoch >= (3 * epochs) // 4:
        factor *= gamma
    return base_lr * factor


def resolve_lr(schedule, base_lr, epoch, epochs):
    if schedule == "cosine":
        return cosine_lr(base_lr, epoch, epochs)
    if schedule == "step":
        return step_lr(base_lr, epoch, epochs)
    if schedule == "none":
        return base_lr
    raise ContractError(f"unknown lr schedule {schedule!r}")
