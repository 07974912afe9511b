"""Parameter updates and the cosine learning-rate schedule.

Two optimizers: classic SGD with momentum ``MOMENTUM``, and an Adam-style
update with bias correction at ``BETAS`` and ``EPS``. Both keep their state
in flat buffers over all parameters, which must share one dtype, and mutate
parameter data in place, outside any tape. An optimizer over no
parameters, or a step while a parameter has no gradient, raises
``ContractError``. ``lr`` is a plain attribute so the training loop can
drive it from the schedule each epoch.
"""

from __future__ import annotations

import numpy as np

from ..errors import ContractError

MOMENTUM = 0.9
BETAS = (0.9, 0.999)
EPS = 1e-8


class _FlatParams:
    """Parameters of one dtype laid end to end in one flat index space.

    An optimizer keeps its state in flat buffers of this layout, so each
    update formula runs once over every parameter.
    """

    def __init__(self, params):
        self.params = list(params)
        if not self.params:
            raise ContractError("optimizer needs at least one parameter")
        dtypes = {p.data.dtype for p in self.params}
        if len(dtypes) > 1:
            raise ContractError(
                f"optimizer parameters must share one dtype, got "
                f"{sorted(d.name for d in dtypes)}")
        self.dtype = dtypes.pop()
        self.size = sum(p.data.size for p in self.params)

    def zeros(self):
        return np.zeros(self.size, dtype=self.dtype)

    def gather(self):
        """Every parameter's gradient, end to end."""
        missing = [i for i, p in enumerate(self.params) if p.grad is None]
        if missing:
            raise ContractError(
                f"optimizer step without a gradient for parameters {missing}")
        return np.concatenate([p.grad.ravel() for p in self.params])

    def subtract(self, delta):
        """Subtract each parameter's slice of ``delta`` in place.

        ``delta`` is rounded to the parameters' dtype first: a numpy float64
        learning rate (the cosine schedule's) makes it float64.
        """
        delta = np.asarray(delta, dtype=self.dtype)
        pos = 0
        for p in self.params:
            d = p.data
            d -= delta[pos:pos + d.size].reshape(d.shape)
            pos += d.size


class SGDMomentum:
    def __init__(self, params, lr):
        if lr < 0:
            raise ContractError(f"learning rate must be >= 0, got {lr}")
        self._flat = _FlatParams(params)
        self.params = self._flat.params
        self.lr = float(lr)
        self._velocity = self._flat.zeros()

    def zero_grad(self):
        for p in self.params:
            p.zero_grad()

    def step(self):
        g = self._flat.gather()
        v = self._velocity
        v *= MOMENTUM
        v += g
        self._flat.subtract(self.lr * v)


class AdamLike:
    def __init__(self, params, lr):
        if lr < 0:
            raise ContractError(f"learning rate must be >= 0, got {lr}")
        self._flat = _FlatParams(params)
        self.params = self._flat.params
        self.lr = float(lr)
        self._m = self._flat.zeros()
        self._v = self._flat.zeros()
        self._t = 0

    def zero_grad(self):
        for p in self.params:
            p.zero_grad()

    def step(self):
        g = self._flat.gather()
        self._t += 1
        b1, b2 = BETAS
        c1 = 1.0 - b1 ** self._t
        c2 = 1.0 - b2 ** self._t
        m, v = self._m, self._v
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * np.square(g)
        update = (m / c1) / (np.sqrt(v / c2) + EPS)
        self._flat.subtract(self.lr * update)


def cosine_lr(base_lr, epoch, epochs):
    """Cosine annealing from base_lr to 0 across the run.

    The rate is a numpy float64, so an optimizer step is float64 until
    ``_FlatParams.subtract`` rounds it; kept so old manifests replay exactly.
    """
    if epochs <= 1:
        return base_lr
    return base_lr * 0.5 * (1.0 + np.cos(np.pi * epoch / (epochs - 1)))

