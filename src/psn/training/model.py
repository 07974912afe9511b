"""Sequence classification models: linear synapses alternating with neurons.

A model is built from a ModelSpec: an ordered list of layer descriptions,
each either ("linear", in_dim, out_dim) or ("neuron", kind, opts). Inputs
are (T, N, C) sequences; linear layers act per step on the channel axis,
neuron layers flatten (N, C) into one batch axis, run their dynamics over
time, and restore the shape. The forward pass emits per-step logits
(T, N, num_classes); heads and losses decide how to collapse time.

The neuron kinds, their options and their forwards are defined once, in
``psn.neurons.kinds`` (``KINDS`` and ``make``); this module only stacks them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ContractError, DivergenceError
from ..neurons import KINDS, T_SIZED_KINDS, MaskedPSNParams, make
from ..tensor import Tensor, linear, reshape

HEADS = ("time-averaged", "per-step")


@dataclass
class ModelSpec:
    """Layer list, classifier head, and the seed that fixes every init."""

    layers: tuple
    head: str = "time-averaged"
    seed: int = 0
    num_steps: int | None = None

    def __post_init__(self):
        self.layers = tuple(tuple(l) for l in self.layers)
        if self.head not in HEADS:
            raise ContractError(f"unknown head {self.head!r}")
        if not self.layers:
            raise ContractError("model needs at least one layer")
        for i, layer in enumerate(self.layers):
            if layer[0] == "linear":
                if len(layer) != 3:
                    raise ContractError(
                        f"linear layer {i} must be ('linear', in, out)")
                if min(layer[1:]) < 1:
                    raise ContractError(
                        f"linear layer {i} needs in and out >= 1, got "
                        f"{layer[1:]}")
            elif layer[0] == "neuron":
                if len(layer) not in (2, 3):
                    raise ContractError(
                        f"neuron layer {i} must be ('neuron', kind[, opts])")
                kind = layer[1]
                if kind not in KINDS:
                    raise ContractError(f"unknown neuron kind {kind!r}")
                if i == 0 or self.layers[i - 1][0] != "linear":
                    raise ContractError(
                        f"neuron layer {i} must be preceded by a weighted "
                        f"layer")
                if kind in T_SIZED_KINDS and self.num_steps is None:
                    raise ContractError(
                        f"{kind} layers need ModelSpec.num_steps")
            else:
                raise ContractError(f"unknown layer type {layer[0]!r}")


class LinearLayer:
    def __init__(self, in_dim, out_dim, rng, dtype=np.float32):
        bound = 1.0 / np.sqrt(in_dim)
        self.weight = Tensor(
            rng.uniform(-bound, bound, size=(in_dim, out_dim)).astype(dtype),
            requires_grad=True)
        self.bias = Tensor(
            rng.uniform(-bound, bound, size=out_dim).astype(dtype),
            requires_grad=True)

    def __call__(self, x):
        return linear(x, self.weight, self.bias)

    def parameters(self):
        return {"weight": self.weight, "bias": self.bias}


class NeuronLayer:
    def __init__(self, kind, opts, num_steps, rng):
        self.params = make(kind, num_steps, rng, opts)
        self.last_trace = None

    def __call__(self, x):
        T, N, C = x.data.shape
        trace = self.params.forward(reshape(x, (T, N * C)))
        self.last_trace = trace
        return reshape(trace.s, (T, N, C))

    def parameters(self):
        return {name: getattr(self.params, name)
                for name in self.params.names}


class Model:
    """A built ModelSpec: owns parameters, runs forward, tracks traces."""

    def __init__(self, spec, num_channels):
        self.spec = spec
        rng = np.random.default_rng(spec.seed)
        self.layers = []
        dim = num_channels
        for layer in spec.layers:
            if layer[0] == "linear":
                _, in_dim, out_dim = layer
                if in_dim != dim:
                    raise ContractError(
                        f"linear layer expects {in_dim} channels but the "
                        f"previous layer produces {dim}")
                self.layers.append(LinearLayer(in_dim, out_dim, rng))
                dim = out_dim
            else:
                kind = layer[1]
                opts = layer[2] if len(layer) == 3 else {}
                self.layers.append(
                    NeuronLayer(kind, opts, spec.num_steps, rng))
        self.num_classes = dim
        self.last_outputs = []

    def forward(self, x):
        """(T, N, C) input tensor -> (T, N, num_classes) per-step logits."""
        self.last_outputs = [("input", x)]
        out = x
        for i, layer in enumerate(self.layers):
            out = layer(out)
            self.last_outputs.append((f"layer{i}.output", out))
        return out

    def neuron_layers(self):
        return [l for l in self.layers if isinstance(l, NeuronLayer)]

    def firing_rates(self):
        """Mean spike rate per neuron layer from the most recent forward."""
        rates = []
        for layer in self.neuron_layers():
            if layer.last_trace is None:
                raise ContractError("no forward pass has run yet")
            rates.append(layer.last_trace.firing_rate)
        return rates

    def set_masked_lambda(self, lam):
        for layer in self.neuron_layers():
            if isinstance(layer.params, MaskedPSNParams):
                layer.params.set_lambda(lam)

    def masked_lambda(self):
        for layer in self.neuron_layers():
            if isinstance(layer.params, MaskedPSNParams):
                return layer.params.lam
        return None

    def named_parameters(self):
        out = {}
        for i, layer in enumerate(self.layers):
            for name, p in layer.parameters().items():
                out[f"layer{i}.{name}"] = p
        return out

    def parameters(self):
        return list(self.named_parameters().values())

    def state_dict(self):
        return {name: p.data.copy()
                for name, p in self.named_parameters().items()}

    def load_state_dict(self, state):
        params = self.named_parameters()
        missing = set(params) - set(state)
        extra = set(state) - set(params)
        if missing or extra:
            raise ContractError(
                f"state dict mismatch: missing {sorted(missing)}, "
                f"unexpected {sorted(extra)}")
        for name, p in params.items():
            arr = np.asarray(state[name], dtype=p.data.dtype)
            if arr.shape != p.data.shape:
                raise ContractError(
                    f"{name}: checkpoint shape {arr.shape} vs model shape "
                    f"{p.data.shape}")
            p.data = arr.copy()

    def raise_divergence(self, loss_value):
        """DivergenceError naming the first output, in forward order, with
        a non-finite entry ("loss" when there is none)."""
        name = next((name for name, t in self.last_outputs
                     if not np.all(np.isfinite(t.data))), "loss")
        raise DivergenceError(name, f"training diverged (loss={loss_value}); "
                                    f"non-finite values first appeared in "
                                    f"{name!r}")
