"""Spiking neurons with parallelizable dynamics, on a small taped autodiff core.

The package is organized the way the pieces layer:

- ``psn.tensor``: numpy-backed tensors + reverse-mode tape
- ``psn.neurons``: surrogate gradients, serial IF/LIF, and the parallel family
- ``psn.training`` / ``psn.data``: toy training harness and datasets
- ``psn.bench`` / ``psn.verify``: timing/memory experiments and equivalence suites
- ``psn.cli``: the ``psn`` command

Import ``psn.cli`` only through the console script; everything else is a
normal library import.
"""

__all__ = ["Tensor", "Tape", "no_tape", "taped_op"]
__version__ = "0.1.0"

# The CLI must pin the BLAS thread env vars before numpy first loads, and
# importing this package is the first thing the console script does, so the
# re-exports resolve lazily instead of importing the tensor core here.
_EXPORTS = {name: "tensor" for name in __all__}


def __getattr__(name):
    if name in _EXPORTS:
        import importlib

        value = getattr(
            importlib.import_module("." + _EXPORTS[name], __name__), name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
