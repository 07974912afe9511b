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

# Nothing is imported here: the CLI must pin the BLAS thread env vars before
# numpy first loads, and importing this package comes first.
__version__ = "0.1.0"
