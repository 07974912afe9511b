"""Pin, set and read back the thread count of numpy's bundled OpenBLAS.

The environment variables only take effect if they are set before numpy
first loads, so ``pin_env`` must run before anything imports numpy. The
effective count is then read back from the library itself through ctypes,
which needs no dependency beyond numpy's own wheel.
"""

import ctypes
import glob
import os
import platform

PINNED_THREADS = 1
THREAD_ENV_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                   "MKL_NUM_THREADS")


def pin_env():
    for var in THREAD_ENV_VARS:
        os.environ[var] = str(PINNED_THREADS)


class OpenBLAS:
    """Handle on the OpenBLAS that numpy loaded."""

    def __init__(self):
        import numpy

        site = os.path.dirname(os.path.dirname(numpy.__file__))
        paths = sorted(glob.glob(os.path.join(site, "numpy.libs",
                                              "*openblas*.so*")))
        if not paths:
            raise RuntimeError("numpy's bundled OpenBLAS was not found, so "
                               "the BLAS thread count cannot be verified")
        self.path = paths[0]
        # The 64-bit-integer scipy-openblas build numpy wheels bundle; a
        # missing symbol raises, and the run then reports nothing.
        lib = ctypes.CDLL(self.path)
        self._get = lib.scipy_openblas_get_num_threads64_
        self._get.argtypes = []
        self._get.restype = ctypes.c_int
        self._set = lib.scipy_openblas_set_num_threads64_
        self._set.argtypes = [ctypes.c_int]
        self._set.restype = None
        self._config = lib.scipy_openblas_get_config64_
        self._config.argtypes = []
        self._config.restype = ctypes.c_char_p

    def threads(self):
        return int(self._get())

    def set_threads(self, n):
        self._set(int(n))
        return self.threads()

    def config(self):
        return self._config().decode()


def environment(blas):
    """What a result depends on besides the code: recorded with every run."""
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_build": blas.config(),
        "blas_library": os.path.basename(blas.path),
        "cpu_count": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "blas_threads_pinned": PINNED_THREADS,
        "blas_threads_effective": blas.threads(),
    }
