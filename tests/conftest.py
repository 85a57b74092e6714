"""Test-session set-up: BLAS runs on one thread.

OpenBLAS starts one thread per core by default, and with another process
busy on the host its threads slow the heaviest tests by about 2x.
numpy's bundled OpenBLAS is pinned through its own setter, in this
process only; where numpy carries no such library nothing changes."""

from geodisc.discs import _numpy_openblas

_set_threads = getattr(_numpy_openblas(), "scipy_openblas_set_num_threads64_",
                       None)
if _set_threads is not None:
    _set_threads(1)
