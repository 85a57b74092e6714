"""Test-session set-up: BLAS runs on one thread.

OpenBLAS starts one thread per core by default, and with another process
busy on the host its threads slow the heaviest tests by about 2x.
numpy's bundled OpenBLAS is pinned through its own setter, in this
process only; where numpy carries no such library nothing changes."""

from geodisc.discs import _use_one_blas_thread

_use_one_blas_thread()
