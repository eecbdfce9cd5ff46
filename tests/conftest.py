"""Test-session settings: BLAS runs one thread, as in the benchmark's own runs.

OpenBLAS reads its thread count when numpy loads, so the pin is set here,
before any test module imports numpy.
"""

import os

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"
