"""Test-session set-up, run by pytest before any test module imports numpy."""

import os

# One BLAS/OpenMP thread unless the caller chose otherwise: the oracle's
# matrices are small, and a spinning OpenBLAS pool slows several-fold when
# another process holds a core.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
