"""Pin BLAS to one thread for the test session, before numpy loads.

Every expert solve in the tests is small, and at that size OpenBLAS's default
thread count makes them several times slower on a few cores. A thread count
already set in the environment is kept.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
