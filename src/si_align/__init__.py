"""si_align: alignment and filtering toolkit for SI parallel corpora.

Talk-level `--jobs` is the only parallelism: unless the user sets one of
the BLAS thread variables, each process runs one BLAS thread. This has to
happen before numpy is imported, so it is done here. It also keeps the
cosine grids independent of the machine's core count.
"""

import os

_BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
if not any(name in os.environ for name in _BLAS_THREAD_VARS):
    os.environ.update(dict.fromkeys(_BLAS_THREAD_VARS, "1"))

__version__ = "0.1.0"
