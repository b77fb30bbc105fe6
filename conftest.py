"""pytest set-up shared by ``tests/`` and ``perfbench/``.

BLAS is pinned to one thread before anything imports numpy, which OpenBLAS
reads only when it is loaded.  With one BLAS thread per subtest, ``ecit``
runs its subtests on every core (see :func:`citkit.ensemble.ecit`), and the
single kernel tests do not oversubscribe the cores either.
"""

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"
