"""Meta-reinforcement-learning library: task-directed pre-adaptation and
first/second-order meta-gradient baselines on small control environments."""

import os
import sys
import warnings

# OpenBLAS's split of a product across threads changes its last bits, so the
# library runs BLAS on one thread unless the caller chose. numpy reads these
# once, when it loads, so they are set before anything imports it.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
_unset = [var for var in _BLAS_THREAD_VARS if var not in os.environ]
os.environ.update(dict.fromkeys(_unset, "1"))
if _unset and "numpy" in sys.modules:
    warnings.warn(f"numpy was imported before metarl with {', '.join(_unset)} unset: BLAS may use "
                  "several threads, giving other bits than one", RuntimeWarning, stacklevel=2)

__version__ = "0.1.0"

__all__ = ["__version__"]
