"""Pool-based active learning with two-granularity inconsistency ranking."""

import os
import sys

# The pool scan runs its row blocks on one thread per CPU, so each matmul
# runs best on one BLAS thread; BLAS reads its thread count when numpy loads.
# Pin it here, before this package loads numpy, unless numpy is already
# loaded or the caller has set a BLAS thread count.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_PINNED_ON_IMPORT = ("numpy" not in sys.modules
                         and not any(v in os.environ for v in BLAS_THREAD_VARS))
if BLAS_PINNED_ON_IMPORT:
    for _var in BLAS_THREAD_VARS:
        os.environ[_var] = "1"

from .config import LoopConfig, load_config, parse_config  # noqa: E402
from .data import Dataset, load_dataset, synthetic_dataset  # noqa: E402
from .loop import ActiveLearningLoop, CycleReport, Oracle, Pool, run  # noqa: E402
from .model import Classifier  # noqa: E402

__version__ = "0.1.0"

__all__ = [
    "ActiveLearningLoop",
    "Classifier",
    "CycleReport",
    "Dataset",
    "LoopConfig",
    "Oracle",
    "Pool",
    "load_config",
    "load_dataset",
    "parse_config",
    "run",
    "synthetic_dataset",
]
