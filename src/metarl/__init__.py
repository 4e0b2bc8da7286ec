"""Meta-reinforcement-learning library: task-directed pre-adaptation and
first/second-order meta-gradient baselines on small control environments."""

from __future__ import annotations

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

from .errors import (
    EmptyTaskSet,
    EpochDiverged,
    InvalidAction,
    MetaRLError,
    NonFiniteValue,
    ParseError,
    UnknownFamily,
    ValidationError,
)
from .rng import Stream

__all__ = [
    "__version__",
    "Stream",
    "MetaRLError",
    "NonFiniteValue",
    "InvalidAction",
    "UnknownFamily",
    "EmptyTaskSet",
    "EpochDiverged",
    "ParseError",
    "ValidationError",
    "Algorithm",
    "Learner",
    "MetaConfig",
    "RunConfig",
    "MetaState",
    "init_state",
    "train",
    "train_epoch",
    "evaluate_policy",
    "Family",
    "Task",
    "TaskDistribution",
    "make_env",
    "medium_task",
    "sample_tasks",
    "load_config",
    "summarize",
    "emit_plot",
    "audit_oracles",
    "load_runlog",
    "save_runlog",
    "RunLog",
    "EpochMetrics",
    "ema_smooth",
    "detect_convergence",
]

from .envs import Family, Task, TaskDistribution, make_env, medium_task, sample_tasks
from .harness import audit_oracles, emit_plot, load_config, summarize
from .meta import (
    Algorithm,
    Learner,
    MetaConfig,
    MetaState,
    RunConfig,
    evaluate_policy,
    init_state,
    train,
    train_epoch,
)
from .runlog import EpochMetrics, RunLog, detect_convergence, ema_smooth, load_runlog, save_runlog
