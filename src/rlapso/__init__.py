"""Particle swarm optimization with learned online coefficient control."""

import os
import sys
import warnings

_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
if "numpy" in sys.modules and not any(var in os.environ for var in _THREAD_VARS):
    warnings.warn("numpy was loaded before rlapso with no BLAS thread count set, so it "
                  "keeps its own; set one of OMP_NUM_THREADS, OPENBLAS_NUM_THREADS or "
                  "MKL_NUM_THREADS (1 suits rlapso) before numpy loads", RuntimeWarning)

# The networks' matrices are tiny, so BLAS threads only add contention: pin
# them to one before numpy is first imported.  Values the user set still win.
for _var in _THREAD_VARS:
    os.environ.setdefault(_var, "1")
del _var

from .benchmarks import FUNCTIONS, Objective, make_objective
from .ddpg import (
    DdpgAgent,
    RawState,
    adapted_run,
    encode,
    observe,
    reward,
    train,
)
from .harness import (
    ALGORITHMS,
    ExperimentConfig,
    improvement,
    run_experiment,
    run_single,
    wilcoxon_signed_rank,
)
from .neural import Mlp, load_weights, save_weights
from .swarm import CoefficientSet, RunRecord, Swarm, drive, schedule_coeffs

__version__ = "0.1.0"
