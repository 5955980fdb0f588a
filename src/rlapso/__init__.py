"""Particle swarm optimization with learned online coefficient control."""

import os

# The networks' matrices are tiny, so BLAS threads only add contention: pin
# them to one before numpy is first imported.  Values the user set still win.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
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
