"""Iterative regularization toolkit for nonlinear ill-posed operator equations.

Implements an accelerated two-point-gradient method driven by sequential
subspace projections onto residual stripes, alongside Landweber,
two-point-gradient and subspace-projection baselines, with an inverse
potential problem benchmark and a comparison harness.
"""

import os

# One OpenBLAS thread unless the caller set a count, before numpy loads:
# numpy's and scipy's OpenBLAS builds keep two thread pools, and on two cores
# an n = 20 000 np.dot then a scipy daxpy took 4-8 ms against 4 us each alone.
# A linear-diag n = 20 000 `tgss run` took 3.6 s unpinned and 0.39 s pinned.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .numkernel import dot, norm, gaussian_vector
from .operator import ForwardOperator, NoisyData, add_noise
from .invpot import InversePotentialOperator, make_mesh, true_coefficient
from .solvers import METHODS, SolveResult, SolverConfig, run
from .bench import BenchRecord, BenchSpec, relative_error, run_suite

__all__ = [
    "dot", "norm", "gaussian_vector",
    "ForwardOperator", "NoisyData", "add_noise",
    "InversePotentialOperator", "make_mesh", "true_coefficient",
    "METHODS", "SolveResult", "SolverConfig", "run",
    "BenchRecord", "BenchSpec", "relative_error", "run_suite",
]

__version__ = "0.1.0"
