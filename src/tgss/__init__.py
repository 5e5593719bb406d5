"""Iterative regularization toolkit for nonlinear ill-posed operator equations.

Implements an accelerated two-point-gradient method driven by sequential
subspace projections onto residual stripes, alongside Landweber,
two-point-gradient and subspace-projection baselines, with an inverse
potential problem benchmark and a comparison harness.
"""

from .numkernel import dot, norm, gaussian_vector
from .geometry import Hyperplane, Stripe, StripeSide
from .operator import ForwardOperator, NoisyData, add_noise
from .invpot import InversePotentialOperator, make_mesh, true_coefficient
from .solvers import METHODS, SolveResult, SolverConfig, run
from .bench import BenchRecord, BenchSpec, relative_error, run_suite

__all__ = [
    "dot", "norm", "gaussian_vector",
    "Hyperplane", "Stripe", "StripeSide",
    "ForwardOperator", "NoisyData", "add_noise",
    "InversePotentialOperator", "make_mesh", "true_coefficient",
    "METHODS", "SolveResult", "SolverConfig", "run",
    "BenchRecord", "BenchSpec", "relative_error", "run_suite",
]

__version__ = "0.1.0"
