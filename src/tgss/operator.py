"""Forward-operator contract, the Gaussian noise model and a linear test operator."""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass

import numpy as np

from .numkernel import Vec, aligned, empty, gaussian_vector, norm


class InvalidOperatorError(ValueError):
    pass


class ForwardOperator(abc.ABC):
    """Evaluation contract shared by all solvers.

    Implementations must make derivative_apply and adjoint_apply mutually
    adjoint with respect to the Euclidean inner product on coefficient
    vectors: <F'(c) q, w> == <q, F'(c)* w> up to round-off.

    apply and adjoint_apply take an optional output array `out` of the
    result's length.  An implementation may write the result into `out`
    and return it, or ignore `out` and return a new array; callers always
    use the returned array.  With out=None the result is a new array that
    the caller owns.  The solvers pass work vectors as `out`, so that an
    iteration allocates no vector of the problem's size.

    The tangential cone constant eta and the derivative bound c_F are not
    part of the operator: a run reads them from its SolverConfig.

    Attributes
    ----------
    n, m : int
        Domain and range dimensions.
    """

    n: int
    m: int

    @abc.abstractmethod
    def apply(self, c: Vec, out: Vec | None = None) -> Vec:
        """Evaluate F(c), into `out` where given."""

    @abc.abstractmethod
    def derivative_apply(self, c: Vec, q: Vec) -> Vec:
        """Evaluate F'(c) q."""

    @abc.abstractmethod
    def adjoint_apply(self, c: Vec, w: Vec, out: Vec | None = None) -> Vec:
        """Evaluate F'(c)* w, into `out` where given."""


@dataclass(frozen=True)
class NoisyData:
    """Measured data with its nominal and effective noise levels.

    delta is the nominal level of the noise model y + delta * n with n a
    seeded standard normal draw; delta_eff is the actually realized
    perturbation norm ||y_delta - y||, which the discrepancy principle
    consumes in its default mode.
    """

    y_delta: Vec
    delta: float
    seed: int
    delta_eff: float

    def delta_used(self, mode: str = "effective") -> float:
        if mode == "effective":
            return self.delta_eff
        if mode == "nominal":
            return self.delta
        raise ValueError(f"unknown delta mode {mode!r}")


def add_noise(y: Vec, delta: float, seed: int) -> NoisyData:
    """Perturb exact data y by delta times a seeded standard normal draw.

    y_delta is a new ALIGN-aligned array: the draw, scaled and then added
    to y in place.
    """
    if not (delta >= 0.0 and math.isfinite(delta)):
        raise ValueError(f"noise level must be finite and >= 0, got {delta}")
    y = np.asarray(y, dtype=float)
    if delta == 0.0:
        y_delta = empty(y.shape)
        np.copyto(y_delta, y)
        return NoisyData(y_delta=y_delta, delta=0.0, seed=seed, delta_eff=0.0)
    y_delta = gaussian_vector(y.shape[0], seed)
    y_delta *= delta
    delta_eff = norm(y_delta)
    y_delta += y
    return NoisyData(y_delta=y_delta, delta=delta, seed=seed, delta_eff=delta_eff)


class DiagonalOperator(ForwardOperator):
    """Linear operator c -> d * c (componentwise).

    Being linear it satisfies the tangential cone condition with eta = 0,
    which makes every stripe-containment and descent statement exact; the
    tests lean on this.  c_F = max|d| is its norm, a value for a
    SolverConfig's c_F.  d is kept ALIGN-aligned, as a copy where the
    given array is not.
    """

    def __init__(self, d: Vec):
        d = aligned(d)
        if np.any(d == 0.0):
            raise InvalidOperatorError("diagonal entries must be nonzero")
        self.d = d
        self.n = self.m = d.shape[0]
        self.c_F = float(np.abs(d).max())

    def apply(self, c: Vec, out: Vec | None = None) -> Vec:
        return np.multiply(self.d, np.asarray(c, dtype=float), out=out)

    def derivative_apply(self, c: Vec, q: Vec) -> Vec:
        return self.d * np.asarray(q, dtype=float)

    def adjoint_apply(self, c: Vec, w: Vec, out: Vec | None = None) -> Vec:
        return np.multiply(self.d, np.asarray(w, dtype=float), out=out)
