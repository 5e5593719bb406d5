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
    """Measured data y_delta and its noise level delta_eff = ||y_delta - y||.

    delta_eff is the norm of the perturbation actually added, the bound
    ||y_delta - y|| <= delta that the discrepancy principle and the stripe
    widths rest on.
    """

    y_delta: Vec
    delta_eff: float


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
        return NoisyData(y_delta, 0.0)
    y_delta = gaussian_vector(y.shape[0], seed)
    y_delta *= delta
    delta_eff = norm(y_delta)
    y_delta += y
    return NoisyData(y_delta, delta_eff)


class DiagonalOperator(ForwardOperator):
    """Linear operator c -> d * c (componentwise).

    Being linear it satisfies the tangential cone condition with eta = 0,
    which makes every stripe-containment and descent statement exact; the
    tests lean on this.  c_F = max|d| is its norm, a value for a
    SolverConfig's c_F.  d is kept ALIGN-aligned, as a copy where the
    given array is not.  d must be a non-empty 1-D array of finite,
    nonzero entries.
    """

    def __init__(self, d: Vec):
        d = aligned(d)
        if d.ndim != 1 or d.size == 0:
            raise InvalidOperatorError(
                f"diagonal must be a non-empty 1-D array, got shape {d.shape}")
        if np.any(d == 0.0):
            raise InvalidOperatorError("diagonal entries must be nonzero")
        self.c_F = float(np.abs(d).max())
        if not math.isfinite(self.c_F):  # a NaN or inf entry makes max|d| one
            i = int(np.flatnonzero(~np.isfinite(d))[0])
            raise InvalidOperatorError(f"diagonal entries must be finite, got d[{i}] = {d[i]}")
        self.d = d
        self.n = self.m = d.shape[0]

    def apply(self, c: Vec, out: Vec | None = None) -> Vec:
        return np.multiply(self.d, np.asarray(c, dtype=float), out=out)

    def derivative_apply(self, c: Vec, q: Vec) -> Vec:
        return self.d * np.asarray(q, dtype=float)

    def adjoint_apply(self, c: Vec, w: Vec, out: Vec | None = None) -> Vec:
        return np.multiply(self.d, np.asarray(w, dtype=float), out=out)
