"""Hyperplanes, halfspaces and stripes with their metric projections.

A stripe is the thickened hyperplane {x : |<u, x> - alpha| <= xi}.  The
solvers confine each iterate to an intersection of such stripes; the
ordered sequential projection implemented here first projects onto the
upper boundary of the current stripe and then re-projects onto the
intersection of all boundary hyperplanes picked up along the way.

Every point the sequential projection visits lies in z + span{u_i}, so it
works in coefficient space: it forms the m x m Gram matrix of the m
stripe directions and their inner products with z once, runs its side
tests and Gram solves on m-vectors, and touches vectors of length n only
for those m(m+1)/2 + m inner products and one update of the final point.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import daxpy

from .numkernel import Vec, DimensionError, SingularSystemError, dot, norm, solve_spd_dense


class InvalidStripeError(ValueError):
    """Zero direction vector or negative half-width."""


class DependentDirectionsError(RuntimeError):
    """Gram system for an intersection projection was singular."""


class ProjectionPreconditionError(RuntimeError):
    """Point fed to the sequential projection is not above its first stripe."""


@dataclass(frozen=True)
class Hyperplane:
    """The set {x : <u, x> = alpha}."""

    u: Vec
    alpha: float

    def __post_init__(self):
        u = np.asarray(self.u, dtype=float)
        if norm(u) == 0.0:
            raise InvalidStripeError("hyperplane direction must be nonzero")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "alpha", float(self.alpha))


@dataclass(frozen=True)
class Stripe:
    """The set {x : |<u, x> - alpha| <= xi}, xi >= 0.

    With xi = 0 this degenerates to the hyperplane H(u, alpha).
    """

    u: Vec
    alpha: float
    xi: float

    def __post_init__(self):
        u = np.asarray(self.u, dtype=float)
        if not u.any():
            raise InvalidStripeError("stripe direction must be nonzero")
        if self.xi < 0:
            raise InvalidStripeError(f"stripe half-width must be >= 0, got {self.xi}")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "alpha", float(self.alpha))
        object.__setattr__(self, "xi", float(self.xi))

    def upper(self) -> Hyperplane:
        return Hyperplane(self.u, self.alpha + self.xi)

    def lower(self) -> Hyperplane:
        return Hyperplane(self.u, self.alpha - self.xi)


class StripeSide(enum.Enum):
    ABOVE = "above"
    INSIDE = "inside"
    BELOW = "below"


def project_hyperplane(x: Vec, plane: Hyperplane) -> Vec:
    """Orthogonal projection of x onto the hyperplane."""
    u = plane.u
    t = (dot(u, x) - plane.alpha) / dot(u, u)
    return np.asarray(x, dtype=float) - t * u


def project_halfspace(x: Vec, u: Vec, alpha: float) -> Vec:
    """Projection of x onto the halfspace {<u, .> <= alpha}.

    Returns x unchanged when already feasible, otherwise the orthogonal
    projection onto the boundary hyperplane.
    """
    plane = Hyperplane(u, alpha)
    if dot(plane.u, x) <= alpha:
        return np.asarray(x, dtype=float)
    return project_hyperplane(x, plane)


def classify(x: Vec, stripe: Stripe) -> StripeSide:
    """Which side of the stripe x lies on; boundary points count as inside."""
    s = dot(stripe.u, x) - stripe.alpha
    if s > stripe.xi:
        return StripeSide.ABOVE
    if s < -stripe.xi:
        return StripeSide.BELOW
    return StripeSide.INSIDE


def project_stripe(x: Vec, stripe: Stripe) -> Vec:
    """Metric projection of x onto the stripe (case split on the side)."""
    side = classify(x, stripe)
    if side is StripeSide.INSIDE:
        return np.asarray(x, dtype=float)
    if side is StripeSide.ABOVE:
        return project_hyperplane(x, stripe.upper())
    return project_hyperplane(x, stripe.lower())


def project_hyperplane_intersection(x: Vec, planes: list[Hyperplane]) -> tuple[Vec, Vec]:
    """Project x onto the intersection of several hyperplanes.

    Solves the Gram normal equations G t = b with G_ij = <u_i, u_j> and
    b_j = <u_j, x> - alpha_j, and returns (x - sum_i t_i u_i, t).

    Raises
    ------
    DependentDirectionsError
        When the Gram matrix is singular (linearly dependent directions).
    """
    if not planes:
        raise DimensionError("need at least one hyperplane")
    U = np.stack([p.u for p in planes])
    alphas = np.array([p.alpha for p in planes])
    G = U @ U.T
    b = U @ np.asarray(x, dtype=float) - alphas
    try:
        t = solve_spd_dense(G, b)
    except SingularSystemError as exc:
        raise DependentDirectionsError(str(exc)) from exc
    return np.asarray(x, dtype=float) - t @ U, t


def gamma(u1: Vec, u2: Vec) -> float:
    """Sine of the angle between two directions: 1 if orthogonal, 0 if parallel."""
    n1, n2 = norm(u1), norm(u2)
    if n1 == 0.0 or n2 == 0.0:
        raise InvalidStripeError("gamma needs two nonzero directions")
    c = dot(u1, u2) / (n1 * n2)
    return float(np.sqrt(max(0.0, 1.0 - min(1.0, c * c))))


@dataclass
class SequentialProjectionResult:
    """Outcome of sequential_stripe_projection.

    point = z - sum_i coefficients[i] * u_i over the input stripes; the
    skipped stripes have zero coefficients.
    """

    point: Vec
    coefficients: Vec
    n_dropped: int
    skipped: list[int]
    first_step: tuple[Vec, float, Vec]  # (z, t_0, u_0)

    @property
    def first_step_point(self) -> Vec:
        """z - t_0 u_0: z projected onto the first stripe's upper boundary.

        Computed when read, from the z and u_0 arrays the projection was
        given: read it before a caller reuses either array.
        """
        z, t0, u0 = self.first_step
        return z - t0 * u0


def sequential_stripe_projection(z: Vec, stripes: list[Stripe],
                                 out: Vec | None = None) -> SequentialProjectionResult:
    """Ordered projection of z onto an intersection of stripes.

    The first stripe is the current one and z must lie strictly above it.
    Step one projects z onto its upper boundary hyperplane.  Each further
    stripe is then visited in order: if the running point is already
    inside, it contributes a zero coefficient; otherwise its violated
    boundary hyperplane joins the active set and the running point is
    re-projected onto the intersection of all active boundaries.  A new
    stripe whose boundary makes the Gram system singular is itself
    skipped: the active set stays as it was, the stripe keeps a zero
    coefficient, joins `skipped` and is counted in `n_dropped`.

    Every running point is z - sum_i c_i u_i, so the loop runs on the m
    coefficients c alone: <u_i, point> = <u_i, z> - (G c)_i with the Gram
    matrix G_ij = <u_i, u_j>, and a re-projection solves the active
    sub-block of G.  A call costs m(m+1)/2 + m inner products of length n
    for G and the <u_i, z>, plus one update of length n per active
    direction to build the final point.

    Returns the final point together with the aggregate coefficients t_i
    (one per input stripe) such that point = z - sum_i t_i * u_i.  The
    point is built in `out` where given, an array of z's shape that is not
    z itself, and in a new array otherwise.
    """
    if not stripes:
        raise DimensionError("need at least one stripe")
    z = np.asarray(z, dtype=float)
    u = [s.u for s in stripes]
    if any(ui.shape != z.shape for ui in u):
        raise DimensionError(f"stripe directions do not match the point's shape {z.shape}")
    m = len(stripes)
    G = np.empty((m, m))
    uz = np.empty(m)
    for i in range(m):
        uz[i] = np.dot(u[i], z)
        for j in range(i + 1):
            G[i, j] = G[j, i] = np.dot(u[i], u[j])

    cur = stripes[0]
    if uz[0] <= cur.alpha + cur.xi:
        raise ProjectionPreconditionError(
            "point is not strictly above the current stripe; "
            "the iteration should have stopped"
        )
    coeffs = np.zeros(m)
    boundary = np.empty(m)  # offsets of the active boundary hyperplanes
    boundary[0] = cur.alpha + cur.xi
    try:
        t = solve_spd_dense(G[:1, :1], uz[:1] - boundary[:1])
    except SingularSystemError as exc:
        raise DependentDirectionsError(str(exc)) from exc
    coeffs[0] = t0 = t[0]
    active = [0]
    n_dropped = 0
    skipped: list[int] = []

    for i in range(1, m):
        stripe = stripes[i]
        side = uz[i] - G[i] @ coeffs - stripe.alpha
        if side > stripe.xi:
            boundary[i] = stripe.alpha + stripe.xi
        elif side < -stripe.xi:
            boundary[i] = stripe.alpha - stripe.xi
        else:
            skipped.append(i)
            continue
        trial = active + [i]
        try:
            t = solve_spd_dense(G[np.ix_(trial, trial)],
                                uz[trial] - G[trial] @ coeffs - boundary[trial])
        except SingularSystemError:
            n_dropped += 1
            skipped.append(i)
            continue
        active = trial
        coeffs[active] += t

    if out is None:
        point = z.copy()
    else:
        point = out
        np.copyto(point, z)
    for i in active:
        point = daxpy(u[i], point, a=-coeffs[i])
    return SequentialProjectionResult(point, coeffs, n_dropped, skipped, (z, t0, u[0]))
