"""Hyperplanes, halfspaces and stripes with their metric projections.

A stripe is the thickened hyperplane {x : |<u, x> - alpha| <= xi}.  The
solvers confine each iterate to an intersection of such stripes; the
ordered sequential projection implemented here first projects onto the
upper boundary of the current stripe and then re-projects onto the
intersection of all boundary hyperplanes picked up along the way.

Every point the sequential projection visits lies in z + span{u_i}, so it
works in coefficient space: it needs the m x m Gram matrix of the m
stripe directions and their inner products with z, runs its side tests
and Gram solves on m-vectors, and touches vectors of length n only for
those inner products and one update of the final point.  A run keeps its
stripes in a StripeRing, which holds the directions in per-run storage
together with their Gram matrix: a new stripe adds only its own Gram row,
so a projection step takes m inner products for that row and m - 1 for
the older directions' <u_i, z>, the newest one's being known from the
stripe's construction.

A direction whose squared norm is zero, even by underflow, is zero
everywhere here: Hyperplane and Stripe test ||u|| when they are built.
A direction a run builds in the ring's own storage is pushed as its raw
u, offset and half-width, not as a Stripe, and StripeRing.push finds it
zero from G_00 = ||u||^2, which it computes anyway, not by a pass of its
own over u.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Protocol

import numpy as np
from scipy.linalg.blas import daxpy

from .numkernel import (
    ALIGN,
    Vec,
    DimensionError,
    SingularSystemError,
    dot,
    empty,
    norm,
    solve_spd_dense,
    solve_spd_scalar,
)


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
        if norm(u) == 0.0:
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


class StripeData(Protocol):
    """What StripeRing.push reads from a stripe."""

    u: Vec
    alpha: float
    xi: float


_ZERO_DIRECTION = "stripe direction must be nonzero (||u||^2 = 0)"


class StripeRing:
    """The last `capacity` stripes of a run, newest first, with their Gram matrix.

    The directions are the rows of one (capacity, n) array, reused in
    turn; the offsets, half-widths and Gram matrix G_ij = <u_i, u_j> are
    kept in ring order, newest first.  A new direction is written into
    `slot()`, which on a full ring is the oldest stripe's row, and `push`
    then makes it the newest stripe: the oldest leaves a full ring, the
    Gram matrix shifts by one and only the new row is computed, len(ring)
    inner products of length n.  Both triangles of that row get the same
    inner product, so the Gram matrix is exactly symmetric.  Every row
    starts on an ALIGN boundary: when a row's size is not a whole number
    of ALIGN blocks, the rows are spaced further apart than that size.
    """

    def __init__(self, capacity: int, shape: tuple[int, ...]):
        shape = tuple(shape)
        size = math.prod(shape)
        block = ALIGN // 8  # doubles per ALIGN bytes
        stride = -(-size // block) * block
        self.directions = empty((capacity, stride))[:, :size].reshape((capacity,) + shape)
        # Rows that hold no stripe, the next one handed out last.
        self._free: list[Vec] = list(self.directions)[::-1]
        self.alpha = np.empty(capacity)
        self.xi = np.empty(capacity)
        self.gram = np.empty((capacity, capacity))
        self._rows: list[Vec] = []  # each stripe's row of `directions`, newest first

    @classmethod
    def of(cls, stripes: list[Stripe]) -> StripeRing:
        """A ring holding copies of the stripes, stripes[0] newest."""
        ring = cls(len(stripes), stripes[0].u.shape)
        for s in reversed(stripes):
            ring.push(s)
        return ring

    def __len__(self) -> int:
        return len(self._rows)

    def direction(self, i: int) -> Vec:
        """The direction of the i-th newest stripe, a row of the ring's storage."""
        return self._rows[i]

    def slot(self) -> Vec:
        """The row the next pushed direction is to be built in.

        On a full ring this is the oldest stripe's direction, which is
        overwritten: push next, and the oldest stripe leaves.
        """
        return self._free[-1] if self._free else self._rows[-1]

    def push(self, stripe: StripeData) -> None:
        """Make the stripe the newest, its direction held in `slot()`.

        The stripe is a Stripe or anything with its u, alpha and xi, such
        as a solver's StripeRecord, whose direction is not checked when it
        is built.  A direction built elsewhere is tested and then copied
        into the slot: when ||u||^2 = 0 the push raises InvalidStripeError
        and leaves the ring as it was.  A zero direction built in the slot
        raises as well; on a full ring the slot was the oldest stripe's
        row, so that stripe leaves the ring and the others stay as they
        were.
        """
        src = stripe.u
        if src.shape != self.directions.shape[1:]:
            raise DimensionError(
                f"stripe direction {src.shape} does not fit the ring's "
                f"{self.directions.shape[1:]}")
        rows, free = self._rows, self._free
        u = self.slot()
        if src is not u:
            # Whether a sum of squares is zero does not depend on its order,
            # so this test on the source stands for the one on the copy.
            if np.dot(src, src) == 0.0:
                raise InvalidStripeError(_ZERO_DIRECTION)
            np.copyto(u, src)
        uu = np.dot(u, u)
        if not free:
            free.append(rows.pop())  # the oldest stripe leaves; u was its row
        if uu == 0.0:
            raise InvalidStripeError(_ZERO_DIRECTION)
        free.pop()
        m, G = len(rows), self.gram
        G[1:m + 1, 1:m + 1] = G[:m, :m]
        self.alpha[1:m + 1] = self.alpha[:m]
        self.xi[1:m + 1] = self.xi[:m]
        G[0, 0] = uu
        for j, v in enumerate(rows, start=1):
            G[0, j] = G[j, 0] = np.dot(u, v)
        self.alpha[0] = stripe.alpha
        self.xi[0] = stripe.xi
        rows.insert(0, u)


@dataclass
class SequentialProjectionResult:
    """Outcome of sequential_stripe_projection.

    point = z - sum_i coefficients[i] * u_i over the input stripes; the
    skipped stripes have zero coefficients.  containment_slack is
    max_i |<u_i, point> - alpha_i| - xi_i over all input stripes, a float
    that is <= 0 when the point lies in every stripe.
    """

    point: Vec
    coefficients: Vec
    n_dropped: int
    skipped: list[int]
    first_step: tuple[Vec, float, Vec]  # (z, t_0, u_0)
    containment_slack: float

    @property
    def first_step_point(self) -> Vec:
        """z - t_0 u_0: z projected onto the first stripe's upper boundary.

        Computed when read, from the z and u_0 arrays the projection was
        given: read it before a caller reuses either array.
        """
        z, t0, u0 = self.first_step
        return z - t0 * u0


def sequential_stripe_projection(z: Vec, stripes: list[Stripe] | StripeRing,
                                 out: Vec | None = None,
                                 uz0: float | None = None) -> SequentialProjectionResult:
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
    sub-block of G.  The stripes come as a StripeRing, newest first, which
    holds G already, or as a list, which is copied into a new ring (m
    copies and m(m+3)/2 inner products of length n, m of them to test the
    directions before they are copied).  The call itself
    takes the inner products <u_i, z>, m - 1 of them when the caller
    passes `uz0` = <u_0, z>, and one update of length n per active
    direction to build the final point.  The first step is a scalar
    division; only active sets of two or more directions go through
    `solve_spd_dense`, on blocks of the ring's Gram matrix.  The
    containment slack of the result is formed from the same
    coefficients, with no further pass over vectors.  A list of stripes
    with a direction whose squared norm is zero raises InvalidStripeError
    when it is copied into the ring.

    Returns the final point together with the aggregate coefficients t_i
    (one per input stripe) such that point = z - sum_i t_i * u_i.  The
    point is built in `out` where given, an array of z's shape that is not
    z itself, and in a new array otherwise.
    """
    if not len(stripes):
        raise DimensionError("need at least one stripe")
    z = np.asarray(z, dtype=float)
    ring = stripes if isinstance(stripes, StripeRing) else StripeRing.of(stripes)
    if ring.directions.shape[1:] != z.shape:
        raise DimensionError(f"stripe directions do not match the point's shape {z.shape}")
    u = ring._rows
    m = len(u)
    G = ring.gram[:m, :m]
    alpha, xi = ring.alpha[:m].tolist(), ring.xi[:m].tolist()
    uz = np.empty(m)
    uz[0] = np.dot(u[0], z) if uz0 is None else uz0
    for i in range(1, m):
        uz[i] = np.dot(u[i], z)

    top = alpha[0] + xi[0]
    if uz[0] <= top:
        raise ProjectionPreconditionError(
            "point is not strictly above the current stripe; "
            "the iteration should have stopped"
        )
    coeffs = np.zeros(m)
    boundary = np.empty(m)  # offsets of the active boundary hyperplanes
    boundary[0] = top
    try:
        t0 = solve_spd_scalar(G[0, 0], uz[0] - top)
    except SingularSystemError as exc:
        raise DependentDirectionsError(str(exc)) from exc
    coeffs[0] = t0
    active = [0]
    n_dropped = 0
    skipped: list[int] = []

    for i in range(1, m):
        side = uz[i] - G[i] @ coeffs - alpha[i]
        if side > xi[i]:
            boundary[i] = alpha[i] + xi[i]
        elif side < -xi[i]:
            boundary[i] = alpha[i] - xi[i]
        else:
            skipped.append(i)
            continue
        trial = active + [i]
        # While no stripe was skipped the active set is a leading block.
        idx = slice(0, i + 1) if len(active) == i else trial
        rows = G[idx]
        rhs = rows @ coeffs
        np.subtract(uz[idx], rhs, out=rhs)
        rhs -= boundary[idx]
        try:
            t = solve_spd_dense(rows[:, idx], rhs)
        except SingularSystemError:
            n_dropped += 1
            skipped.append(i)
            continue
        active = trial
        coeffs[idx] += t

    if out is None:
        point = z.copy()
    else:
        point = out
        np.copyto(point, z)
    for i in active:
        point = daxpy(u[i], point, a=-coeffs[i])
    # |<u_i, point> - alpha_i| - xi_i from the coefficients; a NaN wins, as in np.max.
    gaps = [abs(a - g - b) - x
            for a, g, b, x in zip(uz.tolist(), (G @ coeffs).tolist(), alpha, xi)]
    slack = math.nan if any(g != g for g in gaps) else max(gaps)
    return SequentialProjectionResult(point, coeffs, n_dropped, skipped,
                                      (z, t0, u[0]), slack)
