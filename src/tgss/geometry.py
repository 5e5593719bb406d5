"""Residual stripes and the sequential projection onto their intersection.

A stripe is the thickened hyperplane {x : |<u, x> - alpha| <= xi}.  The
solvers confine each iterate to an intersection of such stripes; the
ordered sequential projection implemented here first projects onto the
upper boundary of the current stripe and then re-projects onto the
intersection of all boundary hyperplanes picked up along the way.

Every point the sequential projection visits lies in z + span{u_i}, so it
works in coefficient space: it needs the m x m Gram matrix of the m
stripe directions and their inner products with z, runs its side tests
and Gram solves on m-vectors, and touches vectors of length n only for
those inner products and one update of the final point.  The stripes are
held in a StripeRing, the one stripe container, which keeps the
directions in per-run storage together with their Gram matrix.  A new
direction is always written into the ring's `slot()` and then pushed
with its offset and half-width: it adds only its own Gram row, so a
projection step takes m inner products for that row and m - 1 for the
older directions' <u_i, z>, the newest one's being known from the
stripe's construction.

A direction whose squared norm is zero, even by underflow, is zero:
StripeRing.push finds it from G_00 = ||u||^2, which it computes anyway.

The projections in vector space, onto one hyperplane, halfspace or
stripe, are not part of the library: tests/reference.py holds them, and
a Stripe record to build test rings from, as the reference the tests
compare against.  project_hyperplane_intersection stays here, because
the benchmark's tracer times it under this module's name.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import daxpy

from .numkernel import (
    ALIGN,
    Vec,
    DimensionError,
    SingularSystemError,
    empty,
    solve_spd_dense,
    solve_spd_scalar,
)


class InvalidStripeError(ValueError):
    """Zero direction vector or negative half-width."""


class DependentDirectionsError(RuntimeError):
    """Gram system for an intersection projection was singular."""


class ProjectionPreconditionError(RuntimeError):
    """Point fed to the sequential projection is not above its first stripe."""


def project_hyperplane_intersection(x: Vec, planes: list) -> tuple[Vec, Vec]:
    """Project x onto the intersection of several hyperplanes {<u, .> = alpha}.

    Each plane is anything with a direction u and an offset alpha.  Solves
    the Gram normal equations G t = b with G_ij = <u_i, u_j> and
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

    def push(self, alpha: float, xi: float) -> None:
        """Make the direction written into `slot()` the newest stripe.

        alpha and xi are the stripe's offset and half-width.  A direction
        whose squared norm, its new Gram entry, is zero raises
        InvalidStripeError.  On a full ring the slot was the oldest
        stripe's row, so that stripe has left the ring; the others stay as
        they were.
        """
        rows, free = self._rows, self._free
        u = self.slot()
        uu = np.dot(u, u)
        if not free:
            free.append(rows.pop())  # the oldest stripe leaves; u was its row
        if uu == 0.0:
            raise InvalidStripeError("stripe direction must be nonzero (||u||^2 = 0)")
        free.pop()
        m, G = len(rows), self.gram
        G[1:m + 1, 1:m + 1] = G[:m, :m]
        self.alpha[1:m + 1] = self.alpha[:m]
        self.xi[1:m + 1] = self.xi[:m]
        G[0, 0] = uu
        for j, v in enumerate(rows, start=1):
            G[0, j] = G[j, 0] = np.dot(u, v)
        self.alpha[0] = alpha
        self.xi[0] = xi
        rows.insert(0, u)


@dataclass
class SequentialProjectionResult:
    """Outcome of sequential_stripe_projection.

    point = z - sum_i coefficients[i] * u_i over the ring's stripes; the
    skipped stripes have zero coefficients.  first_coefficient is t_0 of
    the first step, so that z - t_0 u_0 is z projected onto the newest
    stripe's upper boundary.  containment_slack is
    max_i |<u_i, point> - alpha_i| - xi_i over all the stripes, a float
    that is <= 0 when the point lies in every stripe.
    """

    point: Vec
    coefficients: Vec
    n_dropped: int
    skipped: list[int]
    first_coefficient: float
    containment_slack: float


def sequential_stripe_projection(z: Vec, ring: StripeRing, out: Vec | None = None,
                                 uz0: float | None = None) -> SequentialProjectionResult:
    """Ordered projection of z onto the intersection of the ring's stripes.

    The newest stripe is the current one and z must lie strictly above it.
    Step one projects z onto its upper boundary hyperplane.  Each older
    stripe is then visited in order: if the running point is already
    inside, it contributes a zero coefficient; otherwise its violated
    boundary hyperplane joins the active set and the running point is
    re-projected onto the intersection of all active boundaries.  A
    stripe whose boundary makes the Gram system singular is itself
    skipped: the active set stays as it was, the stripe keeps a zero
    coefficient, joins `skipped` and is counted in `n_dropped`.

    Every running point is z - sum_i c_i u_i, so the loop runs on the m
    coefficients c alone: <u_i, point> = <u_i, z> - (G c)_i with the
    ring's Gram matrix G_ij = <u_i, u_j>, and a re-projection solves the
    active sub-block of G.  The call takes the inner products <u_i, z>,
    m - 1 of them when the caller passes `uz0` = <u_0, z>, and one update
    of length n per active direction to build the final point.  The first
    step is a scalar division; only active sets of two or more directions
    go through `solve_spd_dense`.  The containment slack of the result is
    formed from the same coefficients, with no further pass over vectors.

    Returns the final point together with the aggregate coefficients t_i
    (one per stripe) such that point = z - sum_i t_i * u_i.  The point is
    built in `out` where given, an array of z's shape that is not z
    itself, and in a new array otherwise.
    """
    if not len(ring):
        raise DimensionError("need at least one stripe")
    z = np.asarray(z, dtype=float)
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
    return SequentialProjectionResult(point, coeffs, n_dropped, skipped, t0, slack)
