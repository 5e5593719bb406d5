"""Residual stripes and the sequential projection onto their intersection.

A stripe is the thickened hyperplane {x : |<u, x> - alpha| <= xi}.  The
solvers confine each iterate to an intersection of such stripes; the
ordered sequential projection implemented here first projects onto the
upper boundary of the current stripe and then re-projects onto the
intersection of all boundary hyperplanes picked up along the way.

Every point the sequential projection visits lies in z + span{u_i}, so it
works in coefficient space: it needs the m x m Gram matrix of the m
stripe directions and their inner products with z, and runs its side
tests, right-hand sides and Gram solves on these m-sized quantities as
Python floats.  numpy touches only vectors of length n: the inner
products and the update of the final point.  The active set's Gram
solves share one Cholesky factor, which grows by a bordered row as a
direction joins; a direction whose pivot falls to PIVOT_FLOOR of its
Gram diagonal is dependent and dropped.  The stripes are held in a
StripeRing, the one stripe container, which keeps the directions in
per-run storage together with their Gram rows, offsets and half-widths
as lists.  A new direction is always written into the ring's `slot()`
and then pushed with its offset and half-width: it adds only its own
Gram row, so a projection step takes m inner products for that row and
m - 1 for the older directions' <u_i, z>, the newest one's being known
from the stripe's construction.

A direction whose squared norm is zero, even by underflow, is zero:
StripeRing.push finds it from G_00 = ||u||^2, which it computes anyway.

The projections in vector space, onto one hyperplane, halfspace or
stripe, are not part of the library: tests/reference.py holds them, and
a Stripe record to build test rings from, as the reference the tests
compare against.  project_hyperplane_intersection, the one caller of
numkernel.solve_spd_dense, stays here, because the benchmark's tracer
times both under this module's names.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import daxpy

from .numkernel import (
    ALIGN,
    DENSE_CAP,
    PIVOT_FLOOR,
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
    turn.  The offsets `alpha`, the half-widths `xi` and the Gram rows
    `gram`, gram[i][j] = <u_i, u_j>, are lists of Python floats in ring
    order, newest first.  A new direction is written into `slot()`, which
    on a full ring is the oldest stripe's row, and `push` then makes it
    the newest stripe: the oldest leaves a full ring, the lists shift by
    one and only the new row is computed, len(ring) inner products of
    length n.  Both triangles get the same inner product, so the Gram
    matrix is exactly symmetric.  Every row of `directions` starts on an
    ALIGN boundary: when a row's size is not a whole number of ALIGN
    blocks, the rows are spaced further apart than that size.
    """

    def __init__(self, capacity: int, shape: tuple[int, ...]):
        shape = tuple(shape)
        size = math.prod(shape)
        block = ALIGN // 8  # doubles per ALIGN bytes
        stride = -(-size // block) * block
        self.directions = empty((capacity, stride))[:, :size].reshape((capacity,) + shape)
        # Rows that hold no stripe, the next one handed out last.
        self._free: list[Vec] = list(self.directions)[::-1]
        self.alpha: list[float] = []
        self.xi: list[float] = []
        self.gram: list[list[float]] = []
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
        rows, free, gram = self._rows, self._free, self.gram
        u = self.slot()
        uu = float(np.dot(u, u))
        if not free:
            free.append(rows.pop())  # the oldest stripe leaves; u was its row
            self.alpha.pop()
            self.xi.pop()
            gram.pop()
            for g in gram:
                g.pop()
        if uu == 0.0:
            raise InvalidStripeError("stripe direction must be nonzero (||u||^2 = 0)")
        free.pop()
        new = [uu]
        for g, v in zip(gram, rows):
            uv = float(np.dot(u, v))
            g.insert(0, uv)
            new.append(uv)
        gram.insert(0, new)
        self.alpha.insert(0, float(alpha))
        self.xi.insert(0, float(xi))
        rows.insert(0, u)


@dataclass
class SequentialProjectionResult:
    """Outcome of sequential_stripe_projection.

    point = z - sum_i coefficients[i] * u_i over the ring's stripes; the
    coefficients are Python floats, and the skipped stripes' are zero.
    first_coefficient is t_0 of the first step, so that z - t_0 u_0 is z
    projected onto the newest stripe's upper boundary.
    containment_slack is max_i |<u_i, point> - alpha_i| - xi_i over all
    the stripes, a float that is <= 0 when the point lies in every stripe.
    """

    point: Vec
    coefficients: list[float]
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
    stripe whose direction is numerically dependent on the active ones is
    itself skipped: the active set stays as it was, the stripe keeps a
    zero coefficient, joins `skipped` and is counted in `n_dropped`.

    Every running point is z - sum_i c_i u_i, so the loop runs on the m
    coefficients c alone, in Python floats: <u_i, point> = <u_i, z> -
    (G c)_i with the ring's Gram rows G_ij = <u_i, u_j>.  The lower
    Cholesky factor L of the active Gram block grows by one row as a
    direction joins: l = L^-1 G[active, i] and pivot^2 = G_ii - ||l||^2.
    The direction is dependent when pivot^2 <= PIVOT_FLOOR G_ii, a
    non-finite pivot included; a trial set of more than DENSE_CAP
    directions raises DimensionError.  A re-projection is one forward and
    one back substitution with the grown factor.  The first step is the
    1 x 1 case, solve_spd_scalar.

    Vectors of length n are touched only for the inner products
    <u_i, z>, m - 1 of them when the caller passes `uz0` = <u_0, z>, and
    to build the final point, a copy of z and one daxpy per active
    direction.  The containment slack of the result is formed from the
    same coefficients, with no further pass over vectors.

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
    u, G, alpha, xi = ring._rows, ring.gram, ring.alpha, ring.xi
    m = len(u)
    uz = [float(np.dot(u[0], z)) if uz0 is None else uz0]
    for v in u[1:]:
        uz.append(float(np.dot(v, z)))

    top = alpha[0] + xi[0]
    if uz[0] <= top:
        raise ProjectionPreconditionError(
            "point is not strictly above the current stripe; "
            "the iteration should have stopped"
        )
    try:
        t0 = solve_spd_scalar(G[0][0], uz[0] - top)
    except SingularSystemError as exc:
        raise DependentDirectionsError(str(exc)) from exc
    coeffs = [0.0] * m
    coeffs[0] = t0
    active = [0]
    boundary = [top]  # offsets of the active boundary hyperplanes
    chol = [[math.sqrt(G[0][0])]]  # rows of the lower Cholesky factor of G[active, active]
    n_dropped = 0
    skipped: list[int] = []

    for i in range(1, m):
        Gi = G[i]
        side = uz[i] - _row_dot(Gi, coeffs, active) - alpha[i]
        if side > xi[i]:
            b = alpha[i] + xi[i]
        elif side < -xi[i]:
            b = alpha[i] - xi[i]
        else:
            skipped.append(i)
            continue
        if len(active) == DENSE_CAP:
            raise DimensionError(f"more than DENSE_CAP = {DENSE_CAP} active directions")
        # Bordered Cholesky: the new row of the factor of G[trial, trial].
        row = _forward(chol, [Gi[j] for j in active])
        pivot2 = Gi[i]
        for lq in row:
            pivot2 -= lq * lq
        if not pivot2 > PIVOT_FLOOR * Gi[i]:
            n_dropped += 1
            skipped.append(i)
            continue
        row.append(math.sqrt(pivot2))
        chol.append(row)
        active.append(i)
        boundary.append(b)
        # Re-project: solve G[active, active] t = <u_A, point> - boundary_A
        # by L y = rhs, then L^T t = y.
        y = _forward(chol, [uz[j] - _row_dot(G[j], coeffs, active) - offset
                            for j, offset in zip(active, boundary)])
        k = len(active)
        for p in range(k - 1, -1, -1):
            acc = y[p]
            for q in range(p + 1, k):
                acc -= chol[q][p] * y[q]
            y[p] = acc / chol[p][p]
        for j, t in zip(active, y):
            coeffs[j] += t

    if out is None:
        point = z.copy()
    else:
        point = out
        np.copyto(point, z)
    for j in active:
        point = daxpy(u[j], point, a=-coeffs[j])
    # |<u_i, point> - alpha_i| - xi_i from the coefficients; a NaN wins, as in np.max.
    gaps = [abs(uz[i] - _row_dot(G[i], coeffs, active) - alpha[i]) - xi[i]
            for i in range(m)]
    slack = math.nan if any(g != g for g in gaps) else max(gaps)
    return SequentialProjectionResult(point, coeffs, n_dropped, skipped, t0, slack)


def _row_dot(g: list[float], c: list[float], active: list[int]) -> float:
    """sum_j g[j] c[j] over the active indices j, the others' c being zero."""
    acc = 0.0
    for j in active:
        acc += g[j] * c[j]
    return acc


def _forward(chol: list[list[float]], b: list[float]) -> list[float]:
    """L^-1 b by forward substitution, L given by the rows `chol` of its lower triangle."""
    y: list[float] = []
    for Lp, acc in zip(chol, b):
        for Lpq, yq in zip(Lp, y):
            acc -= Lpq * yq
        y.append(acc / Lp[len(y)])
    return y
