"""Residual stripes and the sequential projection onto their intersection.

A stripe is the thickened hyperplane {x : |<u, x> - alpha| <= xi}.  The
solvers confine each iterate to an intersection of such stripes; the
ordered sequential projection implemented here first projects onto the
upper boundary of the current stripe and then re-projects onto the
intersection of all boundary hyperplanes picked up along the way.

Every point the projection visits lies in z + span{u_i}, so it works in
coefficient space, on the m x m Gram matrix of the stripe directions and
their inner products with z, as Python floats.  Each re-projection
leaves the running point on every active boundary hyperplane, so the
next join's right-hand side is zero but for the joining stripe's own
residual.  The active set's Gram solves share one Cholesky factor, which
grows by a bordered row as a direction joins; a direction whose pivot
falls to PIVOT_FLOOR of its Gram diagonal is dependent and dropped.
numpy touches only vectors of length n: the Gram rows' inner products
and the final point, built in z's own array by one call of the global
`daxpy` per active direction, a = -c_i.

A StripeRing, the one stripe container, keeps the directions in per-run
storage with their Gram rows, offsets and half-widths as lists.  A new
direction is written into the ring's `slot()` and pushed: it adds only
its own Gram row, m inner products.  The projection takes every <u_i, z>
from its caller and hands back every <u_i, point>, formed from the Gram
rows and coefficients, so a caller whose next z is this point (a method
with zero momentum) never takes an older direction's inner product with
z.  Neither the ring nor the projection checks a stripe: solvers.run,
their one caller, rejects a zero or non-finite G_00 = ||u||^2 and a z
not above the new stripe.

Each joining direction costs one project_hyperplane_intersection and one
numkernel.solve_spd_dense, both called through this module's globals,
where the benchmark's tracer wraps them; tests/reference.py reads the
coefficients through the global `daxpy`.  The projections in vector
space are not part of the library: tests/reference.py holds them, with
a LAPACK Gram solve, as the reference the tests compare against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import daxpy

from .numkernel import ALIGN, PIVOT_FLOOR, Vec, empty, forward_substitution, solve_spd_dense


class StripeRing:
    """The last `capacity` stripes of a run, newest first, with their Gram matrix.

    The directions are the rows of one (capacity, n) array, listed in
    `directions`, handed out by `slot()` in order and then reused in
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
        self.directions = list(empty((capacity, stride))[:, :size].reshape((capacity,) + shape))
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

        Until the ring is full this is the first row that holds no
        stripe; on a full ring it is the oldest stripe's direction, which
        is overwritten: push next, and the oldest stripe leaves.
        """
        rows = self._rows
        return rows[-1] if len(rows) == len(self.directions) else self.directions[len(rows)]

    def push(self, alpha: float, xi: float) -> None:
        """Make the direction written into `slot()` the newest stripe.

        alpha and xi are the stripe's offset and half-width, stored as
        Python floats; the caller checks the new gram[0][0] = ||u||^2.  On
        a full ring the slot was the oldest stripe's row, so that stripe
        leaves the ring; the others stay as they were.
        """
        rows, gram = self._rows, self.gram
        u = self.slot()
        if len(rows) == len(self.directions):
            rows.pop()  # the oldest stripe leaves; u was its row
            self.alpha.pop()
            self.xi.pop()
            gram.pop()
            for g in gram:
                g.pop()
        new = [float(np.dot(u, u))]
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
    """Outcome of sequential_stripe_projection: what solvers.run reads.

    point = z - sum_i c_i u_i over the ring's stripes, built in z's
    array; the skipped stripes' c_i are zero.  skipped lists the stripes
    that kept a zero coefficient, in ring order, and n_dropped counts
    those of them dropped as dependent.  u_point[i] = <u_i, z> - (G c)_i
    is <u_i, point> for every stripe, a Python float formed from the
    coefficients.  containment_slack is max_i |u_point[i] - alpha_i| -
    xi_i over all the stripes, a float that is <= 0 when the point lies
    in every stripe.
    """

    point: Vec
    n_dropped: int
    skipped: list[int]
    u_point: list[float]
    containment_slack: float


def sequential_stripe_projection(z: Vec, ring: StripeRing,
                                 uz: list[float]) -> SequentialProjectionResult:
    """Ordered projection of z onto the intersection of the ring's stripes, in place.

    uz[i] = <u_i, z> for each of the ring's stripes, newest first.  The
    newest stripe is the current one, and z lies strictly above it:
    uz[0] > alpha_0 + xi_0.  Step one projects z onto its upper
    boundary hyperplane.  Each older stripe is then visited in order: if
    the running point is already inside, it contributes a zero
    coefficient; otherwise its violated boundary hyperplane joins the
    active set and the running point is re-projected onto the
    intersection of all active boundaries.  A stripe whose direction is
    numerically dependent on the active ones is itself skipped: the
    active set stays as it was, the stripe keeps a zero coefficient,
    joins `skipped` and is counted in `n_dropped`.

    Every running point is z - sum_i c_i u_i, so the loop runs on the m
    coefficients c alone, in Python floats: <u_i, point> = <u_i, z> -
    (G c)_i with the ring's Gram rows G_ij = <u_i, u_j>.  The first step
    is the 1 x 1 case in place: t_0 = (<u_0, z> - alpha_0 - xi_0) r r with
    r = 1/sqrt(G_00), the bits LAPACK's dpotrf and dpotrs give.  The lower
    Cholesky factor L of the active Gram block grows by one row as a
    direction joins: l = L^-1 G[active, i] and pivot^2 = G_ii - ||l||^2.
    The direction is dependent when pivot^2 <= PIVOT_FLOOR G_ii, a
    non-finite pivot included.  The active set has no size limit.  The
    running point lies on every boundary that joined before and
    rho = <u_i, point> - b_i, from the side test, away from the joining
    one, so a re-projection, project_hyperplane_intersection, is one
    forward and one back substitution with the grown factor on a
    right-hand side that is zero but for rho.

    The caller, solvers.run, establishes what the projection relies on
    and checks none of it here: z is a contiguous float array of the
    directions' shape that the caller lets it overwrite, uz holds one
    value per stripe, the ring holds at least one stripe, G_00 is finite
    and positive, and z lies above the newest stripe.  Vectors of length
    n are touched only to build the final point in z's own array, one
    daxpy per active direction and no copy; u_point and the containment
    slack come from the same coefficients.

    Returns a SequentialProjectionResult; the coefficients stay inside.
    """
    u, G, alpha, xi = ring._rows, ring.gram, ring.alpha, ring.xi
    m = len(u)
    top = alpha[0] + xi[0]
    g00 = G[0][0]
    r = 1.0 / math.sqrt(g00)
    coeffs = [0.0] * m
    coeffs[0] = (uz[0] - top) * r * r
    active = [0]
    chol = [[math.sqrt(g00)]]  # rows of the lower Cholesky factor of G[active, active]
    n_dropped = 0
    skipped: list[int] = []

    for i in range(1, m):
        Gi = G[i]
        ui = uz[i] - _row_dot(Gi, coeffs, active)  # <u_i, running point>
        side = ui - alpha[i]
        if side > xi[i]:
            b = alpha[i] + xi[i]
        elif side < -xi[i]:
            b = alpha[i] - xi[i]
        else:
            skipped.append(i)
            continue
        # Bordered Cholesky: the new row of the factor of G[trial, trial].
        row = forward_substitution(chol, [Gi[j] for j in active])
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
        project_hyperplane_intersection(coeffs, chol, active, ui - b)

    point = z
    for j in active:
        point = daxpy(u[j], point, a=-coeffs[j])
    u_point = [uz[i] - _row_dot(G[i], coeffs, active) for i in range(m)]
    # |<u_i, point> - alpha_i| - xi_i; a NaN wins, as in np.max.
    gaps = [abs(p - a) - x for p, a, x in zip(u_point, alpha, xi)]
    slack = math.nan if any(g != g for g in gaps) else max(gaps)
    return SequentialProjectionResult(point, n_dropped, skipped, u_point, slack)


def project_hyperplane_intersection(coeffs: list[float], chol: list[list[float]],
                                    active: list[int], rho: float) -> None:
    """Re-project the running point z - sum_i c_i u_i onto the active boundaries.

    The point is on every active boundary but the newest, rho from it, so
    G[active, active] t = (0, ..., 0, rho); solves it with the factor's
    rows `chol` and adds t to the active coefficients in place.
    """
    t = solve_spd_dense(chol, [0.0] * (len(active) - 1) + [rho])
    for j, tj in zip(active, t):
        coeffs[j] += tj


def _row_dot(g: list[float], c: list[float], active: list[int]) -> float:
    """sum_j g[j] c[j] over the active indices j, the others' c being zero."""
    acc = 0.0
    for j in active:
        acc += g[j] * c[j]
    return acc

