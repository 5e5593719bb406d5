"""Reference implementations the tests compare the library against.

Geometry: the projections of a point onto one hyperplane, halfspace or
stripe, in vector space, and the sequential stripe projection written as
a loop of such projections (reference_projection), each stage
re-projecting the running point onto the intersection of the active
boundary hyperplanes (project_hyperplane_intersection).  That
re-projection solves its Gram normal equations with solve_spd_dense,
LAPACK's dpotrf and dpotrs behind checks that the matrix is finite and
symmetric, not with the library's scalar Cholesky, so that the
reference stays independent of the code it checks.  The library runs
the same projection in coefficient space on a StripeRing's Gram matrix;
ring_of builds such a ring from a list of Stripe records, the way a run
fills one: each direction is copied into the ring's slot and then
pushed, and project calls the library's projection on it with the
arguments a run passes.  The projection hands back no coefficients;
`coefficients` reads them from the daxpy calls that build its point.
stripe_at reads the residual stripe a run builds at a point back from a
one-stripe ring as a Stripe.

Runs: a run keeps no vector but its final iterate.  PointRecorder wraps
an operator and copies the point of every adjoint_apply, which a run
makes exactly once per iteration that does not stop, at z_k, and the
point of the last apply; run_recording returns a run's result together
with the adjoint points, and checks that a run stopped by its residual
returns the point of its last forward apply, where the stopping test was
made.  The first step of a
projection from z_k, x~_k, is z_k projected onto the upper boundary of
stripe_at(z_k).

Assembly: element matrices are summed through a COO matrix and converted
to CSR, written out independently of invpot.P1Pattern and of the band
storage the operator factorizes.  reference_pattern builds a P1Pattern's
arrays the sort-based way, np.unique over every local (row, col) key of
the full (num_elems, dim + 1, dim + 1) element matrices, as an oracle
for the pattern's sort-free pair scatter.  csr turns a pattern's offset
pair (diagonal, lower) into a CSR matrix to compare against.
"""

import contextlib
import enum
import math
from dataclasses import dataclass
from unittest import mock

import numpy as np
import scipy.sparse as sp
from scipy.linalg import lapack
from scipy.linalg.blas import daxpy

from tgss import geometry
from tgss.geometry import StripeRing, sequential_stripe_projection
from tgss.invpot import P1Pattern, local_mass_tensor, quadrature_weights
from tgss.numkernel import DimensionError, dot, norm
from tgss.operator import ForwardOperator
from tgss.solvers import build_stripe, run

# Size cap of the reference's dense LAPACK solve.
DENSE_CAP = 16


class SingularSystemError(RuntimeError):
    """A supposedly SPD system turned out singular, indefinite or not symmetric."""


class DependentDirectionsError(RuntimeError):
    """Gram system for an intersection projection was singular."""


class InvalidStripeError(ValueError):
    """A Hyperplane or Stripe record with a zero direction or a negative half-width."""


@dataclass(frozen=True)
class Hyperplane:
    """The set {x : <u, x> = alpha}."""

    u: np.ndarray
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

    u: np.ndarray
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


def push(ring, stripe):
    """Copy the stripe's direction into the ring's slot and push it."""
    np.copyto(ring.slot(), stripe.u)
    ring.push(stripe.alpha, stripe.xi)


def ring_of(stripes):
    """A StripeRing holding copies of the stripes, stripes[0] newest."""
    ring = StripeRing(len(stripes), stripes[0].u.shape)
    for s in reversed(stripes):
        push(ring, s)
    return ring


def project(z, ring):
    """sequential_stripe_projection of z onto the ring's stripes, z left as it is.

    Every <u_i, z> is an np.dot computed here, and the point is built in a
    copy of z.
    """
    uz = [float(np.dot(ring.direction(i), z)) for i in range(len(ring))]
    return sequential_stripe_projection(np.array(z, dtype=float), ring, uz)


@contextlib.contextmanager
def coefficients(ring):
    """The coefficients c_i of a projection on `ring` run within the block.

    sequential_stripe_projection builds its point = z - sum_i c_i u_i with
    one geometry.daxpy per active direction, a = -c_i.  Within the block
    these calls are read: the yielded list, one entry per stripe newest
    first, holds -a, the bits of c_i, for each active direction and 0.0
    for the others.  Run one projection per block.
    """
    rows = [ring.direction(i) for i in range(len(ring))]
    c = [0.0] * len(rows)

    def recording(x, y, a):
        c[next(i for i, row in enumerate(rows) if row is x)] = -a
        return daxpy(x, y, a=a)

    with mock.patch.object(geometry, "daxpy", recording):
        yield c


class PointRecorder(ForwardOperator):
    """An operator that copies the point of every adjoint_apply into `points`
    and the point of the last apply into `applied`.

    Everything is passed on to the wrapped operator unchanged, `out`
    included, so a run on the recorder is bit for bit the run on the
    operator itself.
    """

    def __init__(self, op):
        self.op, self.n, self.m = op, op.n, op.m
        self.points = []
        self.applied = None

    def apply(self, c, out=None):
        self.applied = np.array(c, dtype=float)
        return self.op.apply(c, out=out)

    def derivative_apply(self, c, q):
        return self.op.derivative_apply(c, q)

    def adjoint_apply(self, c, w, out=None):
        self.points.append(np.array(c, dtype=float))
        return self.op.adjoint_apply(c, w, out=out)


def run_recording(method, op, data, x0, cfg, truth=None):
    """solvers.run on a PointRecorder of op: (result, points).

    points[k] is the z_k of trace row k: every iteration that does not
    stop applies the adjoint once, at z_k.  A run that stops by its
    residual must return the point of its last forward apply, z_k*.
    """
    recorder = PointRecorder(op)
    res = run(method, recorder, data, x0, cfg, truth=truth)
    assert len(recorder.points) == len(res.trace), method
    if res.stopped_by != "max_iters":
        assert recorder.applied.tobytes() == res.x_final.tobytes(), method
    return res, recorder.points


def stripe_at(op, z, data, cfg):
    """The residual stripe solvers.build_stripe builds at z, as a Stripe.

    The stripe is pushed on a one-stripe ring, from the residual and its
    norm the way a run computes them, and read back from the ring.
    """
    r = op.apply(z) - data.y_delta
    ring = StripeRing(1, z.shape)
    build_stripe(op, z, data, cfg, r, norm(r), ring)
    return Stripe(ring.direction(0).copy(), ring.alpha[0], ring.xi[0])


def upper(stripe):
    """The stripe's upper boundary hyperplane {<u, .> = alpha + xi}."""
    return Hyperplane(stripe.u, stripe.alpha + stripe.xi)


def lower(stripe):
    """The stripe's lower boundary hyperplane {<u, .> = alpha - xi}."""
    return Hyperplane(stripe.u, stripe.alpha - stripe.xi)


class StripeSide(enum.Enum):
    ABOVE = "above"
    INSIDE = "inside"
    BELOW = "below"


def project_hyperplane(x, plane):
    """Orthogonal projection of x onto the hyperplane."""
    u = plane.u
    t = (dot(u, x) - plane.alpha) / dot(u, u)
    return np.asarray(x, dtype=float) - t * u


def project_halfspace(x, u, alpha):
    """Projection of x onto the halfspace {<u, .> <= alpha}.

    Returns x unchanged when already feasible, otherwise the orthogonal
    projection onto the boundary hyperplane.
    """
    plane = Hyperplane(u, alpha)
    if dot(plane.u, x) <= alpha:
        return np.asarray(x, dtype=float)
    return project_hyperplane(x, plane)


def classify(x, stripe):
    """Which side of the stripe x lies on; boundary points count as inside."""
    s = dot(stripe.u, x) - stripe.alpha
    if s > stripe.xi:
        return StripeSide.ABOVE
    if s < -stripe.xi:
        return StripeSide.BELOW
    return StripeSide.INSIDE


def project_stripe(x, stripe):
    """Metric projection of x onto the stripe (case split on the side)."""
    side = classify(x, stripe)
    if side is StripeSide.INSIDE:
        return np.asarray(x, dtype=float)
    if side is StripeSide.ABOVE:
        return project_hyperplane(x, upper(stripe))
    return project_hyperplane(x, lower(stripe))


def solve_spd_dense(G, b):
    """Solve the small dense SPD system G t = b via Cholesky.

    LAPACK dpotrf factors G, dpotrs solves.  G must be finite and
    symmetric to |G - G^T| <= atol + rtol |G^T| elementwise, with
    rtol = 1e-12 and atol = 1e-14 max(1, max|G|).

    Raises
    ------
    SingularSystemError
        If G is not finite and symmetric, or not positive definite
        (dependent directions).
    DimensionError
        On shape mismatch, or when the system is empty or exceeds
        DENSE_CAP; LAPACK is not called.
    """
    G = np.asarray(G, dtype=float)
    b = np.asarray(b, dtype=float)
    n = b.shape[0]
    if G.shape != (n, n):
        raise DimensionError(f"Gram matrix {G.shape} does not match rhs of length {n}")
    if not 0 < n <= DENSE_CAP:
        raise DimensionError(f"dense SPD solve takes 1 to {DENSE_CAP} unknowns, got {n}")
    # On a block of a few entries loops over Python floats beat ufuncs.  The
    # elementwise test holds at (i, j) and (j, i) exactly when it holds with
    # the smaller of |G_ij| and |G_ji|; an exactly equal pair always passes.
    rows = G.tolist()
    if not all(math.isfinite(g) for row in rows for g in row):
        raise SingularSystemError("matrix is not finite and symmetric")
    for i in range(1, n):
        for j in range(i):
            a, c = rows[i][j], rows[j][i]
            if a != c:
                atol = 1e-14 * max(1.0, max(abs(g) for row in rows for g in row))
                if not abs(a - c) <= atol + 1e-12 * min(abs(a), abs(c)):
                    raise SingularSystemError("matrix is not finite and symmetric")
    chol, info = lapack.dpotrf(G, lower=1)
    if info > 0:
        raise SingularSystemError(f"non-positive pivot in Cholesky at column {info}")
    if info < 0:
        raise ValueError(f"dpotrf: illegal value in argument {-info}")
    t, info = lapack.dpotrs(chol, b, lower=1)
    if info != 0:
        raise ValueError(f"dpotrs: illegal value in argument {-info}")
    return t


def project_hyperplane_intersection(x, planes):
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


def reference_projection(z, stripes):
    """The sequential projection as a loop of vector-space projections.

    Returns (point, coefficients, first_step_point, n_dropped, skipped)
    and two bounds on how far round-off can move them: the largest
    condition number of an accepted Gram block and the smallest relative
    distance of a side test from a tie.
    """
    planes = [upper(stripes[0])]
    active = [0]
    point, t = project_hyperplane_intersection(z, planes)
    coeffs = np.zeros(len(stripes))
    coeffs[0] = t[0]
    first_step_point = point.copy()
    n_dropped, skipped = 0, []
    cond, margin = 1.0, np.inf
    for i, s in enumerate(stripes[1:], start=1):
        side = dot(s.u, point) - s.alpha
        scale = norm(s.u) * length_scale(z, stripes, coeffs) + abs(s.alpha) + s.xi
        margin = min(margin, abs(abs(side) - s.xi) / scale)
        if -s.xi <= side <= s.xi:
            skipped.append(i)
            continue
        boundary = upper(s) if side > s.xi else lower(s)
        try:
            new_point, t = project_hyperplane_intersection(point, planes + [boundary])
        except DependentDirectionsError:
            n_dropped += 1
            skipped.append(i)
            continue
        planes.append(boundary)
        active.append(i)
        point = new_point
        coeffs[active] += t
        U = np.stack([p.u for p in planes])
        cond = max(cond, np.linalg.cond(U @ U.T))
    return point, coeffs, first_step_point, n_dropped, skipped, cond, margin


def length_scale(z, stripes, coeffs):
    """||z|| + sum_i |c_i| ||u_i||: the size of the terms summed into a point."""
    return norm(z) + sum(abs(c) * norm(s.u) for c, s in zip(coeffs, stripes))


def reference_local_stiffness(mesh):
    """Element stiffness matrices, shape (num_elems, dim + 1, dim + 1)."""
    if mesh.dim == 1:
        K_loc = np.array([[1.0, -1.0], [-1.0, 1.0]]) / mesh.h
        return np.broadcast_to(K_loc, (mesh.elements.shape[0], 2, 2))
    p = mesh.nodes[mesh.elements]
    b = p[:, [1, 2, 0], 1] - p[:, [2, 0, 1], 1]
    c = p[:, [2, 0, 1], 0] - p[:, [1, 2, 0], 0]
    area = 0.5 * np.abs(b[:, 0] * c[:, 1] - b[:, 1] * c[:, 0])
    return (b[:, :, None] * b[:, None, :] + c[:, :, None] * c[:, None, :]) / (
        4.0 * area[:, None, None]
    )


def reference_stiffness(mesh):
    n = mesh.n_nodes
    if mesh.dim == 1:
        h = mesh.h
        main = np.full(n, 2.0 / h)
        main[0] = main[-1] = 1.0 / h
        off = np.full(n - 1, -1.0 / h)
        return sp.diags([off, main, off], [-1, 0, 1], format="csr")
    K_loc = reference_local_stiffness(mesh)
    rows = np.repeat(mesh.elements, 3, axis=1).ravel()
    cols = np.tile(mesh.elements, (1, 3)).ravel()
    return sp.coo_matrix((K_loc.ravel(), (rows, cols)), shape=(n, n)).tocsr()


def reference_mass(mesh, w):
    n = mesh.n_nodes
    ghost = sp.diags((mesh.h ** mesh.dim - quadrature_weights(mesh)) * w)
    if mesh.dim == 1:
        h = mesh.h
        wa = w[mesh.elements[:, 0]]
        wb = w[mesh.elements[:, 1]]
        m_aa = h * (wa / 4.0 + wb / 12.0)
        m_ab = h * (wa + wb) / 12.0
        m_bb = h * (wa / 12.0 + wb / 4.0)
        loc = np.stack(
            [np.stack([m_aa, m_ab], axis=1), np.stack([m_ab, m_bb], axis=1)], axis=1
        )
        k = 2
    else:
        wq = 0.5 * mesh.h ** 2 / 3.0
        w_elem = w[mesh.elements]
        loc = np.zeros((mesh.elements.shape[0], 3, 3))
        for a, b in ((0, 1), (1, 2), (2, 0)):
            contrib = wq * 0.5 * (w_elem[:, a] + w_elem[:, b]) * 0.25
            for i in (a, b):
                for j in (a, b):
                    loc[:, i, j] += contrib
        k = 3
    rows = np.repeat(mesh.elements, k, axis=1).ravel()
    cols = np.tile(mesh.elements, (1, k)).ravel()
    base = sp.coo_matrix((loc.ravel(), (rows, cols)), shape=(n, n)).tocsr()
    return (base + ghost).tocsr()


def reference_system(mesh, c, f):
    """Dense A(c) = K + M(c) and the load M(f) 1 of the state equation."""
    A = reference_stiffness(mesh) + reference_mass(mesh, c)
    return A.toarray(), reference_mass(mesh, f) @ np.ones(mesh.n_nodes)


def reference_pattern(mesh):
    """A P1Pattern whose arrays come from a sort-based element scatter.

    The keys row n + col of all local entries are sorted by np.unique,
    and each array is a bincount over the keys' positions, element-major.
    The result is a P1Pattern with these arrays (and the offset spans
    weighted_mass and its methods read) set directly, so weighted_mass,
    matvec and load run the library's own code on these arrays.
    """
    n, k = mesh.n_nodes, mesh.dim + 1
    rows = np.repeat(mesh.elements, k, axis=1).ravel()
    cols = np.tile(mesh.elements, (1, k)).ravel()
    keys, position = np.unique(rows * n + cols, return_inverse=True)
    row, col = np.divmod(keys, n)
    diagonal, lower = row == col, row > col

    def scatter(local):
        return np.bincount(position.ravel(), weights=np.ravel(local), minlength=keys.size)

    K = scatter(reference_local_stiffness(mesh))
    unit_local = local_mass_tensor(mesh).sum(axis=2)
    M1 = scatter(np.broadcast_to(unit_local, (mesh.elements.shape[0], k, k)))
    M1[diagonal] += mesh.h ** mesh.dim - quadrature_weights(mesh)
    pattern = object.__new__(P1Pattern)
    pattern.n = n
    offset = row[lower] - col[lower]
    pattern.offsets = np.unique(offset)
    pattern._spans = [(r, int(d), n - int(d)) for r, d in enumerate(pattern.offsets)]
    where = np.searchsorted(pattern.offsets, offset), col[lower]
    pattern.K_diagonal, pattern.K_lower = K[diagonal], np.zeros((pattern.offsets.size, n))
    pattern.K_lower[where] = K[lower]
    pattern.beta = np.zeros((pattern.offsets.size, n))
    pattern.beta[where] = 0.5 * M1[lower]
    pattern.g = M1[diagonal] - pattern.matvec(np.zeros(n), pattern.beta, np.ones(n))
    return pattern


def csr(pattern, diagonal, lower):
    """The symmetric matrix (diagonal, lower) of a P1Pattern as a CSR matrix."""
    offsets = pattern.offsets.tolist()
    bands = [lower[r, :pattern.n - d] for r, d in enumerate(offsets)]
    return sp.diags([diagonal, *bands, *bands], [0, *(-d for d in offsets), *offsets],
                    shape=(pattern.n, pattern.n), format="csr")


def assert_matrix_close(actual, expected, rtol=1e-14):
    """max |actual - expected| <= rtol max |expected| plus a few subnormal ulps.

    The absolute floor admits round-off among subnormal entries, where no
    relative bound can hold: with weights of 2.2e-311 an entry of
    1.85e-311 is one subnormal ulp, 5e-324, off the reference.
    """
    actual, expected = actual.toarray(), expected.toarray()
    floor = 4 * np.finfo(float).smallest_subnormal
    assert np.abs(actual - expected).max() <= rtol * np.abs(expected).max() + floor
