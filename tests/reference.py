"""Reference implementations the tests compare the library against.

Geometry: the projections of a point onto one hyperplane, halfspace or
stripe, in vector space, and the sequential stripe projection written as
a loop of such projections (reference_projection), each stage
re-projecting the running point onto the intersection of the active
boundary hyperplanes.  The library runs the same projection in
coefficient space on a StripeRing's Gram matrix; ring_of builds such a
ring from a list of Stripe records, the way a run fills one: each
direction is copied into the ring's slot and then pushed.

Assembly: element matrices are summed through a COO matrix and converted
to CSR, written out independently of invpot.P1Pattern and of the band
storage the operator factorizes.  reference_pattern builds a P1Pattern's
arrays the sort-based way, np.unique over every local (row, col) key of
the full (num_elems, dim + 1, dim + 1) element matrices, as an oracle
for the pattern's sort-free pair scatter.  csr turns a pattern's offset
pair (diagonal, lower) into a CSR matrix to compare against.
"""

import enum
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from tgss.geometry import (
    DependentDirectionsError,
    InvalidStripeError,
    StripeRing,
    project_hyperplane_intersection,
)
from tgss.invpot import P1Pattern, local_mass_tensor, quadrature_weights
from tgss.numkernel import dot, norm


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
    The result is a P1Pattern with these arrays (and the offset spans its
    methods read) set directly, so its mass_data, matvec and load are the
    pattern's own methods on these arrays.
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
    actual, expected = actual.toarray(), expected.toarray()
    assert np.abs(actual - expected).max() <= rtol * np.abs(expected).max()
