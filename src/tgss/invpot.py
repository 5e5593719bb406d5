"""Inverse potential benchmark: identify c in -Laplace(u) + c u = f.

Piecewise linear finite elements on uniform meshes of [-1, 1] (1-D) and
[-1, 1]^2 (2-D) with homogeneous Neumann boundary (natural, no row
modification).  The coefficient-to-solution map, its derivative and its
adjoint are discretized consistently so that the adjoint identity
<F'(c) q, w> = <q, F'(c)* w> holds to round-off in the plain Euclidean
inner product on nodal vectors.

Weighted mass terms integrate the piecewise linear interpolant of the
coefficient exactly in 1-D and by the three-point edge-midpoint rule on
triangles in 2-D; both choices keep the matrices symmetric and preserve
the exactly checkable constant solution u == 1 for c == 1, f == 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .numkernel import Vec, factorize_sparse_spd
from .operator import ForwardOperator

# Assembly rejects coefficients dipping below this nodal floor.  Small
# negative excursions keep the operator positive definite (the stiffness
# part dominates locally), so iterates that briefly undershoot zero are
# tolerated; uniformly negative fields are rejected.
ADMISSIBILITY_FLOOR = -0.5


class MeshError(ValueError):
    pass


class AdmissibilityError(ValueError):
    """Coefficient field outside the admissible set (negative nodal values)."""


@dataclass(frozen=True)
class Mesh:
    """Uniform mesh of [-1, 1]^dim with lexicographic node ordering.

    1-D: N elements, N + 1 nodes.  2-D: N x N cells on a (N+1)^2 tensor
    lattice (x index fastest), each cell split into two triangles along
    the same diagonal.
    """

    dim: int
    N: int
    nodes: np.ndarray            # (n,) in 1-D, (n, 2) in 2-D
    elements: np.ndarray         # (num_elems, 2) segments or (num_elems, 3) triangles

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def h(self) -> float:
        """Uniform grid spacing."""
        return 2.0 / self.N


def make_mesh(dim: int, N: int) -> Mesh:
    if dim not in (1, 2):
        raise MeshError(f"dimension must be 1 or 2, got {dim}")
    if N < 2:
        raise MeshError(f"need N >= 2, got {N}")
    if dim == 1:
        nodes = np.linspace(-1.0, 1.0, N + 1)
        elems = np.column_stack([np.arange(N), np.arange(1, N + 1)])
        return Mesh(1, N, nodes, elems)

    coords_1d = np.linspace(-1.0, 1.0, N + 1)
    X, Y = np.meshgrid(coords_1d, coords_1d, indexing="xy")
    nodes = np.column_stack([X.ravel(), Y.ravel()])

    i, j = np.meshgrid(np.arange(N), np.arange(N), indexing="xy")
    ll = (j * (N + 1) + i).ravel()
    lr = ll + 1
    ul = ll + (N + 1)
    ur = ul + 1
    # Both triangles of every cell use the lower-left -> upper-right diagonal.
    tris = np.vstack([
        np.column_stack([ll, lr, ur]),
        np.column_stack([ll, ur, ul]),
    ])
    return Mesh(2, N, nodes, tris)


def true_coefficient(mesh: Mesh) -> Vec:
    """Nodal interpolation of the benchmark's exact coefficient."""
    if mesh.dim == 1:
        return 1.0 - np.cos(np.pi * mesh.nodes)
    x1, x2 = mesh.nodes[:, 0], mesh.nodes[:, 1]
    chi = np.maximum(np.abs(x1), np.abs(x2)) < 0.5
    return 1.0 + np.cos(np.pi * x1) * np.cos(np.pi * x2) * chi


def quadrature_weights(mesh: Mesh) -> Vec:
    """Per-node quadrature weight, the integral of each hat function.

    Interior nodes carry the full cell weight h^dim; nodes on the
    boundary own only part of a cell and weigh less.
    """
    if mesh.dim == 1:
        omega = np.full(mesh.n_nodes, mesh.h)
        omega[0] = omega[-1] = 0.5 * mesh.h
        return omega
    area = 0.5 * mesh.h ** 2
    omega = np.zeros(mesh.n_nodes)
    np.add.at(omega, mesh.elements.ravel(), area / 3.0)
    return omega


def local_stiffness(mesh: Mesh) -> np.ndarray:
    """Element stiffness matrices, shape (num_elems, dim + 1, dim + 1)."""
    if mesh.dim == 1:
        K_loc = np.array([[1.0, -1.0], [-1.0, 1.0]]) / mesh.h
        return np.broadcast_to(K_loc, (mesh.elements.shape[0], 2, 2))
    p = mesh.nodes[mesh.elements]          # (ne, 3, 2)
    b = p[:, [1, 2, 0], 1] - p[:, [2, 0, 1], 1]   # y_j - y_k per local basis
    c = p[:, [2, 0, 1], 0] - p[:, [1, 2, 0], 0]   # x_k - x_j
    area = 0.5 * np.abs(b[:, 0] * c[:, 1] - b[:, 1] * c[:, 0])
    return (b[:, :, None] * b[:, None, :] + c[:, :, None] * c[:, None, :]) / (
        4.0 * area[:, None, None]
    )


def local_mass_tensor(mesh: Mesh) -> np.ndarray:
    """W[i, j, a], the quadrature of phi_a phi_i phi_j over one element.

    The element mass matrix weighted by the interpolant of w is
    sum_a W[:, :, a] w_a.  1-D integrates the cubic exactly: h/4 when
    i = j = a, else h/12.  2-D uses the three-point edge-midpoint rule:
    each midpoint weighs area/3 and the basis functions of the edge's end
    nodes are 1/2 there, so each edge holding all of i, j, a adds area/24.
    """
    k = mesh.dim + 1
    if mesh.dim == 1:
        scale, per_distinct = mesh.h / 12.0, {1: 3.0, 2: 1.0}
    else:
        scale, per_distinct = mesh.h ** 2 / 48.0, {1: 2.0, 2: 1.0, 3: 0.0}
    return scale * np.array([
        [[per_distinct[len({i, j, a})] for a in range(k)] for j in range(k)]
        for i in range(k)
    ])


class P1Pattern:
    """Sparsity pattern of piecewise linear matrices on one mesh.

    Built once per mesh: the CSR structure of every matrix the operator
    needs (stiffness, weighted mass, system matrix) and a scatter from
    element-local entries to positions in its data array.  Each matrix
    is then a new data array on this pattern.
    """

    def __init__(self, mesh: Mesh):
        n, k = mesh.n_nodes, mesh.dim + 1
        rows = np.repeat(mesh.elements, k, axis=1).ravel()
        cols = np.tile(mesh.elements, (1, k)).ravel()
        keys, position = np.unique(rows * n + cols, return_inverse=True)
        self.mesh = mesh
        self.n = n
        self.indices = (keys % n).astype(np.intc)
        self.indptr = np.searchsorted(keys, np.arange(n + 1) * n).astype(np.intc)
        # Position of each element-local entry in the data array; int32
        # halves the largest array the pattern keeps.
        self._position = position.ravel().astype(np.intc)
        self._diagonal = np.searchsorted(keys, np.arange(n) * (n + 1))
        self._mass = local_mass_tensor(mesh).reshape(k * k, k).T
        self._ghost = mesh.h ** mesh.dim - quadrature_weights(mesh)

    def scatter(self, local: np.ndarray) -> Vec:
        """Data array of the sum of element-local matrices (num_elems, k, k)."""
        return np.bincount(self._position, weights=np.ravel(local),
                           minlength=self.indices.size)

    def mass_data(self, w: Vec) -> Vec:
        """Data array of weighted_mass(mesh, w)."""
        data = self.scatter(w[self.mesh.elements] @ self._mass)
        data[self._diagonal] += self._ghost * w
        return data

    def stiffness(self) -> sp.csr_matrix:
        return self.csr(self.scatter(local_stiffness(self.mesh)))

    def load(self, f_nodal: Vec) -> Vec:
        """Row sums of the f-weighted mass, the consistent load of f."""
        return self.csr(self.mass_data(f_nodal)) @ np.ones(self.n)

    def csr(self, data: Vec) -> sp.csr_matrix:
        return sp.csr_matrix((data, self.indices, self.indptr), shape=(self.n, self.n))


def stiffness_matrix(mesh: Mesh) -> sp.csr_matrix:
    """Stiffness matrix of piecewise linear elements (Neumann, row sums zero)."""
    return P1Pattern(mesh).stiffness()


def weighted_mass(mesh: Mesh, w: Vec) -> sp.csr_matrix:
    """Boundary-corrected mass matrix weighted by the interpolant of w.

    Entry (i, j) approximates the integral of w_h * phi_i * phi_j.
    1-D element integration is exact for the cubic integrand; 2-D uses
    the three-point edge-midpoint rule.  A diagonal correction tops up
    every node to the uniform quadrature weight h^dim, as if boundary
    nodes owned a full reflected cell.  This keeps the row sums of the
    matrix proportional to the nodal values of w at every node, so
    adjoint-based gradients treat boundary and interior nodes alike;
    without it the half-weight boundary rows freeze the boundary values
    of reconstructed coefficients.  The perturbation is O(h^2) relative
    to the operator scale and preserves symmetry, the weight-swap
    identity M(q) u = M(u) q, and the exact constant solution.

    Builds the mesh's P1Pattern on every call; repeated assembly on one
    mesh should keep a P1Pattern and call its mass_data.
    """
    pattern = P1Pattern(mesh)
    return pattern.csr(pattern.mass_data(np.asarray(w, dtype=float)))


def load_vector(mesh: Mesh, f_nodal: Vec) -> Vec:
    """Consistent load of the interpolated source, same quadrature as the mass."""
    return P1Pattern(mesh).load(np.asarray(f_nodal, dtype=float))


@dataclass
class AssembledSystem:
    K: sp.csr_matrix
    M_c: sp.csr_matrix
    A: sp.csr_matrix
    load: Vec


def check_admissible(c: Vec):
    c = np.asarray(c, dtype=float)
    if not np.all(np.isfinite(c)):
        raise AdmissibilityError("coefficient contains non-finite values")
    if c.min() < ADMISSIBILITY_FLOOR:
        raise AdmissibilityError(
            f"coefficient min {c.min():.3e} below admissibility floor"
        )


def assemble(mesh: Mesh, c: Vec, f_nodal: Vec) -> AssembledSystem:
    """Assemble A(c) = K + M(c) and the load of f; rejects inadmissible c."""
    check_admissible(c)
    pattern = P1Pattern(mesh)
    K = pattern.stiffness()
    M_c = pattern.csr(pattern.mass_data(np.asarray(c, dtype=float)))
    return AssembledSystem(K, M_c, K + M_c, pattern.load(np.asarray(f_nodal, dtype=float)))


class InversePotentialOperator(ForwardOperator):
    """Coefficient-to-solution map c -> u of -Laplace(u) + c u = f.

    derivative_apply and adjoint_apply share the factorization of A(c)
    and the solution-weighted mass matrix, so they are exactly mutually
    adjoint in the Euclidean nodal inner product.  The mesh's P1Pattern
    is built once; each new coefficient costs two data arrays on it and
    one factorization.
    """

    def __init__(self, mesh: Mesh, f=1.0, eta: float = 0.1, c_F: float = 0.1):
        self.mesh = mesh
        if np.isscalar(f):
            self.f_nodal = np.full(mesh.n_nodes, float(f))
        elif callable(f):
            pts = mesh.nodes
            self.f_nodal = np.asarray(
                f(pts) if mesh.dim == 1 else f(pts[:, 0], pts[:, 1]), dtype=float
            )
        else:
            self.f_nodal = np.asarray(f, dtype=float)
        self.n = self.m = mesh.n_nodes
        self.eta = eta
        self.c_F = c_F
        self._pattern = P1Pattern(mesh)
        self.K = self._pattern.stiffness()
        self.load = self._pattern.load(self.f_nodal)
        self._cache_key = None
        self._cache = None

    def _setup(self, c: Vec):
        """Factorize A(c), solve the state and build M(u); cached per c."""
        c = np.asarray(c, dtype=float)
        key = c.tobytes()
        if key == self._cache_key:
            return self._cache
        check_admissible(c)
        # Drop the previous factorization first, so that at most one is
        # alive: reading its pivots made SuperLU keep copies of L and U.
        self._cache_key = self._cache = None
        A = self._pattern.csr(self.K.data + self._pattern.mass_data(c))
        # A is symmetric, so its transpose is A itself in CSC form, uncopied.
        solve = factorize_sparse_spd(A.T)
        u = solve(self.load)
        if not np.all(np.isfinite(u)):
            raise AdmissibilityError("state solve produced non-finite values")
        M_u = self._pattern.csr(self._pattern.mass_data(u))
        self._cache_key = key
        self._cache = (solve, u, M_u)
        return self._cache

    def apply(self, c: Vec) -> Vec:
        _, u, _ = self._setup(c)
        return u.copy()

    def derivative_apply(self, c: Vec, q: Vec) -> Vec:
        solve, _, M_u = self._setup(c)
        return -solve(M_u @ np.asarray(q, dtype=float))

    def adjoint_apply(self, c: Vec, w: Vec) -> Vec:
        solve, _, M_u = self._setup(c)
        return -(M_u @ solve(np.asarray(w, dtype=float)))


def forward(mesh: Mesh, c: Vec, f=1.0) -> Vec:
    """One-shot forward solve (convenience wrapper for tests and the CLI)."""
    return InversePotentialOperator(mesh, f).apply(c)


def to_csv_rows(mesh: Mesh, values: Vec):
    """(coordinates..., value) rows for serializing fields as CSV."""
    if mesh.dim == 1:
        return [(float(x), float(v)) for x, v in zip(mesh.nodes, values)]
    return [
        (float(x), float(y), float(v))
        for (x, y), v in zip(mesh.nodes, values)
    ]
