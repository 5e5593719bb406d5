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

Both rules give the weighted mass an exact edge form.  With
beta_ij = M(1)_ij / 2 on every mesh edge i != j and
g_i = M(1)_ii - sum_j beta_ij, for any nodal w

    M(w)_ij = beta_ij (w_i + w_j),      i != j,
    M(w)_ii = g_i w_i + sum_j beta_ij w_j,

because an off-diagonal element entry weighs only the edge's two end
nodes.  The element scatter therefore runs once per mesh (P1Pattern).
In the lexicographic node numbering every edge joins a node p to p + d
for one of a few fixed offsets d, so beta lives on a few diagonals and
every later M(w) costs a few contiguous slice products per offset.  The
scatter itself needs no sort: an element adds its local diagonal to its
nodes and each of its local node pairs to the lower entry
(max node, min node), at offset max - min, with one bincount per array.

weighted_mass(pattern, w) is the one M(w) kernel.  Its callers look it
up as a module global, where the benchmark's tracer wraps it.  It and
P1Pattern.matvec run in numkernel's compiled library where it loaded,
with the numpy form's operations in its order, so both paths give the
same bits; the numpy forms are the reference, and the path on a host
without `cc`.  State matrices are written into reused band storage one
offset row at a time, and factorize_band_spd is told those rows, so the
storage is never zero-filled.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numkernel
from .numkernel import Vec, address, as_vector, check_direct_size, factorize_band_spd
from .operator import ForwardOperator, InvalidOperatorError

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


def local_stiffness(mesh: Mesh) -> tuple[np.ndarray, np.ndarray]:
    """Element stiffness entries (diagonal, pairs), element by element.

    diagonal[e, i] is K_e[i, i], shape (num_elems, dim + 1); pairs[e, t]
    is K_e[i, j] for the t-th local pair (i, j) of
    np.triu_indices(dim + 1, 1), shape (num_elems, dim (dim + 1) / 2).
    In 2-D, K_e[i, j] = (b_i b_j + c_i c_j) / (4 area) with b_i and c_i
    the coordinate differences of the two other corners, so K_e is
    symmetric bit for bit and a pair stands for both of its entries.
    """
    ne = mesh.elements.shape[0]
    if mesh.dim == 1:
        return np.full((ne, 2), 1.0 / mesh.h), np.full((ne, 1), -1.0 / mesh.h)
    x0, x1, x2 = mesh.nodes[:, 0][mesh.elements.T]   # contiguous (ne,) columns
    y0, y1, y2 = mesh.nodes[:, 1][mesh.elements.T]
    b = (y1 - y2, y2 - y0, y0 - y1)                   # y_j - y_k per local basis
    c = (x2 - x1, x0 - x2, x1 - x0)                   # x_k - x_j
    scale = 4.0 * (0.5 * np.abs(b[0] * c[1] - b[1] * c[0]))

    def entries(pairs):
        return np.column_stack([(b[i] * b[j] + c[i] * c[j]) / scale for i, j in pairs])

    return entries((i, i) for i in range(3)), entries(zip(*np.triu_indices(3, 1)))


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
    """Offset form of the piecewise linear matrices on one mesh.

    Every mesh edge joins nodes whose numbers differ by one of a few
    offsets, {1} in 1-D and {1, N + 1, N + 2} in 2-D, read off the edge
    list.  A symmetric matrix on the mesh is then a pair (diagonal,
    lower): its diagonal, length n, and its strict-lower diagonals as an
    (n_offsets, n) array with lower[r, p] = A[p + d, p] for offset
    d = offsets[r], zero where node p has no edge at that offset (past
    the end of a grid row, or p >= n - d).  Row r is row d of LAPACK
    lower band storage.

    One element scatter per mesh gives the stiffness K and the unit mass
    M(1) in that form, and the edge-form coefficients beta and g of the
    module docstring.  The offsets are the nonzero bins of a bincount of
    the pair offsets.  Each array is one bincount: the diagonal over the
    element nodes, the lower diagonals over the flat index r n + p of
    each element pair (p + d, p).  bincount adds in input order and the
    input is element-major, so every entry sums the same element terms,
    in the same order, as a sort-based assembly of all (dim + 1)^2 local
    entries would; the local matrices are symmetric bit for bit, so
    either of a pair's two entries can be read.  weighted_mass(pattern,
    w) computes the pair for M(w) and matvec applies a pair, both with
    contiguous slice products per offset.  A row sums its off-diagonal
    terms from zero in a fixed order, the lower neighbours by decreasing
    offset and then the upper ones by increasing offset (the order of the
    row-major edge list), before the diagonal term is added; the
    off-diagonal of M(w) is beta[r, p] w[p] + beta[r, p] w[p + d].
    """

    def __init__(self, mesh: Mesh):
        n, k = mesh.n_nodes, mesh.dim + 1
        elements = mesh.elements
        i, j = np.triu_indices(k, 1)
        a, b = elements[:, i].ravel(), elements[:, j].ravel()   # element-major pairs
        low, offset = np.minimum(a, b), np.abs(a - b)
        self.n = n
        self.offsets = np.flatnonzero(np.bincount(offset))
        self._spans = [(r, int(d), n - int(d)) for r, d in enumerate(self.offsets)]
        row_of = np.zeros(self.offsets[-1] + 1, dtype=np.intp)
        row_of[self.offsets] = np.arange(self.offsets.size)
        lower_index = row_of[offset] * n + low

        def scatter(diagonal, pairs):
            return (np.bincount(elements.ravel(), weights=diagonal.ravel(), minlength=n),
                    np.bincount(lower_index, weights=pairs.ravel(),
                                minlength=self.offsets.size * n).reshape(-1, n))

        self.K_diagonal, self.K_lower = scatter(*local_stiffness(mesh))
        unit_local = local_mass_tensor(mesh).sum(axis=2)
        ne = elements.shape[0]
        M1_diagonal, M1_lower = scatter(np.tile(unit_local.diagonal(), (ne, 1)),
                                        np.tile(unit_local[i, j], (ne, 1)))
        M1_diagonal += mesh.h ** mesh.dim - quadrature_weights(mesh)
        self.beta = 0.5 * M1_lower
        self.g = M1_diagonal - self.matvec(np.zeros(n), self.beta, np.ones(n))

    def matvec(self, diagonal: Vec, lower: Vec, x: Vec, out: Vec | None = None) -> Vec:
        """Product of the symmetric matrix (diagonal, lower) with x.

        Written into out when given, which must not share memory with an
        operand.  The compiled kernel runs when the operands have the
        pattern's shapes and out, if given, is a writeable C-contiguous
        float64 n-vector; it reads C-contiguous copies of strided operands.
        """
        kernel, n = numkernel._matvec, self.n
        if kernel is not None and (out is None or _writable_vector(out, n)):
            diagonal, lower, x = (np.ascontiguousarray(a, dtype=float)
                                  for a in (diagonal, lower, x))
            offsets = np.asarray(self.offsets, dtype=np.intp)
            if diagonal.shape == x.shape == (n,) and lower.shape == (offsets.size, n):
                out = np.empty(n) if out is None else out
                kernel(address(diagonal), address(lower), offsets.tobytes(), offsets.size,
                       n, address(x), address(out))
                return out
        out = np.empty(self.n) if out is None else out
        out.fill(0.0)
        product = np.empty(self.n)
        for r, d, m in reversed(self._spans):
            out[d:] += np.multiply(lower[r, :m], x[:m], out=product[:m])
        for r, d, m in self._spans:
            out[:m] += np.multiply(lower[r, :m], x[d:], out=product[:m])
        out += np.multiply(diagonal, x, out=product)
        return out

    def load(self, f_nodal: Vec) -> Vec:
        """Row sums of the f-weighted mass, the consistent load of f."""
        return self.matvec(*weighted_mass(self, f_nodal), np.ones(self.n))


def weighted_mass(pattern: P1Pattern, w: Vec) -> tuple[Vec, Vec]:
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

    Returns the matrix as the pattern's offset pair (diagonal, lower); on
    the compiled path, which takes an n-vector w and reads a C-contiguous
    copy of a strided one, they are the rows of one (n_offsets + 1, n)
    array.
    """
    kernel, n = numkernel._weighted_mass, pattern.n
    if kernel is not None:
        w, beta, g = (np.ascontiguousarray(a, dtype=float) for a in (w, pattern.beta, pattern.g))
        offsets = np.asarray(pattern.offsets, dtype=np.intp)
        if w.shape == g.shape == (n,) and beta.shape == (offsets.size, n):
            pair = np.empty((offsets.size + 1, n))
            kernel(address(beta), address(g), offsets.tobytes(), offsets.size, n,
                   address(w), address(pair))
            return pair[0], pair[1:]
    beta = pattern.beta
    lower = beta * w                      # beta[r, p] w[p], towards row p + d
    ahead = np.zeros_like(lower)          # beta[r, p] w[p + d], towards row p
    diagonal = np.zeros(pattern.n)
    for r, d, m in reversed(pattern._spans):
        diagonal[d:] += lower[r, :m]
    for r, d, m in pattern._spans:
        np.multiply(beta[r, :m], w[d:], out=ahead[r, :m])
        diagonal[:m] += ahead[r, :m]
    diagonal += pattern.g * w
    lower += ahead
    return diagonal, lower


def _writable_vector(out, n: int) -> bool:
    """Whether a kernel may write an n-vector into out."""
    return (out.shape == (n,) and out.dtype == np.float64
            and out.flags.c_contiguous and out.flags.writeable)


def check_admissible(c: Vec):
    c = np.asarray(c, dtype=float)
    if not np.all(np.isfinite(c)):
        raise AdmissibilityError("coefficient contains non-finite values")
    if c.min() < ADMISSIBILITY_FLOOR:
        raise AdmissibilityError(
            f"coefficient min {c.min():.3e} below admissibility floor"
        )


class InversePotentialOperator(ForwardOperator):
    """Coefficient-to-solution map c -> u of -Laplace(u) + c u = f.

    derivative_apply and adjoint_apply share the factorization of A(c)
    and the solution-weighted mass M(u), so they are exactly mutually
    adjoint in the Euclidean nodal inner product.  The mesh's P1Pattern
    and the band storage of A(c) are built once; each new coefficient
    costs two masses in offset form, A(c) written into the band storage
    one offset row at a time, rows 0 and the pattern's offsets, and one
    in-place factorization that reads no other row, so one factor is
    alive at a time.  With out given, adjoint_apply allocates only the
    solve's result, and on the numpy path one vector of slice products.
    Meshes past numkernel.DIRECT_LIMIT nodes raise SparseSolveError here,
    before anything is built.  Operands follow numkernel's shape rule; a
    coefficient is checked before the cache is looked up.  The source f
    is a finite scalar or an array of finite values, one per node; any
    other f raises InvalidOperatorError.
    The cone constant eta and the derivative bound c_F of a run on this
    operator are fields of its SolverConfig.
    """

    def __init__(self, mesh: Mesh, f=1.0):
        check_direct_size(mesh.n_nodes)
        self.mesh = mesh
        if np.isscalar(f):
            self.f_nodal = np.full(mesh.n_nodes, float(f))
        else:
            self.f_nodal = np.asarray(f, dtype=float)
            if self.f_nodal.shape != (mesh.n_nodes,):
                raise InvalidOperatorError(
                    f"nodal source has shape {self.f_nodal.shape}, "
                    f"the mesh has {mesh.n_nodes} nodes")
        bad = np.flatnonzero(~np.isfinite(self.f_nodal))
        if bad.size:
            raise InvalidOperatorError(
                f"source must be finite, got {self.f_nodal[bad[0]]} at node {bad[0]}")
        self.n = self.m = mesh.n_nodes
        self._pattern = pattern = P1Pattern(mesh)
        self.load = pattern.load(self.f_nodal)
        # A(c) in LAPACK lower band storage: a (u + 1, n) Fortran-order array
        # with ab[d, j] = A[j + d, j], so band row d takes the pattern's
        # offset-d row.  The storage is reused for every new c and
        # factorized in place.
        width = int(pattern.offsets.max(initial=0)) + 1
        self._band = np.zeros((width, self.n), order="F")
        self._band_rows = (0, *map(int, pattern.offsets))
        self._cache_key = None
        self._cache = None

    def _setup(self, c: Vec):
        """Factorize A(c), solve the state and build M(u); cached per c."""
        c = as_vector(c, self.n, "coefficient")
        key = c.tobytes()
        if key == self._cache_key:
            return self._cache
        check_admissible(c)
        # The band storage holds the cached factor; it is overwritten below.
        self._cache_key = self._cache = None
        pattern = self._pattern
        diagonal, lower = weighted_mass(pattern, c)
        band = self._band
        np.add(pattern.K_diagonal, diagonal, out=band[0])
        for r, d in enumerate(pattern.offsets):
            np.add(pattern.K_lower[r], lower[r], out=band[d])
        solve = factorize_band_spd(band, self._band_rows)
        u = solve(self.load)
        if not np.all(np.isfinite(u)):
            raise AdmissibilityError("state solve produced non-finite values")
        self._cache_key = key
        self._cache = (solve, u, weighted_mass(pattern, u))
        return self._cache

    def apply(self, c: Vec, out: Vec | None = None) -> Vec:
        _, u, _ = self._setup(c)
        if out is None:
            return u.copy()
        np.copyto(out, u)  # the cached state is never handed out
        return out

    def derivative_apply(self, c: Vec, q: Vec) -> Vec:
        q = as_vector(q, self.n, "direction")
        solve, _, M_u = self._setup(c)
        return -solve(self._pattern.matvec(*M_u, q))

    def adjoint_apply(self, c: Vec, w: Vec, out: Vec | None = None) -> Vec:
        w = as_vector(w, self.n, "adjoint argument")
        solve, _, M_u = self._setup(c)
        out = self._pattern.matvec(*M_u, solve(w), out=out)
        return np.negative(out, out=out)
