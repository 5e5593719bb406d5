"""Minimal numerical kernel shared by every module.

Vectors are plain 1-d float64 numpy arrays.  Dense symmetric positive
definite systems (the small Gram systems of the projection steps) are
solved by Cholesky factorization.  Every sparse SPD system of the finite
element discretization goes through one function, factorize_sparse_spd:
up to DIRECT_LIMIT unknowns a banded Cholesky factorization in the
matrix's own node order, which reads only the upper triangle, costs
O(n u^2) time and n (u + 1) storage for half-bandwidth u, and proves the
matrix positive definite as it goes; conjugate gradients above.  The
lexicographic node numbering of an N x N tensor mesh gives u = N + 2.
"""

from __future__ import annotations

import math
from collections.abc import Callable

import numpy as np
import scipy.linalg
from scipy.linalg import lapack
import scipy.sparse as sp
import scipy.sparse.linalg as spla

Vec = np.ndarray

# Size cap for the dense Gram solves.  The projection code uses at most a
# handful of directions, 16 leaves generous headroom.
DENSE_CAP = 16

# Meshes up to 128x128 nodes are factorized directly; beyond that we fall
# back to conjugate gradients.
DIRECT_LIMIT = (128 + 1) ** 2
CG_TOL = 1e-12


class DimensionError(ValueError):
    """Operands have incompatible shapes."""


class SingularSystemError(RuntimeError):
    """A supposedly SPD system turned out singular or indefinite.

    For Gram systems this signals linearly dependent search directions;
    callers are expected to drop a direction and retry.
    """


class SparseSolveError(RuntimeError):
    """Sparse SPD solve broke down (indefinite or badly assembled matrix)."""


def dot(x: Vec, y: Vec) -> float:
    """Euclidean inner product of two equal-length vectors."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise DimensionError(f"length mismatch: {x.shape} vs {y.shape}")
    return float(np.dot(x, y))


def norm(x: Vec) -> float:
    """Euclidean norm, sqrt(dot(x, x))."""
    return float(np.linalg.norm(np.asarray(x, dtype=float)))


def solve_spd_dense(G: np.ndarray, b: Vec) -> Vec:
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
        On shape mismatch or when the system exceeds DENSE_CAP.
    """
    G = np.asarray(G, dtype=float)
    b = np.asarray(b, dtype=float)
    n = b.shape[0]
    if G.shape != (n, n):
        raise DimensionError(f"Gram matrix {G.shape} does not match rhs of length {n}")
    if n > DENSE_CAP:
        raise DimensionError(f"dense SPD solve capped at {DENSE_CAP}, got {n}")
    absG = np.abs(G)
    gmax = float(absG.max())  # NaN if any entry is NaN
    atol = 1e-14 * max(1.0, gmax)
    if not (math.isfinite(gmax) and (np.abs(G - G.T) <= atol + 1e-12 * absG.T).all()):
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


def factorize_sparse_spd(A) -> Callable[[Vec], Vec]:
    """Factorize the sparse SPD matrix A once; return its solve function.

    Up to DIRECT_LIMIT unknowns this is LAPACK's banded Cholesky
    factorization (dpbtrf, solves by dpbtrs) in A's own row order, with
    no reordering.  Only the upper triangle of A is read: its
    half-bandwidth u is the largest column-minus-row offset of a stored
    entry, duplicate entries are summed, and the factorization takes
    O(n u^2) time and n (u + 1) floats of storage.  A symmetric matrix is
    positive definite exactly when the factorization runs to the end; a
    non-positive leading minor raises SparseSolveError.  Above
    DIRECT_LIMIT the solve function runs conjugate gradients to tolerance
    CG_TOL and raises SparseSolveError when they do not converge.

    Symmetry of A is assumed, not checked.
    """
    A = sp.csc_matrix(A)
    n = A.shape[0]
    if A.shape != (n, n):
        raise DimensionError(f"matrix {A.shape} is not square")
    if n > DIRECT_LIMIT:
        def solve(f: Vec) -> Vec:
            u, info = spla.cg(A, f, rtol=CG_TOL, atol=0.0, maxiter=10 * n)
            if info != 0:
                raise SparseSolveError(f"conjugate gradients did not converge (info={info})")
            return u
        return solve
    col = np.repeat(np.arange(n), np.diff(A.indptr))
    offset = col - A.indices
    upper = offset >= 0
    col, offset = col[upper], offset[upper]
    u = int(offset.max(initial=0))
    # LAPACK upper band storage, ab[u + i - j, j] = A[i, j], laid out in
    # column-major order so that LAPACK factorizes it in place;
    # bincount sums duplicate entries.
    ab = np.bincount(col * (u + 1) + (u - offset), weights=A.data[upper],
                     minlength=n * (u + 1)).reshape(n, u + 1).T
    try:
        factor = scipy.linalg.cholesky_banded(ab, overwrite_ab=True, lower=False,
                                              check_finite=False)
    except scipy.linalg.LinAlgError as exc:
        raise SparseSolveError(
            f"band Cholesky factorization failed ({exc}); matrix is not positive definite"
        ) from exc

    def solve(f: Vec) -> Vec:
        f = np.asarray(f, dtype=float)
        if f.shape[0] != n:
            raise DimensionError(f"rhs of length {f.shape[0]} does not match matrix of order {n}")
        x, info = lapack.dpbtrs(factor, f, lower=0)
        if info != 0:
            raise ValueError(f"dpbtrs: illegal value in argument {-info}")
        return x
    return solve


def solve_sparse_spd(A, f: Vec) -> Vec:
    """Solve the sparse SPD system A u = f with factorize_sparse_spd.

    The residual is checked after the solve as well; a large residual
    signals a broken matrix, or an inaccurate iterative solve, and raises
    SparseSolveError.
    """
    f = np.asarray(f, dtype=float)
    n = f.shape[0]
    if A.shape != (n, n):
        raise DimensionError(f"matrix {A.shape} does not match rhs of length {n}")
    A = sp.csc_matrix(A)
    u = factorize_sparse_spd(A)(f)
    res = norm(A @ u - f)
    if not np.isfinite(res) or res > 1e-10 * max(norm(f), 1e-300):
        raise SparseSolveError(f"solve residual {res:.3e} exceeds bound; matrix likely indefinite")
    return u


def check_symmetric(A, rtol: float = 1e-12) -> bool:
    """True if a (dense or sparse) matrix is symmetric to relative tolerance."""
    if sp.issparse(A):
        diff = abs(A - A.T)
        scale = abs(A).max() if A.nnz else 0.0
        return diff.max() <= rtol * max(scale, 1e-300) if diff.nnz else True
    A = np.asarray(A, dtype=float)
    return bool(np.allclose(A, A.T, rtol=rtol, atol=rtol * max(1.0, float(np.abs(A).max()))))


def gaussian_vector(n: int, seed: int) -> Vec:
    """n independent standard normal samples from a seeded PCG64 generator.

    The generator is NumPy's PCG64 with the ziggurat normal transform;
    identical (n, seed) pairs give bit-identical output across runs and
    platforms.
    """
    if n < 1:
        raise DimensionError(f"need n >= 1, got {n}")
    rng = np.random.Generator(np.random.PCG64(seed))
    return rng.standard_normal(n)
