"""Minimal numerical kernel shared by every module.

Vectors are plain 1-d float64 numpy arrays.  Dense symmetric positive
definite systems (the small Gram systems of the projection steps) are
solved by Cholesky factorization.  Every sparse SPD system of the finite
element discretization is factorized by LAPACK's band Cholesky
(dpbtrf, solves by dpbtrs) in the matrix's own node order: the matrix is
held in lower band storage, the factorization costs O(n u^2) time and
n (u + 1) floats for half-bandwidth u, and it proves the matrix positive
definite as it goes.  The lexicographic node numbering of an N x N
tensor mesh gives u = N + 2.  There is no iterative fallback: systems of
more than DIRECT_LIMIT unknowns, the nodes of a 256 x 256 mesh, are
rejected before anything is allocated.
"""

from __future__ import annotations

import math
from collections.abc import Callable

import numpy as np
from scipy.linalg import lapack
import scipy.sparse as sp

Vec = np.ndarray

# Size cap for the dense Gram solves.  The projection code uses at most a
# handful of directions, 16 leaves generous headroom.
DENSE_CAP = 16

# Largest system factorize_sparse_spd and the inverse-potential operator
# accept: a 256 x 256 mesh, whose band factor (u = 258) takes about 0.3 s
# and 137 MB.
DIRECT_LIMIT = (256 + 1) ** 2


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


def solve_spd_scalar(g: float, b: float) -> float:
    """solve_spd_dense for a 1 x 1 system, in scalar arithmetic.

    Makes the same checks and gives the same bits as dpotrf + dpotrs,
    which form the factor l = sqrt(g) and multiply b twice by 1/l.

    Raises
    ------
    SingularSystemError
        If g is not finite or not positive.
    """
    if not math.isfinite(g):
        raise SingularSystemError("matrix is not finite and symmetric")
    if not g > 0.0:
        raise SingularSystemError("non-positive pivot in Cholesky at column 1")
    r = 1.0 / math.sqrt(g)
    return b * r * r


def check_direct_size(n: int) -> None:
    """Raise SparseSolveError if n unknowns exceed DIRECT_LIMIT."""
    if n > DIRECT_LIMIT:
        raise SparseSolveError(
            f"{n} unknowns exceed the direct solver limit DIRECT_LIMIT = {DIRECT_LIMIT}"
        )


def factorize_band_spd(ab: np.ndarray) -> Callable[[Vec], Vec]:
    """Factorize an SPD matrix in lower band storage in place; return its solve.

    ab has shape (u + 1, n) with ab[i - j, j] = A[i, j] for j <= i <= j + u,
    in Fortran order so that LAPACK dpbtrf overwrites it with the
    Cholesky factor without a copy; solves run dpbtrs on it.  A
    symmetric matrix is positive definite exactly when the factorization
    runs to the end; a non-positive leading minor raises SparseSolveError.
    The solve raises DimensionError for a rhs of the wrong length.
    """
    n = ab.shape[1]
    factor, info = lapack.dpbtrf(ab, lower=1, overwrite_ab=1)
    if info > 0:
        raise SparseSolveError(
            f"band Cholesky factorization failed (leading minor of order {info} "
            "is not positive); matrix is not positive definite"
        )
    if info < 0:
        raise ValueError(f"dpbtrf: illegal value in argument {-info}")

    def solve(f: Vec) -> Vec:
        f = np.asarray(f, dtype=float)
        if f.shape[0] != n:
            raise DimensionError(f"rhs of length {f.shape[0]} does not match matrix of order {n}")
        x, info = lapack.dpbtrs(factor, f, lower=1)
        if info != 0:
            raise ValueError(f"dpbtrs: illegal value in argument {-info}")
        return x
    return solve


def factorize_sparse_spd(A) -> Callable[[Vec], Vec]:
    """Factorize the sparse SPD matrix A once; return its solve function.

    Copies the lower triangle of A into lower band storage, summing
    duplicate entries, and factorizes it with factorize_band_spd in A's
    own row order, with no reordering.  The half-bandwidth u is the
    largest row-minus-column offset of a stored entry.  Raises
    SparseSolveError above DIRECT_LIMIT unknowns, before any storage is
    allocated, and when A is not positive definite.

    Symmetry of A is assumed, not checked.
    """
    A = sp.coo_matrix(A)
    n = A.shape[0]
    if A.shape != (n, n):
        raise DimensionError(f"matrix {A.shape} is not square")
    check_direct_size(n)
    offset = A.row.astype(np.intp) - A.col
    lower = offset >= 0
    col, offset = A.col[lower].astype(np.intp), offset[lower]
    u = int(offset.max(initial=0))
    # Column-major (u + 1, n) layout: entry (i, j) sits at j (u + 1) + i - j.
    ab = np.bincount(col * (u + 1) + offset, weights=A.data[lower],
                     minlength=n * (u + 1)).reshape(n, u + 1).T
    return factorize_band_spd(ab)


def solve_sparse_spd(A, f: Vec) -> Vec:
    """Solve the sparse SPD system A u = f with factorize_sparse_spd.

    The residual is checked after the solve as well; a large residual
    signals a broken matrix and raises SparseSolveError.
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
