"""Minimal numerical kernel shared by every module.

Vectors are plain 1-d float64 numpy arrays.  solve_spd_dense solves a
small dense symmetric positive definite system by Cholesky
factorization, dpotrf and dpotrs, with all of its checks, and a
non-positive pivot of the factorization raises; its caller is
geometry.project_hyperplane_intersection.  The stripe projection solves
its Gram systems in Python floats, growing one Cholesky factor
by a bordered row per joining direction, and PIVOT_FLOOR is its test
for a dependent direction.  solve_spd_scalar is the 1 x 1 case in scalar
arithmetic, with the bits of dpotrf + dpotrs.  There is one
sparse SPD path, factorize_band_spd: the caller writes the matrix into
LAPACK lower band storage in its own node order, dpbtrf factorizes it in
place and dpbtrs solves with the factor.  That costs O(n u^2) time and
n (u + 1) floats for half-bandwidth u, and the factorization proves the
matrix positive definite as it goes.  The lexicographic node numbering
of an N x N tensor mesh gives u = N + 2.

Lower storage is the faster of the two conventions for one
factorization and two solves per matrix, the set-up of an iteration.
On the same A(c) (2-D, one OpenBLAS thread, two-core Xeon, best of two
timeit runs):

    N    storage  dpbtrf    dpbtrs   factor + 2 solves
    48   lower     1.22 ms   140 us    1.50 ms
    48   upper     2.27 ms    93 us    2.46 ms
    128  lower    26.9 ms   1.52 ms   29.9 ms
    128  upper    44.4 ms   1.82 ms   48.0 ms

The upper-storage solve is faster at N = 48, but not by enough to pay
for its factorization.  There is no iterative fallback: callers
run check_direct_size first, which rejects systems of more than
DIRECT_LIMIT unknowns, the nodes of a 256 x 256 mesh, before anything
is allocated.

Every vector a run works on starts on an ALIGN = 64 byte boundary, one
cache line: the solver's work vectors and a StripeRing's rows come from
`empty`, and the data, the truth and a DiagonalOperator's diagonal pass
through `aligned`.  numpy's AVX-512 loops run at full width only on
aligned operands; from a misaligned one every 64-byte load spans two
cache lines.  The allocator does not give that alignment: an array past
glibc's mmap threshold, 128 kB unless the threshold moves, is its own
mapping and its data start 16 bytes past a page boundary.  At n = 20 000
(160 kB; one BLAS thread, two-core Xeon with AVX-512, timeit), data at
offset 0 against offsets of 8-48 bytes:

    operation                                   aligned      misaligned
    np.multiply / np.subtract, three operands   5.8-6.7 us   11.6-15.8 us
    np.dot                                      3.3-4.4 us    5.5-7.0 us
    scalar multiply, copyto, daxpy              within 1 us of each other

Alignment changes no result: the same loops run on the same elements in
the same order, so every bit of a trajectory stays as it was.
"""

from __future__ import annotations

import math
from collections.abc import Callable

import numpy as np
from scipy.linalg import lapack

Vec = np.ndarray

# Size cap for the dense Gram solves and for the active set of a stripe
# projection.  The projection code uses at most a handful of directions,
# 16 leaves generous headroom.
DENSE_CAP = 16

# Relative pivot floor of the stripe projection's bordered Cholesky: a
# direction joins the active set only when pivot^2 = G_ii - ||l||^2 exceeds
# PIVOT_FLOOR G_ii, the squared sine of its angle to the span of the active
# directions.  By round-off, exactly dependent integer pairs (u, c u) leave
# at most 3.7e-16 and a third integer direction in the span of two 5.8e-16
# (2 000 draws each, n = 2..40).  The smallest value a direction offered to
# the active set reaches on perfbench's invpot2d-n48, lineardiag-20k and
# invpot1d-trend specs (workload seeds 0-2, stripe methods) is 2.2e-3.
PIVOT_FLOOR = 1e-10

# Largest system check_direct_size lets through to factorize_band_spd: a
# 256 x 256 mesh, whose band factor (u = 258) takes about 0.3 s and 137 MB.
DIRECT_LIMIT = (256 + 1) ** 2

# Byte boundary the data of every vector a run works on starts on.
ALIGN = 64


class DimensionError(ValueError):
    """Operands have incompatible shapes."""


class SingularSystemError(RuntimeError):
    """A supposedly SPD system turned out singular or indefinite.

    For Gram systems this signals linearly dependent search directions;
    callers are expected to drop a direction and retry.
    """


class SparseSolveError(RuntimeError):
    """Sparse SPD solve broke down (indefinite or badly assembled matrix)."""


def empty(shape: int | tuple[int, ...]) -> np.ndarray:
    """Uninitialised C-contiguous float64 array whose data start on an ALIGN boundary.

    It is a view into a buffer ALIGN bytes longer, which always holds an
    aligned stretch of the array's size.
    """
    shape = (shape,) if isinstance(shape, (int, np.integer)) else tuple(shape)
    size = math.prod(shape)
    buf = np.empty(size + ALIGN // 8)
    start = -buf.ctypes.data % ALIGN // 8
    return buf[start:][:size].reshape(shape)


def aligned(x) -> np.ndarray:
    """x as a C-contiguous float64 array whose data start on an ALIGN boundary.

    x itself when it already is one, as with np.asarray; an aligned copy
    otherwise.
    """
    x = np.asarray(x, dtype=float)
    if x.flags.c_contiguous and x.ctypes.data % ALIGN == 0:
        return x
    out = empty(x.shape)
    np.copyto(out, x)
    return out


def dot(x: Vec, y: Vec) -> float:
    """Euclidean inner product of two equal-length vectors."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise DimensionError(f"length mismatch: {x.shape} vs {y.shape}")
    return float(np.dot(x, y))


def norm(x: Vec) -> float:
    """Euclidean norm, sqrt(dot(x, x)).

    The same steps as np.linalg.norm takes for real input, without its
    dispatch: x.dot(x) over x raveled in memory order, a view of a
    contiguous x and a contiguous copy of a strided one.
    """
    x = np.asarray(x, dtype=float).ravel(order="K")
    return math.sqrt(x.dot(x))


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


def gaussian_vector(n: int, seed: int) -> Vec:
    """n independent standard normal samples from a seeded PCG64 generator.

    The generator is NumPy's PCG64 with the ziggurat normal transform;
    identical (n, seed) pairs give bit-identical output across runs and
    platforms.  The vector is ALIGN-aligned.
    """
    if n < 1:
        raise DimensionError(f"need n >= 1, got {n}")
    rng = np.random.Generator(np.random.PCG64(seed))
    return rng.standard_normal(out=empty(n))
