"""Minimal numerical kernel shared by every module.

One shape rule holds for every operand: each public entry that takes a
vector of an operator's size n (an operator's three applies, the band
solve, and run's x0, data and truth) passes it through as_vector, which
returns it as a float64 array when its shape is exactly (n,) and raises
DimensionError naming the operand and (n,) otherwise.  A length-1 array
would broadcast against n entries, and a column of shape (n, 1) has the
bytes of a cached (n,) coefficient, so neither may pass.  add_noise
takes data y of any length n >= 1, through as_vector with n = None, and
dot two operands of one such length.

Vectors are plain 1-d float64 numpy arrays.  The stripe projection
solves its Gram systems in Python floats, growing one Cholesky factor
by a bordered row per joining direction: forward_substitution gives the
new row, and solve_spd_dense solves with the grown factor, one forward
and one back substitution; neither has a size limit.  PIVOT_FLOOR is
the projection's test for a dependent direction.  There is one sparse
SPD path, factorize_band_spd: the caller writes the matrix into LAPACK
lower band storage in its own node order, it is factorized in place and
dpbtrs solves with the factor.  That costs O(n u^2) time and n (u + 1)
floats for half-bandwidth u, and the factorization proves the matrix
positive definite as it goes.  The lexicographic node numbering of an
N x N tensor mesh gives u = N + 2.

For u <= KERNEL_MAX_KD = 64 the factorization is the C kernel of
_bandchol.c, which the first import on a host compiles with `cc` and
caches (_load_kernel); past 64, and on a host where it did not build,
it is LAPACK dpbtrf.  The bound is LAPACK's own: ILAENV gives dpbtrf a
block size of 1 for u <= 64, so there dpbtrf runs the unblocked dpbtf2,
one dscal and one dsyr call per column, and the calls' overhead rather
than their flops sets its time.  The kernel computes dpbtf2's factor in
one call, left-looking: it holds a column in vector registers, 4
doubles wide on every host, while the columns before it update it, and
every entry gets the same operations in the same order as in dpbtf2.
With OpenBLAS's fused axpy and gcc's contraction under -march=native
the factor is dpbtrf's to the bit.  Past u = 64 dpbtrf runs blocked,
which orders the updates differently; keeping the bound at 64 keeps
dpbtrf's factor on every band.  In-place factorization of A(c) at the
true coefficient (2-D, one OpenBLAS thread, two-core Xeon with
AVX-512, gcc 12, OpenBLAS 0.3.30; median of the best of 20 runs in 60
rounds, dpbtrf in 15 of them, past u = 64 of the best of 5 in 5):

    N    u     kernel    dpbtrf
    48   50    0.33 ms   1.05 ms
    62   64    0.77 ms   2.48 ms
    64   66              2.00 ms
    96   98              6.95 ms
    128  130             19.0 ms

There is no iterative fallback: callers run check_direct_size first,
which rejects systems of more than DIRECT_LIMIT unknowns, the nodes of
a 256 x 256 mesh, before anything is allocated.

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

import ctypes
import hashlib
import math
import os
import platform
import shutil
import subprocess
from collections.abc import Callable
from pathlib import Path

import numpy as np
from scipy.linalg import lapack

Vec = np.ndarray

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

# Largest half-bandwidth factorize_band_spd gives the compiled kernel: up
# to it LAPACK's dpbtrf runs the unblocked dpbtf2, whose factor the kernel
# computes, and past it blocked code.
KERNEL_MAX_KD = 64

# The compiled band Cholesky, its build flags and its cache directory.
KERNEL_SOURCE = Path(__file__).with_name("_bandchol.c")
KERNEL_FLAGS = ("-O3", "-march=native", "-shared", "-fPIC")
KERNEL_CACHE = Path(__file__).with_name("__pycache__")
_C_INT_MAX = 2 ** (8 * ctypes.sizeof(ctypes.c_int) - 1) - 1


class DimensionError(ValueError):
    """Operands have incompatible shapes."""


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


def as_vector(v, n: int | None, name: str) -> Vec:
    """v as a float64 array of shape (n,), of any length n >= 1 for n=None.

    Raises DimensionError naming `name` and the expected shape otherwise.
    """
    v = np.asarray(v, dtype=float)
    if not ((v.ndim == 1 and v.size > 0) if n is None else v.shape == (n,)):
        expected = "n" if n is None else n
        raise DimensionError(f"expected {name} of shape ({expected},), got {v.shape}")
    return v


def dot(x: Vec, y: Vec) -> float:
    """Euclidean inner product of two 1-D vectors of one length (as_vector)."""
    x = as_vector(x, None, "x")
    return float(np.dot(x, as_vector(y, x.shape[0], "y")))


def norm(x: Vec) -> float:
    """Euclidean norm, sqrt(dot(x, x)).

    The same steps as np.linalg.norm takes for real input, without its
    dispatch: x.dot(x) over x raveled in memory order, a view of a
    contiguous x and a contiguous copy of a strided one.
    """
    x = np.asarray(x, dtype=float).ravel(order="K")
    return math.sqrt(x.dot(x))


def forward_substitution(chol: list[list[float]], b: list[float]) -> list[float]:
    """L^-1 b, L given by the rows `chol` of its lower triangle, in Python floats."""
    y: list[float] = []
    for Lp, acc in zip(chol, b):
        for Lpq, yq in zip(Lp, y):
            acc -= Lpq * yq
        y.append(acc / Lp[len(y)])
    return y


def solve_spd_dense(chol: list[list[float]], b: list[float]) -> list[float]:
    """Solve G t = b for a small SPD G = L L^T given by its Cholesky factor.

    L is given by the rows `chol` of its lower triangle, which hold
    positive diagonals.  One forward substitution L y = b, then one back
    substitution L^T t = y, in Python floats.
    """
    y = forward_substitution(chol, b)
    k = len(y)
    for p in range(k - 1, -1, -1):
        acc = y[p]
        for q in range(p + 1, k):
            acc -= chol[q][p] * y[q]
        y[p] = acc / chol[p][p]
    return y


def check_direct_size(n: int) -> None:
    """Raise SparseSolveError if n unknowns exceed DIRECT_LIMIT."""
    if n > DIRECT_LIMIT:
        raise SparseSolveError(
            f"{n} unknowns exceed the direct solver limit DIRECT_LIMIT = {DIRECT_LIMIT}"
        )


def _host_cpu() -> bytes:
    """The host CPU that -march=native compiles for, as bytes.

    The machine type and, on Linux, the first processor's entry in
    /proc/cpuinfo less its clock reading.
    """
    try:
        with open("/proc/cpuinfo", "rb") as f:
            entry = f.read().split(b"\n\n")[0]
    except OSError:
        entry = platform.processor().encode()
    lines = [line for line in entry.splitlines() if not line.startswith(b"cpu MHz")]
    return b"\n".join([platform.machine().encode(), *lines])


def _load_kernel():
    """tgss_band_cholesky(ab, n, kd) of KERNEL_SOURCE compiled, or None without it.

    The library is built with the system C compiler `cc` the first time
    the package is imported on a host and cached in KERNEL_CACHE under a
    name that hashes the source, the flags, the compiler and the host CPU,
    so a library built by another compiler or for another CPU is never
    loaded.  It is written under a temporary name and moved into place,
    so a concurrent import sees either no library or a whole one; a build
    then removes every other cached library, leaving other builds'
    temporary files alone.  None when there is no `cc`, the build fails or
    the cache is not writable; factorize_band_spd then runs dpbtrf on
    every band.
    """
    cc = shutil.which("cc")
    if cc is None:
        return None
    try:
        version = subprocess.run([cc, "--version"], capture_output=True, check=True).stdout
        key = hashlib.sha256(b"\0".join([
            KERNEL_SOURCE.read_bytes(), " ".join(KERNEL_FLAGS).encode(),
            os.path.realpath(cc).encode(), version, _host_cpu()])).hexdigest()[:16]
        library = KERNEL_CACHE / f"_bandchol.{key}.so"
        if not library.exists():
            KERNEL_CACHE.mkdir(exist_ok=True)
            partial = library.with_name(f"{library.name}.{os.getpid()}.tmp")
            try:
                subprocess.run([cc, *KERNEL_FLAGS, "-o", str(partial), str(KERNEL_SOURCE)],
                               capture_output=True, check=True)
                os.replace(partial, library)
            finally:
                partial.unlink(missing_ok=True)
            for stale in KERNEL_CACHE.glob("_bandchol.*.so"):
                if stale != library:
                    stale.unlink(missing_ok=True)
        kernel = ctypes.CDLL(str(library)).tgss_band_cholesky
    except (OSError, subprocess.CalledProcessError):
        return None
    kernel.argtypes = (ctypes.c_void_p, ctypes.c_int, ctypes.c_int)
    kernel.restype = ctypes.c_int
    return kernel


_band_cholesky = _load_kernel()


def factorize_band_spd(ab: np.ndarray) -> Callable[[Vec], Vec]:
    """Factorize an SPD matrix in lower band storage in place; return its solve.

    ab has shape (u + 1, n) with ab[i - j, j] = A[i, j] for j <= i <= j + u,
    a writeable float64 array in Fortran order, which is overwritten with
    the Cholesky factor; any other array is copied to one first, and the
    copy holds the factor.  For u <= KERNEL_MAX_KD the compiled kernel
    factorizes it where it loaded, otherwise LAPACK dpbtrf; solves run
    dpbtrs on the factor.  A symmetric matrix is positive definite exactly
    when the factorization runs to the end; a non-positive leading minor
    raises SparseSolveError.  The solve takes an n-vector (as_vector).
    """
    factor = np.require(ab, dtype=float, requirements="FAW")
    kd, n = factor.shape[0] - 1, factor.shape[1]
    if _band_cholesky is not None and 0 <= kd <= KERNEL_MAX_KD and n <= _C_INT_MAX:
        info = _band_cholesky(factor.ctypes.data, n, kd)
    else:
        factor, info = lapack.dpbtrf(factor, lower=1, overwrite_ab=1)
    if info > 0:
        raise SparseSolveError(
            f"band Cholesky factorization failed (leading minor of order {info} "
            "is not positive); matrix is not positive definite"
        )
    if info < 0:
        raise ValueError(f"dpbtrf: illegal value in argument {-info}")

    def solve(f: Vec) -> Vec:
        x, info = lapack.dpbtrs(factor, as_vector(f, n, "rhs"), lower=1)
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
