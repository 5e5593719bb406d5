"""Unit tests for the numerical kernel."""

import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import lapack

from reference import DENSE_CAP, SingularSystemError
from reference import solve_spd_dense as reference_solve
from tgss import invpot, numkernel
from tgss.numkernel import (
    KERNEL_MAX_KD,
    ALIGN,
    DIRECT_LIMIT,
    DimensionError,
    SparseSolveError,
    aligned,
    check_direct_size,
    dot,
    empty,
    factorize_band_spd,
    forward_substitution,
    gaussian_vector,
    norm,
    solve_spd_dense,
)


def is_aligned(a):
    return a.ctypes.data % ALIGN == 0


class TestAlignedAllocation:
    @pytest.mark.parametrize("shape", [0, 1, 13, (3, 13)])
    def test_empty_is_aligned_contiguous_float64(self, shape):
        for _ in range(8):  # fresh buffers land at different offsets
            a = empty(shape)
            assert a.shape == np.empty(shape).shape
            assert a.dtype == np.float64 and a.flags.c_contiguous
            assert is_aligned(a)

    def test_aligned_keeps_an_aligned_array(self):
        a = empty(13)
        assert aligned(a) is a

    @pytest.mark.parametrize("make", [
        lambda: empty(14)[1:],               # 8 bytes past a boundary
        lambda: np.linspace(0.0, 1.0, 26)[::2],
        lambda: np.arange(13),
    ], ids=["offset-view", "strided-view", "int-array"])
    def test_aligned_copies_anything_else(self, make):
        x = make()
        a = aligned(x)
        assert a is not x and not np.shares_memory(a, x)
        assert a.dtype == np.float64 and a.flags.c_contiguous and is_aligned(a)
        np.testing.assert_array_equal(a, x)


class TestDot:
    def test_hand_example(self):
        assert dot(np.array([1.0, 2.0, 3.0]), np.array([4.0, 5.0, 6.0])) == 32.0

    def test_orthogonal(self):
        assert dot(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0

    def test_self_dot_is_norm_squared(self):
        rng = np.random.Generator(np.random.PCG64(0))
        for _ in range(50):
            x = rng.standard_normal(7)
            assert dot(x, x) >= 0.0
            assert dot(x, x) == pytest.approx(norm(x) ** 2, rel=1e-14)

    def test_symmetry_and_bilinearity(self):
        rng = np.random.Generator(np.random.PCG64(1))
        for _ in range(50):
            x, y, z = rng.standard_normal((3, 6))
            a, b = rng.standard_normal(2)
            assert dot(x, y) == dot(y, x)
            assert dot(a * x + b * y, z) == pytest.approx(
                a * dot(x, z) + b * dot(y, z), rel=1e-12, abs=1e-12
            )

    def test_cauchy_schwarz(self):
        rng = np.random.Generator(np.random.PCG64(2))
        for _ in range(200):
            n = int(rng.integers(1, 12))
            x, y = rng.standard_normal((2, n))
            assert abs(dot(x, y)) <= norm(x) * norm(y) + 1e-12

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            dot(np.ones(3), np.ones(4))


class TestNorm:
    def test_hand_examples(self):
        assert norm(np.array([3.0, 4.0])) == 5.0
        assert norm(np.zeros(5)) == 0.0
        assert norm(np.ones(4)) == 2.0

    def test_zero_iff_zero_vector(self):
        rng = np.random.Generator(np.random.PCG64(3))
        for _ in range(50):
            x = rng.standard_normal(5)
            if np.any(x != 0.0):
                assert norm(x) > 0.0


    def test_same_bits_as_numpy_norm(self):
        rng = np.random.Generator(np.random.PCG64(5))
        base = rng.standard_normal(3 * 400) * 10.0 ** rng.integers(-8, 8, 3 * 400)
        cases = [base[:n] for n in (1, 2, 7, 16, 33, 400)]
        cases += [base[::3][:n] for n in (2, 7, 33, 400)]      # strided views
        cases += [base[1:400][::-1], np.empty(0)]
        for bad in (np.inf, -np.inf, np.nan):
            x = rng.standard_normal(9)
            x[4] = bad
            cases += [x, x[::2]]
        for x in cases:
            got = norm(x)
            assert type(got) is float
            want = float(np.linalg.norm(x))
            assert np.float64(got).tobytes() == np.float64(want).tobytes(), x.strides


class TestSolveSpdDense:
    """The reference LAPACK solve the projection tests compare against."""

    def test_identity(self):
        b = np.array([3.0, -1.0])
        np.testing.assert_allclose(reference_solve(np.eye(2), b), b)

    def test_diagonal(self):
        G = np.diag([2.0, 4.0])
        np.testing.assert_allclose(
            reference_solve(G, np.array([2.0, 8.0])), [1.0, 2.0]
        )

    def test_two_by_two(self):
        G = np.array([[2.0, 1.0], [1.0, 2.0]])
        t = reference_solve(G, np.array([3.0, 3.0]))
        np.testing.assert_allclose(t, [1.0, 1.0], atol=1e-14)
        # verify by multiplying back
        np.testing.assert_allclose(G @ t, [3.0, 3.0], atol=1e-14)

    def test_residual_bound_random_instances(self):
        rng = np.random.Generator(np.random.PCG64(4))
        for _ in range(400):
            n = int(rng.integers(1, 9))
            B = rng.standard_normal((n, n))
            G = B @ B.T + n * np.eye(n)
            b = rng.standard_normal(n)
            t = reference_solve(G, b)
            res = norm(G @ t - b)
            assert res <= 1e-10 * (norm(G.ravel()) * norm(t) + norm(b))

    def test_rejects_indefinite(self):
        G = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3, -1
        with pytest.raises(SingularSystemError):
            reference_solve(G, np.array([1.0, 1.0]))

    def test_rejects_nonsymmetric(self):
        G = np.array([[2.0, 1.0], [0.0, 2.0]])
        with pytest.raises(SingularSystemError):
            reference_solve(G, np.array([1.0, 1.0]))

    def test_rejects_oversized_system(self):
        n = DENSE_CAP + 1
        with pytest.raises(DimensionError):
            reference_solve(np.eye(n), np.ones(n))

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            reference_solve(np.eye(3), np.ones(2))

    def test_rejects_empty_system(self):
        with pytest.raises(DimensionError, match="got 0"):
            reference_solve(np.zeros((0, 0)), np.zeros(0))

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_rejects_non_finite(self, bad):
        # A symmetric pair of infinities passes an isclose-style test.
        G = np.array([[2.0, bad], [bad, 2.0]])
        with pytest.raises(SingularSystemError, match="not finite and symmetric"):
            reference_solve(G, np.array([1.0, 1.0]))


class TestSolveSpdSymmetric:
    """The reference solve on exactly symmetric blocks, one inner product per pair."""

    def test_block_view_of_a_larger_matrix(self):
        G = np.array([[4.0, 1.0, 9.0], [1.0, 3.0, 9.0], [9.0, 9.0, 9.0]])
        b = np.array([1.0, 2.0])
        assert (reference_solve(G[:2, :2], b).tobytes()
                == reference_solve(np.ascontiguousarray(G[:2, :2]), b).tobytes())

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("where", [(0, 0), (0, 1), (1, 1)])
    def test_rejects_non_finite(self, bad, where):
        G = np.array([[2.0, 0.5], [0.5, 2.0]])
        G[where] = G[where[::-1]] = bad
        with pytest.raises(SingularSystemError, match="not finite and symmetric"):
            reference_solve(G, np.array([1.0, 1.0]))

    def test_finite_entries_whose_sum_overflows_are_solved(self):
        G = np.array([[1e308, 0.0], [0.0, 1e308]])
        t = reference_solve(G, np.array([1e308, 2e307]))
        np.testing.assert_allclose(t, [1.0, 0.2], rtol=1e-15)

    def test_rejects_indefinite_and_oversized(self):
        with pytest.raises(SingularSystemError, match="non-positive pivot"):
            reference_solve(np.array([[1.0, 2.0], [2.0, 1.0]]), np.ones(2))
        n = DENSE_CAP + 1
        with pytest.raises(DimensionError):
            reference_solve(np.eye(n), np.ones(n))


def numpy_rule_accepts(G):
    """The elementwise test the reference solve makes, in numpy ufuncs."""
    absG = np.abs(G)
    gmax = float(absG.max())  # NaN if any entry is NaN
    atol = 1e-14 * max(1.0, gmax)
    return math.isfinite(gmax) and bool((np.abs(G - G.T) <= atol + 1e-12 * absG.T).all())


@st.composite
def near_symmetric(draw):
    """An SPD matrix with one off-diagonal pair moved apart by a multiple of
    the tolerance, in either triangle, and perhaps a non-finite entry."""
    n = draw(st.integers(2, 5))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    rng = np.random.Generator(np.random.PCG64(seed))
    scale = 10.0 ** draw(st.integers(-20, 20))
    B = rng.standard_normal((n, 2 * n)) * scale
    G = B @ B.T
    G = np.triu(G) + np.triu(G, 1).T
    i, j = draw(st.sampled_from([(i, j) for i in range(n) for j in range(n) if i != j]))
    a = G[i, j]
    tol = 1e-14 * max(1.0, float(np.abs(G).max())) + 1e-12 * abs(a)
    factor = draw(st.sampled_from([0.0, 0.5, 0.99, 1.0, 1.01, 2.0, 1e3]))
    G[i, j] = a + draw(st.sampled_from([1.0, -1.0])) * factor * tol
    if draw(st.booleans()):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        G[i, j] = draw(st.sampled_from([np.inf, -np.inf, np.nan]))
        if draw(st.booleans()):
            G[j, i] = G[i, j]
    return G


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(near_symmetric())
def test_accepts_exactly_what_the_numpy_rule_accepts(G):
    b = np.ones(G.shape[0])
    try:
        reference_solve(G, b)
        accepted = True
    except SingularSystemError as exc:
        # A rejection after the checks comes from dpotrf's pivots.
        accepted = "non-positive pivot" in str(exc)
    assert accepted == numpy_rule_accepts(G)


class TestSolveSpdDenseWithFactor:
    """The library's Gram solve, given the rows of a Cholesky factor."""

    def test_residual_bound_random_factors(self):
        rng = np.random.Generator(np.random.PCG64(41))
        for n in range(1, DENSE_CAP + 1):
            for _ in range(20):
                L = np.tril(rng.standard_normal((n, n)), -1)
                L[np.diag_indices(n)] = 0.5 + np.abs(rng.standard_normal(n))
                chol = [L[p, :p + 1].tolist() for p in range(n)]
                G = L @ L.T
                b = rng.standard_normal(n)
                t = np.array(solve_spd_dense(chol, b.tolist()))
                assert norm(G @ t - b) <= 1e-12 * (norm(G.ravel()) * norm(t) + norm(b))
                y = np.array(forward_substitution(chol, b.tolist()))
                assert norm(L @ y - b) <= 1e-12 * (norm(L.ravel()) * norm(y) + norm(b))


def lower_band(A, u):
    # LAPACK lower band storage ab[i - j, j] = A[i, j], column-major.
    n = A.shape[0]
    ab = np.zeros((u + 1, n), order="F")
    for d in range(u + 1):
        ab[d, :n - d] = np.diagonal(A, -d)
    return ab


def half_bandwidth(A):
    i, j = np.nonzero(np.tril(A))
    return int((i - j).max(initial=0))


def factorize(A):
    return factorize_band_spd(lower_band(A, half_bandwidth(A)))


def tridiagonal(n, off, main):
    return main * np.eye(n) + off * (np.eye(n, k=1) + np.eye(n, k=-1))


def arrowhead(n=12):
    # Full last row and column: half-bandwidth n - 1.
    A = np.diag(np.full(n, n + 1.0))
    A[:-1, -1] = A[-1, :-1] = 1.0
    return A


class TestFactorizeSparseSpd:
    """The one sparse SPD factorization, factorize_band_spd, and its size check."""

    @pytest.mark.parametrize("make", [arrowhead], ids=["arrowhead"])
    def test_matches_dense_solve(self, make):
        A = make()
        f = np.linspace(-1.0, 2.0, A.shape[0])
        expected = np.linalg.solve(A, f)
        u = factorize(A)(f)
        assert norm(u - expected) <= 1e-12 * norm(expected)

    def test_reused_solve(self):
        A = tridiagonal(6, -1.0, 3.0)
        solve = factorize(A)
        for f in np.eye(6):
            np.testing.assert_allclose(A @ solve(f), f, atol=1e-14)

    def test_rejects_indefinite(self):
        # eigenvalues 0.5 - sqrt(2), 0.5, 0.5 + sqrt(2)
        with pytest.raises(SparseSolveError, match="not positive definite"):
            factorize(tridiagonal(3, 1.0, 0.5))

    def test_rejects_zero_diagonal(self):
        # Row pivoting would give U = I with positive pivots; Cholesky in
        # the matrix's own order stops at the zero first pivot.
        with pytest.raises(SparseSolveError, match="not positive definite"):
            factorize(np.array([[0.0, 1.0], [1.0, 0.0]]))

    def test_wraps_singular_factor(self):
        with pytest.raises(SparseSolveError, match="factorization failed"):
            factorize(np.zeros((2, 2)))

    def test_rejects_size_above_direct_limit(self):
        check_direct_size(DIRECT_LIMIT)
        n = DIRECT_LIMIT + 1
        with pytest.raises(SparseSolveError, match=f"{n} unknowns exceed .* {DIRECT_LIMIT}"):
            check_direct_size(n)


class TestFactorizeBandSpd:
    def test_factors_in_place_and_solves(self):
        rng = np.random.Generator(np.random.PCG64(6))
        n, u = 9, 3
        R = rng.uniform(-1.0, 1.0, (n, n))
        # Off-diagonal row sums stay below 4u, so A is diagonally dominant.
        A = np.triu(np.tril(R + R.T, u), -u) + (4 * u + 3) * np.eye(n)
        ab = lower_band(A, u)
        solve = factorize_band_spd(ab)
        np.testing.assert_allclose(ab, lower_band(np.linalg.cholesky(A), u), atol=1e-13)
        f = np.linspace(-1.0, 2.0, n)
        expected = np.linalg.solve(A, f)
        assert norm(solve(f) - expected) <= 1e-12 * norm(expected)


def random_band(n, kd, seed):
    """Lower band storage of a random diagonally dominant SPD band matrix.

    Each row holds at most 2 kd off-diagonal entries in (-1, 1) and a
    diagonal above 2 kd + 1.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    ab = np.asfortranarray(rng.uniform(-1.0, 1.0, (kd + 1, n)))
    ab[0] = 2.0 * kd + 1.0 + rng.uniform(0.0, 1.0, n)
    for d in range(1, kd + 1):
        ab[d, max(n - d, 0):] = 0.0   # past the last row
    return ab


def dpbtrf(ab):
    """LAPACK's factor and info for a copy of ab."""
    factor, info = lapack.dpbtrf(ab.copy(order="F"), lower=1)
    return factor, info


def band_cases():
    for kd in (0, 1, 2, 18, 50, 63, 64):
        for n in sorted({n for n in (1, 2, kd, kd + 1, kd + 2, 2 * kd + 1) if n >= 1}):
            yield kd, n


def interior_cases():
    """Bands on which the kernel's interior path runs on 0, 1, 2 and many columns."""
    for kd in (3, 4, 7, 8, 9, 15, 16, 17, 63, 64):
        for n in (2 * kd, 2 * kd + 1, 2 * kd + 2, 3 * kd + 5):
            yield kd, n


def factor_error(ab):
    """The order named by factorize_band_spd's SparseSolveError, else 0."""
    try:
        factorize_band_spd(ab)
    except SparseSolveError as exc:
        return int(str(exc).split("order ")[1].split(" ")[0])
    return 0


def indefinite_cases():
    for kd, n in band_cases():
        for p in sorted({0, 1, n // 2, n - 1} & set(range(n))):
            yield kd, n, p


class TestBandCholesky:
    """factorize_band_spd's factor against LAPACK dpbtrf, on both of its paths."""

    @pytest.fixture(params=["kernel", "dpbtrf"])
    def path(self, request, monkeypatch):
        if request.param == "dpbtrf":
            monkeypatch.setattr(numkernel, "_band_cholesky", None)
        return request.param

    @pytest.mark.parametrize("kd, n", list(band_cases()))
    def test_factor_matches_dpbtrf(self, path, kd, n):
        band = random_band(n, kd, seed=100 * kd + n)
        expected, info = dpbtrf(band)
        assert info == 0
        ab = band.copy(order="F")
        solve = factorize_band_spd(ab)
        assert np.abs(ab - expected).max() <= 1e-14 * np.abs(expected).max()
        A = np.zeros((n, n))
        for d in range(min(kd, n - 1) + 1):
            A += np.diag(band[d, :n - d], -d)
        A += np.tril(A, -1).T
        f = np.linspace(-1.0, 2.0, n)
        assert norm(A @ solve(f) - f) <= 1e-12 * norm(f)

    @pytest.mark.parametrize("kd, n, p", list(indefinite_cases()))
    @pytest.mark.parametrize("pivot", [-1.0, 0.0])
    def test_indefinite_fails_at_dpbtrf_order(self, path, kd, n, p, pivot):
        ab = random_band(n, kd, seed=7 * kd + n)
        ab[0, p] = pivot
        _, info = dpbtrf(ab)
        assert info == p + 1
        assert factor_error(ab) == info

    @pytest.mark.parametrize("kd, n", [(kd, n) for kd, n in band_cases() if n >= 2])
    def test_nan_entry_gives_dpbtrf_nans(self, path, kd, n):
        for d, j in {(0, 0), (0, n - 1), (min(kd, n - 1), 0), (min(kd, n // 2), n // 2)}:
            if j + d >= n:
                continue
            ab = random_band(n, kd, seed=3 * kd + n)
            ab[d, j] = np.nan
            expected, info = dpbtrf(ab)
            assert info == 0
            factorize_band_spd(ab)
            np.testing.assert_array_equal(np.isnan(ab), np.isnan(expected))

    @pytest.mark.parametrize("j", [0, 1, 2, 3])
    @pytest.mark.parametrize("zero", [1, 2, 3])
    def test_nan_below_zero_multiplier_stays_put(self, path, j, zero):
        # dsyr skips the update of a zero multiplier, so the NaN below it
        # in column j does not reach the entries that update would touch.
        # Nodes before j are decoupled, so nothing fills column j in.
        kd, n = 6, 14
        ab = random_band(n, kd, seed=j + 10 * zero)
        for p in range(j):
            ab[1:, p] = 0.0
        ab[zero, j] = 0.0
        ab[kd, j] = np.nan
        expected, info = dpbtrf(ab)
        assert info == 0 and np.isfinite(expected).any()
        factorize_band_spd(ab)
        np.testing.assert_array_equal(np.isnan(ab), np.isnan(expected))

    @pytest.mark.parametrize("kd, calls", [(KERNEL_MAX_KD, 1), (KERNEL_MAX_KD + 1, 0)])
    def test_kernel_runs_up_to_its_half_bandwidth(self, monkeypatch, kd, calls):
        seen = []

        def kernel(pointer, n, kd):
            seen.append((n, kd))
            return 0
        monkeypatch.setattr(numkernel, "_band_cholesky", kernel)
        n = 2 * kd + 1
        ab = random_band(n, kd, seed=kd)
        expected, _ = dpbtrf(ab)
        factorize_band_spd(ab)
        assert seen == [(n, kd)] * calls
        if not calls:   # dpbtrf's own factor, to the bit
            np.testing.assert_array_equal(ab, expected)

    @pytest.mark.parametrize("layout", ["C", "strided", "float32", "read-only"])
    def test_other_arrays_are_factorized_as_fortran_copies(self, path, layout):
        kd, n = 3, 11
        ab = random_band(n, kd, seed=5)
        expected, _ = dpbtrf(ab)
        given = {"C": lambda: np.ascontiguousarray(ab),
                 "strided": lambda: np.repeat(ab, 2, axis=1)[:, ::2],
                 "float32": lambda: ab.astype(np.float32),
                 "read-only": lambda: ab.copy(order="F")}[layout]()
        if layout == "read-only":
            given.flags.writeable = False
        before = given.copy()
        solve = factorize_band_spd(given)
        np.testing.assert_array_equal(given, before)
        f = np.linspace(-1.0, 2.0, n)
        reference = lapack.dpbtrs(dpbtrf(given.astype(float))[0], f, lower=1)[0]
        np.testing.assert_allclose(solve(f), reference, rtol=1e-12)
        if layout != "float32":
            np.testing.assert_allclose(solve(f), lapack.dpbtrs(expected, f, lower=1)[0],
                                       rtol=1e-12)

    def test_invpot_factor_matches_dpbtrf(self, path, monkeypatch):
        # The band of A(c) at the true coefficient on the 48 x 48 mesh, kd = 50.
        bands = []

        def capture(ab):
            bands.append(ab.copy(order="F"))
            solve = factorize_band_spd(ab)
            bands.append(ab.copy(order="F"))
            return solve
        monkeypatch.setattr(invpot, "factorize_band_spd", capture)
        op = invpot.InversePotentialOperator(invpot.make_mesh(2, 48))
        op.apply(invpot.true_coefficient(op.mesh))
        band, factor = bands
        assert band.shape[0] - 1 == 50
        expected, info = dpbtrf(band)
        assert info == 0
        assert np.abs(factor - expected).max() <= 1e-14 * np.abs(expected).max()

    @pytest.mark.parametrize("kd, n", list(interior_cases()))
    def test_interior_columns_give_dpbtrf_bits(self, path, kd, n):
        band = random_band(n, kd, seed=100 * kd + n)
        expected, info = dpbtrf(band)
        assert info == 0
        ab = band.copy(order="F")
        factorize_band_spd(ab)
        np.testing.assert_array_equal(ab, expected)

    @pytest.mark.parametrize("kd", [3, 9, 17, 64])
    @pytest.mark.parametrize("zero", [1, 2])
    def test_zero_multiplier_in_an_interior_column_stops_a_nan(self, path, kd, zero):
        # Column j's multiplier for column j + zero is 0, so dsyr skips its
        # update there and the NaN in column j's last row stays out of
        # column j + zero.  The columns before j are decoupled.
        n, j = 3 * kd + 5, kd
        ab = random_band(n, kd, seed=kd + 10 * zero)
        ab[1:, :j] = 0.0
        ab[zero, j] = 0.0
        ab[kd, j] = np.nan
        expected, info = dpbtrf(ab)
        assert info == 0 and np.isfinite(expected[:, j + 1:]).any()
        factorize_band_spd(ab)
        np.testing.assert_array_equal(ab, expected)

    @pytest.mark.parametrize("kd", [3, 9, 17, 64])
    @pytest.mark.parametrize("d", [0, 1, "kd"])
    def test_nan_in_an_interior_column_gives_dpbtrf_nans(self, path, kd, d):
        n = 3 * kd + 5
        ab = random_band(n, kd, seed=5 * kd)
        ab[kd if d == "kd" else d, n // 2] = np.nan
        expected, info = dpbtrf(ab)
        assert info == 0
        factorize_band_spd(ab)
        np.testing.assert_array_equal(ab, expected)

    @pytest.mark.parametrize("kd", [3, 9, 17, 64])
    @pytest.mark.parametrize("pivot, decoupled", [
        (-1.0, False), (0.0, False), (1e-3, False), (0.0, True), (-0.0, True)])
    def test_failing_interior_pivot_gives_dpbtrf_info(self, path, kd, pivot, decoupled):
        # A pivot of 1e-3 is positive in A and fails only after the
        # updates of the columns before it.  A decoupled row c gets no
        # update, so its pivot stays exactly as given.
        n, c = 3 * kd + 5, 2 * kd
        ab = random_band(n, kd, seed=11 * kd)
        ab[0, c] = pivot
        if decoupled:
            for s in range(1, kd + 1):
                ab[s, c - s] = 0.0
        _, info = dpbtrf(ab)
        assert info == c + 1
        assert factor_error(ab) == info

    @pytest.mark.parametrize("kd, n", list(interior_cases()))
    def test_interior_columns_give_dpbtrf_info(self, path, kd, n):
        for c in sorted({kd, n // 2, n - 1 - kd}):
            ab = random_band(n, kd, seed=7 * kd + n)
            ab[0, c] = -1.0
            assert factor_error(ab) == dpbtrf(ab)[1] == c + 1


class TestKernelBuild:
    """The kernel's build, cache and absence."""

    @pytest.fixture
    def stub(self, tmp_path, monkeypatch):
        """An empty cache and build(k), which loads a quick-to-build source
        whose tgss_band_cholesky returns n + kd + k."""
        cache, source = tmp_path / "cache", tmp_path / "_bandchol.c"
        monkeypatch.setattr(numkernel, "KERNEL_CACHE", cache)
        monkeypatch.setattr(numkernel, "KERNEL_SOURCE", source)

        def build(k=0):
            source.write_text(
                f"int tgss_band_cholesky(double *ab, int n, int kd) {{ return n + kd + {k}; }}\n")
            return numkernel._load_kernel()
        return cache, build

    def test_kernel_loads_where_cc_is_found(self):
        # A failure here, never a skip: the kernel must not go missing
        # unnoticed on a host that can build it.
        if shutil.which("cc") is not None:
            assert numkernel._band_cholesky is not None, (
                "cc is on PATH but the band Cholesky kernel did not build or load")

    @pytest.mark.skipif(shutil.which("cc") is None, reason="needs a C compiler")
    def test_cache_key_covers_flags_and_cpu(self, stub, monkeypatch):
        cache, build = stub
        assert build() is not None
        first = sorted(p.name for p in cache.iterdir())
        assert len(first) == 1 and first[0].endswith(".so")
        assert build() is not None      # cached: nothing new
        assert sorted(p.name for p in cache.iterdir()) == first
        monkeypatch.setattr(numkernel, "KERNEL_FLAGS", numkernel.KERNEL_FLAGS + ("-g",))
        assert build() is not None
        second = sorted(p.name for p in cache.iterdir())
        monkeypatch.setattr(numkernel, "_host_cpu", lambda: b"another cpu")
        assert build() is not None
        third = sorted(p.name for p in cache.iterdir())
        # Each new key builds a library of its own, which replaces the last.
        assert len(second) == len(third) == 1
        assert len({*first, *second, *third}) == 3

    @pytest.mark.skipif(shutil.which("cc") is None, reason="needs a C compiler")
    def test_a_build_removes_the_other_libraries(self, stub):
        cache, build = stub
        assert build(1) is not None
        first = [p.name for p in cache.glob("*.so")]
        partial = cache / "_bandchol.0123456789abcdef.so.1.tmp"   # another build's
        partial.write_bytes(b"")
        kernel = build(2)
        assert kernel is not None
        second = [p.name for p in cache.glob("*.so")]
        assert len(second) == 1 and second != first
        assert partial.exists()
        assert kernel(None, 3, 4) == 9      # the second source's

    def test_failed_build_leaves_no_library(self, tmp_path, monkeypatch):
        broken = tmp_path / "broken.c"
        broken.write_text("this is not C\n")
        monkeypatch.setattr(numkernel, "KERNEL_SOURCE", broken)
        monkeypatch.setattr(numkernel, "KERNEL_CACHE", tmp_path / "cache")
        assert numkernel._load_kernel() is None
        assert list((tmp_path / "cache").iterdir()) == []

    def test_no_compiler_no_kernel(self, monkeypatch):
        monkeypatch.setattr(shutil, "which", lambda name: None)
        assert numkernel._load_kernel() is None

    def test_imports_and_solves_without_a_compiler(self, tmp_path):
        # No cc on PATH: tgss imports, and the operator runs on dpbtrf.
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        code = ("import numpy as np\n"
                "from tgss import invpot, numkernel\n"
                "assert numkernel._band_cholesky is None\n"
                "op = invpot.InversePotentialOperator(invpot.make_mesh(2, 8))\n"
                "assert np.abs(op.apply(np.ones(op.n)) - 1.0).max() <= 1e-8\n")
        env = {**os.environ, "PATH": str(tmp_path), "PYTHONPATH": os.path.abspath(src)}
        subprocess.run([sys.executable, "-c", code], env=env, check=True)


class TestGaussianVector:
    def test_determinism(self):
        a = gaussian_vector(64, 123)
        b = gaussian_vector(64, 123)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        assert np.any(gaussian_vector(16, 0) != gaussian_vector(16, 1))

    def test_statistics(self):
        x = gaussian_vector(100_000, 7)
        assert abs(x.mean()) < 0.02
        assert abs(x.var() - 1.0) < 0.05

    def test_rejects_empty(self):
        with pytest.raises(DimensionError):
            gaussian_vector(0, 0)

    @pytest.mark.parametrize("n", [1, 13, 20_000])
    def test_same_bits_as_the_generator_and_aligned(self, n):
        g = gaussian_vector(n, 5)
        assert g.tobytes() == np.random.Generator(np.random.PCG64(5)).standard_normal(n).tobytes()
        assert is_aligned(g)
