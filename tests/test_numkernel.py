"""Unit tests for the numerical kernel."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tgss.numkernel import (
    ALIGN,
    DENSE_CAP,
    DIRECT_LIMIT,
    DimensionError,
    SingularSystemError,
    SparseSolveError,
    aligned,
    check_direct_size,
    dot,
    empty,
    factorize_band_spd,
    gaussian_vector,
    norm,
    solve_spd_dense,
    solve_spd_scalar,
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
    def test_identity(self):
        b = np.array([3.0, -1.0])
        np.testing.assert_allclose(solve_spd_dense(np.eye(2), b), b)

    def test_diagonal(self):
        G = np.diag([2.0, 4.0])
        np.testing.assert_allclose(
            solve_spd_dense(G, np.array([2.0, 8.0])), [1.0, 2.0]
        )

    def test_two_by_two(self):
        G = np.array([[2.0, 1.0], [1.0, 2.0]])
        t = solve_spd_dense(G, np.array([3.0, 3.0]))
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
            t = solve_spd_dense(G, b)
            res = norm(G @ t - b)
            assert res <= 1e-10 * (norm(G.ravel()) * norm(t) + norm(b))

    def test_rejects_indefinite(self):
        G = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3, -1
        with pytest.raises(SingularSystemError):
            solve_spd_dense(G, np.array([1.0, 1.0]))

    def test_rejects_nonsymmetric(self):
        G = np.array([[2.0, 1.0], [0.0, 2.0]])
        with pytest.raises(SingularSystemError):
            solve_spd_dense(G, np.array([1.0, 1.0]))

    def test_rejects_oversized_system(self):
        n = DENSE_CAP + 1
        with pytest.raises(DimensionError):
            solve_spd_dense(np.eye(n), np.ones(n))

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            solve_spd_dense(np.eye(3), np.ones(2))

    def test_rejects_empty_system(self):
        with pytest.raises(DimensionError, match="got 0"):
            solve_spd_dense(np.zeros((0, 0)), np.zeros(0))

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_rejects_non_finite(self, bad):
        # A symmetric pair of infinities passes an isclose-style test.
        G = np.array([[2.0, bad], [bad, 2.0]])
        with pytest.raises(SingularSystemError, match="not finite and symmetric"):
            solve_spd_dense(G, np.array([1.0, 1.0]))


class TestSolveSpdSymmetric:
    """solve_spd_dense on exactly symmetric blocks, one inner product per pair."""

    def test_block_view_of_a_larger_matrix(self):
        G = np.array([[4.0, 1.0, 9.0], [1.0, 3.0, 9.0], [9.0, 9.0, 9.0]])
        b = np.array([1.0, 2.0])
        assert (solve_spd_dense(G[:2, :2], b).tobytes()
                == solve_spd_dense(np.ascontiguousarray(G[:2, :2]), b).tobytes())

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("where", [(0, 0), (0, 1), (1, 1)])
    def test_rejects_non_finite(self, bad, where):
        G = np.array([[2.0, 0.5], [0.5, 2.0]])
        G[where] = G[where[::-1]] = bad
        with pytest.raises(SingularSystemError, match="not finite and symmetric"):
            solve_spd_dense(G, np.array([1.0, 1.0]))

    def test_finite_entries_whose_sum_overflows_are_solved(self):
        G = np.array([[1e308, 0.0], [0.0, 1e308]])
        t = solve_spd_dense(G, np.array([1e308, 2e307]))
        np.testing.assert_allclose(t, [1.0, 0.2], rtol=1e-15)

    def test_rejects_indefinite_and_oversized(self):
        with pytest.raises(SingularSystemError, match="non-positive pivot"):
            solve_spd_dense(np.array([[1.0, 2.0], [2.0, 1.0]]), np.ones(2))
        n = DENSE_CAP + 1
        with pytest.raises(DimensionError):
            solve_spd_dense(np.eye(n), np.ones(n))


def numpy_rule_accepts(G):
    """The elementwise test solve_spd_dense makes, in numpy ufuncs."""
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
        solve_spd_dense(G, b)
        accepted = True
    except SingularSystemError as exc:
        # A rejection after the checks comes from dpotrf's pivots.
        accepted = "non-positive pivot" in str(exc)
    assert accepted == numpy_rule_accepts(G)


class TestSolveSpdScalar:
    def test_same_bits_as_lapack(self):
        # b / g rounds differently from dpotrf + dpotrs in many of
        # these draws; b (1/sqrt g)(1/sqrt g) must match every one.
        rng = np.random.Generator(np.random.PCG64(31))
        g = np.exp(rng.uniform(-40.0, 40.0, 2000))
        b = rng.standard_normal(2000) * np.exp(rng.uniform(-40.0, 40.0, 2000))
        for gi, bi in zip(g, b):
            expected = solve_spd_dense(np.array([[gi]]), np.array([bi]))[0]
            assert solve_spd_scalar(float(gi), float(bi)) == expected

    @pytest.mark.parametrize("g", [0.0, -1.0, -0.0, np.inf, -np.inf, np.nan])
    def test_same_checks_as_lapack(self, g):
        with pytest.raises(SingularSystemError) as dense:
            solve_spd_dense(np.array([[g]]), np.array([1.0]))
        with pytest.raises(SingularSystemError) as scalar:
            solve_spd_scalar(g, 1.0)
        assert str(scalar.value) == str(dense.value)


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

    def test_band_solve_rejects_wrong_length(self):
        solve = factorize(np.eye(4))
        with pytest.raises(DimensionError):
            solve(np.ones(3))


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
