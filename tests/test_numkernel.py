"""Unit tests for the numerical kernel."""

import numpy as np
import pytest
import scipy.sparse as sp

from tgss.numkernel import (
    DENSE_CAP,
    DIRECT_LIMIT,
    DimensionError,
    SingularSystemError,
    SparseSolveError,
    check_symmetric,
    dot,
    factorize_band_spd,
    factorize_sparse_spd,
    gaussian_vector,
    norm,
    solve_spd_dense,
    solve_spd_scalar,
    solve_sparse_spd,
)


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

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_rejects_non_finite(self, bad):
        # A symmetric pair of infinities passes an isclose-style test.
        G = np.array([[2.0, bad], [bad, 2.0]])
        with pytest.raises(SingularSystemError, match="not finite and symmetric"):
            solve_spd_dense(G, np.array([1.0, 1.0]))


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


class TestSolveSparseSpd:
    def test_identity(self):
        f = np.array([1.0, -2.0, 3.0])
        np.testing.assert_allclose(solve_sparse_spd(sp.eye(3, format="csr"), f), f)

    def test_fem_constant_solution(self):
        # Reaction-diffusion system with unit coefficient and unit load has
        # the constant solution: every node of A u = M 1 with A = K + M
        # and zero-row-sum K returns exactly one.
        from tgss.invpot import assemble, make_mesh

        mesh = make_mesh(1, 32)
        sys_ = assemble(mesh, np.ones(mesh.n_nodes), np.ones(mesh.n_nodes))
        u = solve_sparse_spd(sys_.A, sys_.load)
        np.testing.assert_allclose(u, 1.0, atol=1e-8)

    def test_random_tridiagonal_residual(self):
        rng = np.random.Generator(np.random.PCG64(5))
        for _ in range(100):
            n = int(rng.integers(3, 40))
            off = rng.uniform(-1.0, 1.0, n - 1)
            main = np.abs(rng.standard_normal(n)) + 2.5  # diagonally dominant
            A = sp.diags([off, main, off], [-1, 0, 1], format="csr")
            f = rng.standard_normal(n)
            u = solve_sparse_spd(A, f)
            assert norm(A @ u - f) <= 1e-10 * norm(f)

    def test_rejects_singular(self):
        A = sp.csr_matrix(np.zeros((2, 2)))
        with pytest.raises((SparseSolveError, RuntimeError)):
            solve_sparse_spd(A, np.ones(2))

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            solve_sparse_spd(sp.eye(3, format="csr"), np.ones(2))


def fe_system(mesh_n):
    # 2-D A(c) = K + M(c) with c partly below zero, still positive definite.
    from tgss.invpot import assemble, make_mesh

    mesh = make_mesh(2, mesh_n)
    rng = np.random.Generator(np.random.PCG64(mesh_n))
    c = rng.uniform(-0.3, 1.0, mesh.n_nodes)
    return assemble(mesh, c, np.ones(mesh.n_nodes)).A.tocsc()


def duplicated_entry():
    # Tridiagonal [-1, 3, -1] with A[1, 1] stored as two entries 1 + 2.
    indptr = np.array([0, 2, 6, 8])
    indices = np.array([0, 1, 0, 1, 1, 2, 1, 2])
    data = np.array([3.0, -1.0, -1.0, 1.0, 2.0, -1.0, -1.0, 3.0])
    return sp.csc_matrix((data, indices, indptr), shape=(3, 3))


def arrowhead(n=12):
    # Full last row and column: half-bandwidth n - 1.
    A = np.diag(np.full(n, n + 1.0))
    A[:-1, -1] = A[-1, :-1] = 1.0
    return sp.csc_matrix(A)


class TestFactorizeSparseSpd:
    @pytest.mark.parametrize("make", [
        lambda: fe_system(8), lambda: fe_system(16), duplicated_entry, arrowhead,
    ], ids=["fe2d-8", "fe2d-16", "duplicated-entry", "arrowhead"])
    def test_matches_dense_solve(self, make):
        A = make()
        f = np.linspace(-1.0, 2.0, A.shape[0])
        expected = np.linalg.solve(A.toarray(), f)
        u = factorize_sparse_spd(A)(f)
        assert norm(u - expected) <= 1e-12 * norm(expected)

    def test_reused_solve(self):
        A = sp.diags([-1.0, 3.0, -1.0], [-1, 0, 1], shape=(6, 6), format="csc")
        solve = factorize_sparse_spd(A)
        for f in np.eye(6):
            np.testing.assert_allclose(A @ solve(f), f, atol=1e-14)

    def test_rejects_indefinite(self):
        # eigenvalues 0.5 - sqrt(2), 0.5, 0.5 + sqrt(2)
        A = sp.diags([1.0, 0.5, 1.0], [-1, 0, 1], shape=(3, 3), format="csc")
        with pytest.raises(SparseSolveError, match="not positive definite"):
            factorize_sparse_spd(A)

    def test_rejects_zero_diagonal(self):
        # Row pivoting would give U = I with positive pivots; the swap
        # itself shows the matrix is not positive definite.
        A = sp.csc_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
        with pytest.raises(SparseSolveError, match="not positive definite"):
            factorize_sparse_spd(A)

    def test_wraps_singular_factor(self):
        with pytest.raises(SparseSolveError, match="factorization failed"):
            factorize_sparse_spd(sp.csc_matrix((2, 2)))

    def test_rejects_size_above_direct_limit(self):
        n = DIRECT_LIMIT + 1
        A = sp.diags([-1.0, 4.0, -1.0], [-1, 0, 1], shape=(n, n), format="csc")
        with pytest.raises(SparseSolveError, match=f"{n} unknowns exceed .* {DIRECT_LIMIT}"):
            factorize_sparse_spd(A)

    def test_band_solve_rejects_wrong_length(self):
        solve = factorize_sparse_spd(sp.eye(4, format="csc"))
        with pytest.raises(DimensionError):
            solve(np.ones(3))


def lower_band(A, u):
    # LAPACK lower band storage ab[i - j, j] = A[i, j], column-major.
    n = A.shape[0]
    ab = np.zeros((u + 1, n), order="F")
    for d in range(u + 1):
        ab[d, :n - d] = np.diagonal(A, -d)
    return ab


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


class TestCheckSymmetric:
    def test_dense(self):
        assert check_symmetric(np.array([[1.0, 2.0], [2.0, 3.0]]))
        assert not check_symmetric(np.array([[1.0, 2.0], [0.0, 3.0]]))

    def test_sparse(self):
        assert check_symmetric(sp.eye(4, format="csr"))
        A = sp.csr_matrix(np.array([[0.0, 1.0], [0.0, 0.0]]))
        assert not check_symmetric(A)


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
