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
    factorize_sparse_spd,
    gaussian_vector,
    norm,
    solve_spd_dense,
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


class TestFactorizeSparseSpd:
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

    def test_conjugate_gradients_above_direct_limit(self):
        n = DIRECT_LIMIT + 1
        A = sp.diags([-1.0, 4.0, -1.0], [-1, 0, 1], shape=(n, n), format="csc")
        f = np.linspace(-1.0, 1.0, n)
        u = factorize_sparse_spd(A)(f)
        assert norm(A @ u - f) <= 1e-10 * norm(f)


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
