"""Unit tests for the elliptic coefficient-identification benchmark."""

import numpy as np
import pytest
import scipy.sparse as sp

from tgss import invpot
from tgss.invpot import (
    AdmissibilityError,
    InversePotentialOperator,
    MeshError,
    assemble,
    check_admissible,
    forward,
    load_vector,
    make_mesh,
    quadrature_weights,
    stiffness_matrix,
    to_csv_rows,
    true_coefficient,
    weighted_mass,
)
from tgss.numkernel import (
    SparseSolveError,
    check_symmetric,
    dot,
    factorize_sparse_spd,
    norm,
)


# Reference assembly: element matrices summed through a COO matrix and
# converted to CSR, written out independently of P1Pattern.

def reference_stiffness(mesh):
    n = mesh.n_nodes
    if mesh.dim == 1:
        h = mesh.h
        main = np.full(n, 2.0 / h)
        main[0] = main[-1] = 1.0 / h
        off = np.full(n - 1, -1.0 / h)
        return sp.diags([off, main, off], [-1, 0, 1], format="csr")
    p = mesh.nodes[mesh.elements]
    b = p[:, [1, 2, 0], 1] - p[:, [2, 0, 1], 1]
    c = p[:, [2, 0, 1], 0] - p[:, [1, 2, 0], 0]
    area = 0.5 * np.abs(b[:, 0] * c[:, 1] - b[:, 1] * c[:, 0])
    K_loc = (b[:, :, None] * b[:, None, :] + c[:, :, None] * c[:, None, :]) / (
        4.0 * area[:, None, None]
    )
    rows = np.repeat(mesh.elements, 3, axis=1).ravel()
    cols = np.tile(mesh.elements, (1, 3)).ravel()
    return sp.coo_matrix((K_loc.ravel(), (rows, cols)), shape=(n, n)).tocsr()


def reference_mass(mesh, w):
    n = mesh.n_nodes
    ghost = sp.diags((mesh.h ** mesh.dim - quadrature_weights(mesh)) * w)
    if mesh.dim == 1:
        h = mesh.h
        wa = w[mesh.elements[:, 0]]
        wb = w[mesh.elements[:, 1]]
        m_aa = h * (wa / 4.0 + wb / 12.0)
        m_ab = h * (wa + wb) / 12.0
        m_bb = h * (wa / 12.0 + wb / 4.0)
        loc = np.stack(
            [np.stack([m_aa, m_ab], axis=1), np.stack([m_ab, m_bb], axis=1)], axis=1
        )
        k = 2
    else:
        wq = 0.5 * mesh.h ** 2 / 3.0
        w_elem = w[mesh.elements]
        loc = np.zeros((mesh.elements.shape[0], 3, 3))
        for a, b in ((0, 1), (1, 2), (2, 0)):
            contrib = wq * 0.5 * (w_elem[:, a] + w_elem[:, b]) * 0.25
            for i in (a, b):
                for j in (a, b):
                    loc[:, i, j] += contrib
        k = 3
    rows = np.repeat(mesh.elements, k, axis=1).ravel()
    cols = np.tile(mesh.elements, (1, k)).ravel()
    base = sp.coo_matrix((loc.ravel(), (rows, cols)), shape=(n, n)).tocsr()
    return (base + ghost).tocsr()


def assert_matrix_close(actual, expected, rtol=1e-14):
    actual, expected = actual.toarray(), expected.toarray()
    assert np.abs(actual - expected).max() <= rtol * np.abs(expected).max()


class TestMesh:
    def test_1d_nodes(self):
        mesh = make_mesh(1, 4)
        np.testing.assert_allclose(mesh.nodes, [-1.0, -0.5, 0.0, 0.5, 1.0])
        assert mesh.n_nodes == 5
        assert mesh.h == 0.5

    def test_2d_node_count(self):
        mesh = make_mesh(2, 2)
        assert mesh.n_nodes == 9
        assert mesh.elements.shape == (8, 3)

    def test_1d_fine(self):
        mesh = make_mesh(1, 256)
        assert mesh.n_nodes == 257
        assert mesh.h == pytest.approx(2.0 / 256)

    def test_2d_triangle_areas_positive(self):
        mesh = make_mesh(2, 3)
        p = mesh.nodes[mesh.elements]
        areas = 0.5 * np.abs(
            (p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1])
            - (p[:, 2, 0] - p[:, 0, 0]) * (p[:, 1, 1] - p[:, 0, 1])
        )
        assert np.all(areas > 0)
        assert areas.sum() == pytest.approx(4.0)

    def test_invalid_inputs(self):
        with pytest.raises(MeshError):
            make_mesh(3, 4)
        with pytest.raises(MeshError):
            make_mesh(1, 1)


class TestTrueCoefficient:
    def test_1d_values(self):
        mesh = make_mesh(1, 4)
        c = true_coefficient(mesh)
        assert c[2] == pytest.approx(0.0)        # center: 1 - cos(0)
        assert c[0] == pytest.approx(2.0)        # edges: 1 - cos(pi)
        assert c[-1] == pytest.approx(2.0)

    def test_2d_values(self):
        mesh = make_mesh(2, 8)
        c = true_coefficient(mesh)
        center = np.flatnonzero(
            (mesh.nodes[:, 0] == 0.0) & (mesh.nodes[:, 1] == 0.0)
        )[0]
        outside = np.flatnonzero(
            (mesh.nodes[:, 0] == 0.75) & (mesh.nodes[:, 1] == 0.0)
        )[0]
        assert c[center] == pytest.approx(2.0)
        assert c[outside] == pytest.approx(1.0)


class TestAssembly:
    def test_1d_two_element_stiffness(self):
        mesh = make_mesh(1, 2)  # h = 1
        K = stiffness_matrix(mesh).toarray()
        expected = np.array([[1.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 1.0]])
        np.testing.assert_allclose(K, expected)

    def test_stiffness_row_sums_zero(self):
        for mesh in (make_mesh(1, 16), make_mesh(2, 4)):
            K = stiffness_matrix(mesh)
            np.testing.assert_allclose(K @ np.ones(mesh.n_nodes), 0.0, atol=1e-12)

    def test_quadrature_weights_sum_to_domain_measure(self):
        assert quadrature_weights(make_mesh(1, 8)).sum() == pytest.approx(2.0)
        assert quadrature_weights(make_mesh(2, 4)).sum() == pytest.approx(4.0)

    def test_mass_symmetric(self):
        rng = np.random.Generator(np.random.PCG64(31))
        for mesh in (make_mesh(1, 16), make_mesh(2, 4)):
            w = rng.uniform(0.5, 2.0, mesh.n_nodes)
            assert check_symmetric(weighted_mass(mesh, w))

    def test_mass_weight_swap_identity(self):
        # The bilinear form is symmetric in the weight and the trial
        # function: M(q) u == M(u) q for piecewise linear u, q.
        rng = np.random.Generator(np.random.PCG64(32))
        for mesh in (make_mesh(1, 16), make_mesh(2, 4)):
            u = rng.standard_normal(mesh.n_nodes)
            q = rng.standard_normal(mesh.n_nodes)
            lhs = weighted_mass(mesh, q) @ u
            rhs = weighted_mass(mesh, u) @ q
            np.testing.assert_allclose(lhs, rhs, atol=1e-13)

    def test_constant_solution_of_assembled_system(self):
        from tgss.numkernel import solve_sparse_spd

        for mesh in (make_mesh(1, 16), make_mesh(2, 8)):
            ones = np.ones(mesh.n_nodes)
            sys_ = assemble(mesh, ones, ones)
            u = solve_sparse_spd(sys_.A, sys_.load)
            np.testing.assert_allclose(u, 1.0, atol=1e-8)

    def test_fixed_pattern_matches_reference_assembly(self):
        rng = np.random.Generator(np.random.PCG64(35))
        for mesh in (make_mesh(1, 16), make_mesh(2, 6)):
            n = mesh.n_nodes
            K_ref = reference_stiffness(mesh)
            assert_matrix_close(stiffness_matrix(mesh), K_ref)
            for _ in range(5):
                w = rng.standard_normal(n)            # negative entries too
                assert_matrix_close(weighted_mass(mesh, w), reference_mass(mesh, w))
                c = rng.uniform(-0.4, 2.0, n)
                f = rng.uniform(0.5, 1.5, n)
                sys_ = assemble(mesh, c, f)
                assert_matrix_close(sys_.A, K_ref + reference_mass(mesh, c))
                np.testing.assert_allclose(
                    sys_.load, reference_mass(mesh, f) @ np.ones(n), rtol=1e-14
                )

    def test_mass_row_sums_full_cell_weight(self):
        # The diagonal correction tops every node up to the full cell
        # weight: for constant w every row of M(w) sums to w h^dim,
        # boundary rows included.
        for mesh in (make_mesh(1, 8), make_mesh(2, 4)):
            M = weighted_mass(mesh, np.full(mesh.n_nodes, 2.5))
            np.testing.assert_allclose(
                M @ np.ones(mesh.n_nodes), 2.5 * mesh.h ** mesh.dim, rtol=1e-14
            )

    def test_load_vector_matches_mass_action(self):
        mesh = make_mesh(1, 8)
        f = np.linspace(0.5, 1.5, mesh.n_nodes)
        np.testing.assert_allclose(
            load_vector(mesh, f),
            weighted_mass(mesh, f) @ np.ones(mesh.n_nodes),
        )

    def test_admissibility_guard(self):
        mesh = make_mesh(1, 8)
        with pytest.raises(AdmissibilityError):
            check_admissible(np.full(mesh.n_nodes, -1.0))
        with pytest.raises(AdmissibilityError):
            check_admissible(np.array([np.nan] * mesh.n_nodes))
        with pytest.raises(AdmissibilityError):
            assemble(mesh, np.full(mesh.n_nodes, -1.0), np.ones(mesh.n_nodes))
        # mild undershoot below zero is tolerated
        check_admissible(np.full(mesh.n_nodes, -1e-3))


class TestForwardMap:
    def test_constant_solution_1d(self):
        mesh = make_mesh(1, 32)
        u = forward(mesh, np.ones(mesh.n_nodes), 1.0)
        assert np.abs(u - 1.0).max() <= 1e-8

    def test_constant_solution_2d(self):
        mesh = make_mesh(2, 8)
        u = forward(mesh, np.ones(mesh.n_nodes), 1.0)
        assert np.abs(u - 1.0).max() <= 1e-8

    def test_linearity_in_source(self):
        mesh = make_mesh(1, 16)
        c = 1.0 + true_coefficient(mesh)
        u1 = forward(mesh, c, 1.0)
        u2 = forward(mesh, c, 2.0)
        np.testing.assert_allclose(u2, 2.0 * u1, rtol=1e-10)

    def test_mesh_refinement_consistency(self):
        # The coarse-mesh solution restricted comparison against the
        # next-finer mesh shrinks as the mesh is refined.
        diffs = []
        for n in (8, 16, 32):
            mesh_c = make_mesh(1, n)
            mesh_f = make_mesh(1, 2 * n)
            u_c = forward(mesh_c, true_coefficient(mesh_c), 1.0)
            u_f = forward(mesh_f, true_coefficient(mesh_f), 1.0)
            diffs.append(np.abs(u_c - u_f[::2]).max())
        assert diffs[0] > diffs[1] > diffs[2]


class TestOperatorContract:
    def test_derivative_constant_perturbation(self):
        mesh = make_mesh(1, 32)
        op = InversePotentialOperator(mesh)
        eps = 1e-2
        dq = op.derivative_apply(np.ones(mesh.n_nodes), np.full(mesh.n_nodes, eps))
        np.testing.assert_allclose(dq, -eps, atol=1e-8)

    def test_adjoint_constant_perturbation(self):
        mesh = make_mesh(1, 32)
        op = InversePotentialOperator(mesh)
        eps = 1e-2
        # The adjoint transports a nodal residual back through the solve;
        # against the constant load of eps the result is -eps at all nodes.
        w = load_vector(mesh, np.full(mesh.n_nodes, eps))
        aw = op.adjoint_apply(np.ones(mesh.n_nodes), w)
        np.testing.assert_allclose(aw, -eps * mesh.h, atol=1e-8)

    def test_zero_inputs(self):
        mesh = make_mesh(1, 16)
        op = InversePotentialOperator(mesh)
        c = np.ones(mesh.n_nodes)
        np.testing.assert_allclose(op.derivative_apply(c, np.zeros(mesh.n_nodes)), 0.0)
        np.testing.assert_allclose(op.adjoint_apply(c, np.zeros(mesh.n_nodes)), 0.0)

    def test_adjoint_consistency_across_meshes(self):
        rng = np.random.Generator(np.random.PCG64(33))
        meshes = [make_mesh(1, 16), make_mesh(1, 64), make_mesh(2, 8)]
        for mesh in meshes:
            op = InversePotentialOperator(mesh)
            n = mesh.n_nodes
            for _ in range(20):
                c = rng.uniform(0.2, 2.0, n)
                q, w = rng.standard_normal((2, n))
                lhs = dot(op.derivative_apply(c, q), w)
                rhs = dot(q, op.adjoint_apply(c, w))
                assert abs(lhs - rhs) <= 1e-10 * max(norm(q) * norm(w), 1e-300)

    def test_taylor_second_order(self):
        rng = np.random.Generator(np.random.PCG64(34))
        mesh = make_mesh(1, 64)
        op = InversePotentialOperator(mesh)
        for _ in range(5):
            c = rng.uniform(0.5, 1.5, mesh.n_nodes)
            q = rng.standard_normal(mesh.n_nodes)
            q /= norm(q)

            def remainder(h):
                return norm(
                    op.apply(c + h * q) - op.apply(c) - h * op.derivative_apply(c, q)
                )

            ratio = remainder(2e-2) / remainder(1e-2)
            assert 3.5 <= ratio <= 4.5

    def test_callable_and_vector_sources(self):
        mesh = make_mesh(1, 8)
        op_scalar = InversePotentialOperator(mesh, f=1.0)
        op_callable = InversePotentialOperator(mesh, f=lambda x: np.ones_like(x))
        op_vector = InversePotentialOperator(mesh, f=np.ones(mesh.n_nodes))
        c = 1.0 + true_coefficient(mesh)
        np.testing.assert_allclose(op_scalar.apply(c), op_callable.apply(c))
        np.testing.assert_allclose(op_scalar.apply(c), op_vector.apply(c))

    def test_one_factorization_per_coefficient(self, monkeypatch):
        calls = []

        def counting(A):
            calls.append(A.shape)
            return factorize_sparse_spd(A)

        monkeypatch.setattr(invpot, "factorize_sparse_spd", counting)
        rng = np.random.Generator(np.random.PCG64(36))
        for mesh in (make_mesh(1, 16), make_mesh(2, 4)):
            op = InversePotentialOperator(mesh)
            n = mesh.n_nodes
            c = rng.uniform(0.5, 1.5, n)
            q, w = rng.standard_normal((2, n))
            calls.clear()
            op.apply(c)
            op.derivative_apply(c, q)
            op.adjoint_apply(c, w)
            op.apply(c.copy())
            assert len(calls) == 1
            op.adjoint_apply(c + 0.1, w)
            op.apply(c + 0.1)
            assert len(calls) == 2

    def test_indefinite_system_raises(self):
        # c == floor passes the admissibility check, but A(c) is then
        # indefinite (minimum eigenvalue -0.0625 in 1-D, -0.031 in 2-D).
        for mesh in (make_mesh(1, 16), make_mesh(2, 8)):
            c = np.full(mesh.n_nodes, invpot.ADMISSIBILITY_FLOOR)
            check_admissible(c)
            assert np.linalg.eigvalsh(assemble(mesh, c, c).A.toarray()).min() < 0.0
            op = InversePotentialOperator(mesh)
            with pytest.raises(SparseSolveError):
                op.apply(c)
            # the failed set-up is not cached
            with pytest.raises(SparseSolveError):
                op.adjoint_apply(c, np.ones(mesh.n_nodes))

    def test_csv_rows(self):
        mesh1 = make_mesh(1, 4)
        rows1 = to_csv_rows(mesh1, np.arange(5.0))
        assert rows1[0] == (-1.0, 0.0)
        mesh2 = make_mesh(2, 2)
        rows2 = to_csv_rows(mesh2, np.arange(9.0))
        assert rows2[0] == (-1.0, -1.0, 0.0)
