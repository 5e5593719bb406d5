"""Unit tests for the elliptic coefficient-identification benchmark."""

import tracemalloc

import numpy as np
import pytest

from reference import (
    assert_matrix_close,
    csr,
    reference_local_stiffness,
    reference_mass,
    reference_pattern,
    reference_stiffness,
    reference_system,
)
from tgss import invpot
from tgss.invpot import (
    AdmissibilityError,
    InversePotentialOperator,
    MeshError,
    P1Pattern,
    check_admissible,
    local_stiffness,
    make_mesh,
    quadrature_weights,
    true_coefficient,
    weighted_mass,
)
from tgss.numkernel import (
    DIRECT_LIMIT,
    SparseSolveError,
    dot,
    factorize_band_spd,
    norm,
)
from tgss.operator import InvalidOperatorError


def stiffness(mesh):
    pattern = P1Pattern(mesh)
    return csr(pattern, pattern.K)


def mass(mesh, w):
    """weighted_mass on the mesh's pattern as a CSR matrix."""
    pattern = P1Pattern(mesh)
    return csr(pattern, weighted_mass(pattern, w))


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
        K = stiffness(mesh).toarray()
        expected = np.array([[1.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 1.0]])
        np.testing.assert_allclose(K, expected)

    def test_stiffness_row_sums_zero(self):
        for mesh in (make_mesh(1, 16), make_mesh(2, 4)):
            K = stiffness(mesh)
            np.testing.assert_allclose(K @ np.ones(mesh.n_nodes), 0.0, atol=1e-12)

    def test_quadrature_weights_sum_to_domain_measure(self):
        assert quadrature_weights(make_mesh(1, 8)).sum() == pytest.approx(2.0)
        assert quadrature_weights(make_mesh(2, 4)).sum() == pytest.approx(4.0)

    def test_mass_symmetric(self):
        rng = np.random.Generator(np.random.PCG64(31))
        for mesh in (make_mesh(1, 16), make_mesh(2, 4)):
            w = rng.uniform(0.5, 2.0, mesh.n_nodes)
            M = mass(mesh, w)
            assert (M != M.T).nnz == 0

    def test_mass_weight_swap_identity(self):
        # The bilinear form is symmetric in the weight and the trial
        # function: M(q) u == M(u) q for piecewise linear u, q.
        rng = np.random.Generator(np.random.PCG64(32))
        for mesh in (make_mesh(1, 16), make_mesh(2, 4)):
            u = rng.standard_normal(mesh.n_nodes)
            q = rng.standard_normal(mesh.n_nodes)
            lhs = mass(mesh, q) @ u
            rhs = mass(mesh, u) @ q
            np.testing.assert_allclose(lhs, rhs, atol=1e-13)

    def test_fixed_pattern_matches_reference_assembly(self):
        rng = np.random.Generator(np.random.PCG64(35))
        for mesh in (make_mesh(1, 16), make_mesh(2, 6)):
            n = mesh.n_nodes
            pattern = P1Pattern(mesh)
            K_ref = reference_stiffness(mesh)
            assert_matrix_close(csr(pattern, pattern.K), K_ref)
            for _ in range(5):
                w = rng.standard_normal(n)            # negative entries too
                assert_matrix_close(mass(mesh, w), reference_mass(mesh, w))
                c = rng.uniform(-0.4, 2.0, n)
                f = rng.uniform(0.5, 1.5, n)
                A = csr(pattern, pattern.K + weighted_mass(pattern, c))
                assert_matrix_close(A, K_ref + reference_mass(mesh, c))
                np.testing.assert_allclose(
                    InversePotentialOperator(mesh, f=f).load,
                    reference_mass(mesh, f) @ np.ones(n), rtol=1e-14,
                )

    @pytest.mark.parametrize("N", (2, 3, 7, 16, 48, 65))
    @pytest.mark.parametrize("dim", (1, 2))
    def test_pair_scatter_matches_sorted_assembly(self, dim, N):
        # The sort-free pair scatter gives the sort-based assembly's arrays
        # bit for bit: both sum the same element terms in element order.
        mesh = make_mesh(dim, N)
        pattern, expected = P1Pattern(mesh), reference_pattern(mesh)
        for name in ("offsets", "K", "edge"):
            actual, wanted = getattr(pattern, name), getattr(expected, name)
            assert actual.dtype == wanted.dtype, name
            assert np.array_equal(actual, wanted), name
        f = np.random.Generator(np.random.PCG64(N)).uniform(-1.0, 2.0, mesh.n_nodes)
        load, wanted_load = pattern.load(f), expected.load(f)
        assert load.dtype == wanted_load.dtype
        assert np.array_equal(load, wanted_load)
        # The per-pair stiffness entries are the full element matrices'
        # entries, read from either triangle.
        diagonal, pairs = local_stiffness(mesh)
        K_loc = reference_local_stiffness(mesh)
        i, j = np.triu_indices(dim + 1, 1)
        assert np.array_equal(diagonal, K_loc.diagonal(axis1=1, axis2=2))
        assert np.array_equal(pairs, K_loc[:, i, j])
        assert np.array_equal(pairs, K_loc[:, j, i])

    def test_pattern_offsets(self):
        # Every P1 matrix lives on the lower diagonals {1} in 1-D and
        # {1, N + 1, N + 2} in 2-D, stored below the diagonal's row 0 as
        # rows of length n that are zero past the end of the matrix and
        # across grid-row ends.
        for mesh, offsets in ((make_mesh(1, 8), [1]), (make_mesh(2, 5), [1, 6, 7])):
            pattern = P1Pattern(mesh)
            assert pattern.offsets.tolist() == offsets
            assert pattern._offset_bytes == np.array(offsets, dtype=np.intp).tobytes()
            assert pattern.K.shape == pattern.edge.shape == (len(offsets) + 1, mesh.n_nodes)
            for r, d in enumerate(offsets):
                assert not pattern.edge[1 + r, mesh.n_nodes - d:].any()
        assert not pattern.edge[1, 5::6].any()       # offset 1 from x = N

    def test_mass_row_sums_full_cell_weight(self):
        # The diagonal correction tops every node up to the full cell
        # weight: for constant w every row of M(w) sums to w h^dim,
        # boundary rows included.
        for mesh in (make_mesh(1, 8), make_mesh(2, 4)):
            M = mass(mesh, np.full(mesh.n_nodes, 2.5))
            np.testing.assert_allclose(
                M @ np.ones(mesh.n_nodes), 2.5 * mesh.h ** mesh.dim, rtol=1e-14
            )

    def test_load_vector_matches_mass_action(self):
        mesh = make_mesh(1, 8)
        f = np.linspace(0.5, 1.5, mesh.n_nodes)
        np.testing.assert_allclose(
            P1Pattern(mesh).load(f),
            mass(mesh, f) @ np.ones(mesh.n_nodes),
        )

    def test_admissibility_guard(self):
        mesh = make_mesh(1, 8)
        with pytest.raises(AdmissibilityError):
            check_admissible(np.full(mesh.n_nodes, -1.0))
        with pytest.raises(AdmissibilityError):
            check_admissible(np.array([np.nan] * mesh.n_nodes))
        with pytest.raises(AdmissibilityError):
            InversePotentialOperator(mesh).apply(np.full(mesh.n_nodes, -1.0))
        # mild undershoot below zero is tolerated
        check_admissible(np.full(mesh.n_nodes, -1e-3))


class TestForwardMap:
    def test_constant_solution_1d(self):
        mesh = make_mesh(1, 32)
        u = InversePotentialOperator(mesh, 1.0).apply(np.ones(mesh.n_nodes))
        assert np.abs(u - 1.0).max() <= 1e-8

    def test_constant_solution_2d(self):
        mesh = make_mesh(2, 8)
        u = InversePotentialOperator(mesh, 1.0).apply(np.ones(mesh.n_nodes))
        assert np.abs(u - 1.0).max() <= 1e-8

    def test_linearity_in_source(self):
        mesh = make_mesh(1, 16)
        c = 1.0 + true_coefficient(mesh)
        u1 = InversePotentialOperator(mesh, 1.0).apply(c)
        u2 = InversePotentialOperator(mesh, 2.0).apply(c)
        np.testing.assert_allclose(u2, 2.0 * u1, rtol=1e-10)

    def test_mesh_refinement_consistency(self):
        # The coarse-mesh solution restricted comparison against the
        # next-finer mesh shrinks as the mesh is refined.
        diffs = []
        for n in (8, 16, 32):
            mesh_c = make_mesh(1, n)
            mesh_f = make_mesh(1, 2 * n)
            u_c = InversePotentialOperator(mesh_c, 1.0).apply(true_coefficient(mesh_c))
            u_f = InversePotentialOperator(mesh_f, 1.0).apply(true_coefficient(mesh_f))
            diffs.append(np.abs(u_c - u_f[::2]).max())
        assert diffs[0] > diffs[1] > diffs[2]


class TestOperatorContract:
    def test_cone_constant_and_derivative_bound_are_not_arguments(self):
        # eta and c_F are SolverConfig fields; the operator takes neither.
        mesh = make_mesh(1, 8)
        for kwargs in ({"eta": 0.1}, {"c_F": 0.1}):
            with pytest.raises(TypeError):
                InversePotentialOperator(mesh, **kwargs)

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
        w = P1Pattern(mesh).load(np.full(mesh.n_nodes, eps))
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
        op_vector = InversePotentialOperator(mesh, f=np.ones(mesh.n_nodes))
        c = 1.0 + true_coefficient(mesh)
        np.testing.assert_allclose(op_scalar.apply(c), op_vector.apply(c))

    @pytest.mark.parametrize("f, message", [
        (np.nan, "finite, got nan at node 0"),
        (-np.inf, "finite, got -inf at node 0"),
        (np.r_[np.ones(4), np.inf, np.ones(4)], "finite, got inf at node 4"),
        (np.ones(8), r"shape \(8,\), the mesh has 9 nodes"),
        (np.ones((9, 1)), r"shape \(9, 1\), the mesh has 9 nodes"),
    ])
    def test_bad_source_rejected(self, f, message):
        with pytest.raises(InvalidOperatorError, match=message):
            InversePotentialOperator(make_mesh(1, 8), f=f)

    def test_one_factorization_per_coefficient(self, monkeypatch):
        calls = []

        def counting(ab, rows=None):
            calls.append(ab.shape)
            return factorize_band_spd(ab, rows)

        monkeypatch.setattr(invpot, "factorize_band_spd", counting)
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

    def test_adjoint_apply_into_out_allocates_little(self):
        # Warm, adjoint_apply allocates the solve's result and one vector
        # of slice products, never a temporary per directed edge.
        mesh = make_mesh(2, 128)
        n = mesh.n_nodes
        rng = np.random.Generator(np.random.PCG64(38))
        op = InversePotentialOperator(mesh)
        c = 1.0 + 0.1 * rng.standard_normal(n)
        w = rng.standard_normal(n)
        out = np.empty(n)
        op.adjoint_apply(c, w, out=out)
        tracemalloc.start()
        try:
            result = op.adjoint_apply(c, w, out=out)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result is out
        assert peak <= 4 * n * out.itemsize

    @pytest.mark.parametrize("warm", [False, True])
    def test_strided_and_read_only_operands_give_the_contiguous_bits(self, warm):
        # Every other entry of a 2n array, the odd ones garbage: a kernel
        # that read such an operand as contiguous would read the garbage.
        mesh = make_mesh(2, 8)
        n = mesh.n_nodes
        rng = np.random.Generator(np.random.PCG64(39))
        c = 1.0 + 0.1 * rng.standard_normal(n)
        q, w = rng.standard_normal((2, n))

        def strided(v):
            s = np.full(2 * n, 1e6)
            s[::2] = v
            return s[::2]

        def read_only(v):
            v = v.copy()
            v.flags.writeable = False
            return v
        results = []
        for given in ((c, q, w), tuple(map(strided, (c, q, w))), tuple(map(read_only, (c, q, w)))):
            op = InversePotentialOperator(mesh)
            if warm:
                op.apply(c)
            results.append([op.apply(given[0]).tobytes(),
                            op.derivative_apply(given[0], given[1]).tobytes(),
                            op.adjoint_apply(given[0], given[2]).tobytes()])
        assert results[0] == results[1] == results[2]

    def test_indefinite_system_raises(self):
        # c == floor passes the admissibility check, but A(c) is then
        # indefinite (minimum eigenvalue -0.0625 in 1-D, -0.031 in 2-D).
        for mesh in (make_mesh(1, 16), make_mesh(2, 8)):
            c = np.full(mesh.n_nodes, invpot.ADMISSIBILITY_FLOOR)
            check_admissible(c)
            assert np.linalg.eigvalsh(reference_system(mesh, c, c)[0]).min() < 0.0
            op = InversePotentialOperator(mesh)
            with pytest.raises(SparseSolveError):
                op.apply(c)
            # the failed set-up is not cached
            with pytest.raises(SparseSolveError):
                op.adjoint_apply(c, np.ones(mesh.n_nodes))

    @pytest.mark.parametrize("dim, N", [(1, 16), (1, 64), (2, 8), (2, 16)])
    def test_apply_matches_dense_solve(self, dim, N):
        rng = np.random.Generator(np.random.PCG64(37 + N))
        mesh = make_mesh(dim, N)
        n = mesh.n_nodes
        f = rng.uniform(0.5, 1.5, n)
        op = InversePotentialOperator(mesh, f=f)
        for _ in range(3):
            c = rng.uniform(-0.3, 1.5, n)
            expected = np.linalg.solve(*reference_system(mesh, c, f))
            assert norm(op.apply(c) - expected) <= 1e-12 * norm(expected)

    def test_rejects_mesh_past_direct_limit(self):
        mesh = make_mesh(2, 257)
        assert mesh.n_nodes > DIRECT_LIMIT
        with pytest.raises(SparseSolveError, match="DIRECT_LIMIT"):
            InversePotentialOperator(mesh)

