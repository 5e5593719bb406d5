"""Property tests of the offset-form kernels on invpot.P1Pattern.

On generated 1-D and 2-D meshes and weights with negative entries,
weighted_mass(pattern, w) must give the COO reference assembly's M(w),
and matvec must give the product of the same matrix as a scipy CSR
matrix, for M(w) and for the state matrix K + M(w).  Both must also give the same
bits as the edge form kept here as the reference, a gather and a
bincount over the directed edges in row-major order, from the
pattern's own `edge` (g and beta): the offset form adds the same products in
the same order.  The three properties run on both paths of weighted_mass
and matvec, the compiled kernels and the numpy forms, and the two paths
must give the same bits.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from reference import assert_matrix_close, csr, invpot_path, reference_mass
from tgss import numkernel
from tgss.invpot import P1Pattern, make_mesh, weighted_mass

# The `path` fixture sets the path once per test, the same for all its examples.
SETTINGS = settings(max_examples=100, deadline=None, derandomize=True, database=None,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])


@pytest.fixture(params=["compiled", "numpy"])
def path(request):
    with invpot_path(request.param):
        yield request.param


@st.composite
def weighted_meshes(draw):
    mesh = make_mesh(draw(st.sampled_from((1, 2))), draw(st.integers(2, 24)))
    n = mesh.n_nodes
    w = draw(arrays(np.float64, n, elements=st.floats(-2.0, 2.0)))
    x = draw(arrays(np.float64, n, elements=st.floats(-10.0, 10.0)))
    return mesh, w, x


def edge_form(pattern):
    """(heads, tails, (r, p) of each lower edge) of the directed edge list.

    The strict-lower edges (p + d, p) in row-major order, then the same
    edges reversed.
    """
    r, p = np.nonzero(pattern.edge[1:])
    rows = p + pattern.offsets[r]
    order = np.lexsort((p, rows))
    r, p, rows = r[order], p[order], rows[order]
    return np.concatenate([rows, p]), np.concatenate([p, rows]), (r, p)


def edge_mass(pattern, w):
    heads, tails, lower_edges = edge_form(pattern)
    weighted = np.tile(pattern.edge[1:][lower_edges], 2) * w[tails]
    M = np.zeros_like(pattern.edge)
    M[0] = pattern.edge[0] * w + np.bincount(heads, weights=weighted, minlength=pattern.n)
    E = heads.size // 2
    M[1:][lower_edges] = weighted[:E] + weighted[E:]
    return M


def edge_matvec(pattern, A, x):
    heads, tails, lower_edges = edge_form(pattern)
    off = np.tile(A[1:][lower_edges], 2) * x[tails]
    return A[0] * x + np.bincount(heads, weights=off, minlength=pattern.n)


@SETTINGS
@given(weighted_meshes())
def test_same_bits_as_edge_form(path, problem):
    mesh, w, x = problem
    pattern = P1Pattern(mesh)
    M = weighted_mass(pattern, w)
    assert np.array_equal(M, edge_mass(pattern, w))
    assert np.array_equal(pattern.matvec(M, x), edge_matvec(pattern, M, x))


@SETTINGS
@given(weighted_meshes())
def test_mass_data_matches_reference(path, problem):
    mesh, w, _ = problem
    pattern = P1Pattern(mesh)
    M = weighted_mass(pattern, w)
    assert M.shape == (pattern.offsets.size + 1, mesh.n_nodes) and M.flags.c_contiguous
    assert_matrix_close(csr(pattern, M), reference_mass(mesh, w))


@SETTINGS
@given(weighted_meshes())
def test_matvec_matches_csr_product(path, problem):
    mesh, w, x = problem
    pattern = P1Pattern(mesh)
    M = weighted_mass(pattern, w)
    for matrix in (M, pattern.K + M):
        A = csr(pattern, matrix)
        out = np.full(mesh.n_nodes, np.nan)
        assert pattern.matvec(matrix, x, out=out) is out
        scale = (abs(A) @ np.abs(x)).max()
        assert np.abs(out - A @ x).max() <= 1e-14 * scale


def bits_of_both_paths(pattern, w, x):
    """The bytes of M(w) and of M(w) x, compiled and numpy."""
    def results():
        M = weighted_mass(pattern, w)
        return [M.tobytes(), pattern.matvec(M, x).tobytes()]
    compiled = results()
    with invpot_path("numpy"):
        return compiled, results()


@pytest.mark.skipif(numkernel._matvec is None, reason="needs the compiled kernels")
@SETTINGS
@given(weighted_meshes())
def test_compiled_and_numpy_forms_give_the_same_bits(problem):
    mesh, w, x = problem
    w = w.copy()
    w[::3] = -np.abs(w[::3]) - 0.5          # negative entries on every mesh
    compiled, numpy_form = bits_of_both_paths(P1Pattern(mesh), w, x)
    assert compiled == numpy_form


@pytest.mark.skipif(numkernel._matvec is None, reason="needs the compiled kernels")
@pytest.mark.parametrize("dim, N", [(1, 6), (2, 5)])
def test_signed_zeros_give_the_numpy_bits(dim, N):
    # Products with -0.0, and the +0.0 that every sum starts from.
    pattern = P1Pattern(make_mesh(dim, N))
    for w in (np.full(pattern.n, -0.0), np.where(np.arange(pattern.n) % 2, -0.0, 1.5)):
        compiled, numpy_form = bits_of_both_paths(pattern, w, -w)
        assert compiled == numpy_form
