"""Property tests of the offset-form kernels on invpot.P1Pattern.

On generated 1-D and 2-D meshes and weights with negative entries,
weighted_mass(pattern, w) must give the COO reference assembly's M(w),
and matvec must give the product of the same matrix as a scipy CSR
matrix, for M(w) and for the state matrix K + M(w).  Both must also give the same
bits as the edge form kept here as the reference, a gather and a
bincount over the directed edges in row-major order, from the
pattern's own beta and g: the offset form adds the same products in
the same order.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from reference import assert_matrix_close, csr, reference_mass
from tgss.invpot import P1Pattern, make_mesh, weighted_mass

SETTINGS = settings(max_examples=100, deadline=None, derandomize=True, database=None)


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
    r, p = np.nonzero(pattern.beta)
    rows = p + pattern.offsets[r]
    order = np.lexsort((p, rows))
    r, p, rows = r[order], p[order], rows[order]
    return np.concatenate([rows, p]), np.concatenate([p, rows]), (r, p)


def edge_mass_data(pattern, w):
    heads, tails, lower_edges = edge_form(pattern)
    weighted = np.tile(pattern.beta[lower_edges], 2) * w[tails]
    diagonal = pattern.g * w + np.bincount(heads, weights=weighted, minlength=pattern.n)
    lower = np.zeros_like(pattern.beta)
    E = heads.size // 2
    lower[lower_edges] = weighted[:E] + weighted[E:]
    return diagonal, lower


def edge_matvec(pattern, diagonal, lower, x):
    heads, tails, lower_edges = edge_form(pattern)
    off = np.tile(lower[lower_edges], 2) * x[tails]
    return diagonal * x + np.bincount(heads, weights=off, minlength=pattern.n)


@SETTINGS
@given(weighted_meshes())
def test_same_bits_as_edge_form(problem):
    mesh, w, x = problem
    pattern = P1Pattern(mesh)
    diagonal, lower = weighted_mass(pattern, w)
    expected_diagonal, expected_lower = edge_mass_data(pattern, w)
    assert np.array_equal(diagonal, expected_diagonal)
    assert np.array_equal(lower, expected_lower)
    assert np.array_equal(pattern.matvec(diagonal, lower, x),
                          edge_matvec(pattern, diagonal, lower, x))


@SETTINGS
@given(weighted_meshes())
def test_mass_data_matches_reference(problem):
    mesh, w, _ = problem
    pattern = P1Pattern(mesh)
    diagonal, lower = weighted_mass(pattern, w)
    assert lower.shape == (pattern.offsets.size, mesh.n_nodes)
    assert_matrix_close(csr(pattern, diagonal, lower), reference_mass(mesh, w))


@SETTINGS
@given(weighted_meshes())
def test_matvec_matches_csr_product(problem):
    mesh, w, x = problem
    pattern = P1Pattern(mesh)
    diagonal, lower = weighted_mass(pattern, w)
    for pair in ((diagonal, lower),
                 (pattern.K_diagonal + diagonal, pattern.K_lower + lower)):
        A = csr(pattern, *pair)
        out = np.full(mesh.n_nodes, np.nan)
        assert pattern.matvec(*pair, x, out=out) is out
        scale = (abs(A) @ np.abs(x)).max()
        assert np.abs(out - A @ x).max() <= 1e-14 * scale
