"""Reference assembly of the inverse-potential matrices, for the tests.

Element matrices are summed through a COO matrix and converted to CSR,
written out independently of invpot.P1Pattern and of the band storage
the operator factorizes.  csr turns a pattern's offset pair (diagonal,
lower) into a CSR matrix to compare against.
"""

import numpy as np
import scipy.sparse as sp

from tgss.invpot import quadrature_weights


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


def reference_system(mesh, c, f):
    """Dense A(c) = K + M(c) and the load M(f) 1 of the state equation."""
    A = reference_stiffness(mesh) + reference_mass(mesh, c)
    return A.toarray(), reference_mass(mesh, f) @ np.ones(mesh.n_nodes)


def csr(pattern, diagonal, lower):
    """The symmetric matrix (diagonal, lower) of a P1Pattern as a CSR matrix."""
    offsets = pattern.offsets.tolist()
    bands = [lower[r, :pattern.n - d] for r, d in enumerate(offsets)]
    return sp.diags([diagonal, *bands, *bands], [0, *(-d for d in offsets), *offsets],
                    shape=(pattern.n, pattern.n), format="csr")


def assert_matrix_close(actual, expected, rtol=1e-14):
    actual, expected = actual.toarray(), expected.toarray()
    assert np.abs(actual - expected).max() <= rtol * np.abs(expected).max()
