"""Property test of the adjoint identity of the inverse-potential operator.

For random meshes, coefficients and directions the derivative and the
adjoint must satisfy <F'(c) q, w> = <q, F'(c)* w> to round-off.  A
coefficient for which the band Cholesky rejects A(c) must give a matrix
that is indefinite or singular to round-off.  Both factor paths are
checked: the compiled kernel, and dpbtrf with numkernel._band_cholesky
set to None, as on a host where the kernel did not build.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from reference import reference_system
from tgss import numkernel
from tgss.invpot import InversePotentialOperator, make_mesh
from tgss.numkernel import SparseSolveError, dot, norm


@st.composite
def adjoint_problems(draw):
    dim = draw(st.sampled_from((1, 2)))
    mesh = make_mesh(dim, draw(st.integers(2, 24)))
    n = mesh.n_nodes
    c = draw(arrays(np.float64, n, elements=st.floats(-0.3, 1.5)))
    rng = np.random.Generator(np.random.PCG64(draw(st.integers(0, 2 ** 32 - 1))))
    q, w = rng.standard_normal((2, n))
    return mesh, c, q, w


@pytest.mark.parametrize("path", ["kernel", "dpbtrf"])
@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(problem=adjoint_problems())
def test_adjoint_identity(path, problem):
    mesh, c, q, w = problem
    kernel = numkernel._band_cholesky if path == "kernel" else None
    with mock.patch.object(numkernel, "_band_cholesky", kernel):
        op = InversePotentialOperator(mesh)
        try:
            dq = op.derivative_apply(c, q)
        except SparseSolveError:
            eig = np.linalg.eigvalsh(reference_system(mesh, c, c)[0])
            assert eig.min() <= 1e-12 * np.abs(eig).max()
            return
        lhs = dot(dq, w)
        rhs = dot(q, op.adjoint_apply(c, w))
    assert abs(lhs - rhs) <= 1e-12 * norm(dq) * norm(w)
