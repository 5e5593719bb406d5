"""Unit tests for the forward-operator contract and the noise model."""

import numpy as np
import pytest

from tgss.numkernel import ALIGN, dot, empty, gaussian_vector, norm
from tgss.operator import (
    DiagonalOperator,
    InvalidOperatorError,
    add_noise,
)


class TestAddNoise:
    def test_zero_delta_identity(self):
        y = np.array([1.0, 2.0, 3.0])
        data = add_noise(y, 0.0, 99)
        assert np.array_equal(data.y_delta, y)
        assert data.delta_eff == 0.0

    def test_determinism(self):
        y = np.linspace(0.0, 1.0, 20)
        a = add_noise(y, 1e-3, 5)
        b = add_noise(y, 1e-3, 5)
        assert np.array_equal(a.y_delta, b.y_delta)
        assert a.delta_eff == b.delta_eff

    def test_effective_level_matches_draw(self):
        y = np.zeros(256)
        data = add_noise(y, 1e-3, 42)
        n = gaussian_vector(256, 42)
        assert norm(data.y_delta - y) == pytest.approx(1e-3 * norm(n), rel=1e-12)
        assert data.delta_eff == pytest.approx(1e-3 * norm(n), rel=1e-12)

    @pytest.mark.parametrize("n, delta, seed", [(1, 0.5, 0), (13, 1e-3, 7), (20_000, 1e-4, 931)])
    def test_same_bits_as_y_plus_scaled_draw(self, n, delta, seed):
        y = np.random.Generator(np.random.PCG64(1)).standard_normal(n)
        noise = delta * np.random.Generator(np.random.PCG64(seed)).standard_normal(n)
        data = add_noise(y, delta, seed)
        assert data.y_delta.tobytes() == (y + noise).tobytes()
        assert np.float64(data.delta_eff).tobytes() == np.float64(norm(noise)).tobytes()

    @pytest.mark.parametrize("delta", [0.0, 1e-3])
    @pytest.mark.parametrize("y_aligned", [True, False])
    def test_y_delta_aligned_and_new(self, delta, y_aligned):
        buf = empty(14)
        y = buf[:13] if y_aligned else buf[1:]
        y[:] = np.linspace(-1.0, 1.0, 13)
        data = add_noise(y, delta, 3)
        assert data.y_delta.ctypes.data % ALIGN == 0
        assert not np.shares_memory(data.y_delta, y)

    def test_negative_delta_rejected(self):
        with pytest.raises(ValueError):
            add_noise(np.ones(3), -1.0, 0)

    @pytest.mark.parametrize("delta", [np.nan, np.inf, -np.inf])
    def test_non_finite_delta_rejected(self, delta):
        with pytest.raises(ValueError, match="finite"):
            add_noise(np.ones(3), delta, 0)

    def test_delta_used_modes(self):
        data = add_noise(np.zeros(10), 0.5, 1)
        assert data.delta_used("nominal") == 0.5
        assert data.delta_used("effective") == data.delta_eff
        with pytest.raises(ValueError):
            data.delta_used("bogus")


class TestDiagonalOperator:
    def test_identity_diagonal(self):
        op = DiagonalOperator(np.array([1.0, 1.0]))
        np.testing.assert_allclose(op.apply(np.array([3.0, 4.0])), [3.0, 4.0])

    def test_general_diagonal(self):
        op = DiagonalOperator(np.array([2.0, -3.0]))
        np.testing.assert_allclose(op.apply(np.array([1.0, 1.0])), [2.0, -3.0])
        assert op.c_F == 3.0
        assert not hasattr(op, "eta")   # eta is a SolverConfig field

    def test_zero_entry_rejected(self):
        with pytest.raises(InvalidOperatorError):
            DiagonalOperator(np.array([1.0, 0.0]))

    def test_adjoint_consistency(self):
        rng = np.random.Generator(np.random.PCG64(21))
        op = DiagonalOperator(rng.uniform(0.5, 2.0, 8))
        for _ in range(100):
            c, q, w = rng.standard_normal((3, 8))
            lhs = dot(op.derivative_apply(c, q), w)
            rhs = dot(q, op.adjoint_apply(c, w))
            assert abs(lhs - rhs) <= 1e-10 * max(norm(q) * norm(w), 1e-300)

    def test_linear_taylor_remainder_is_roundoff(self):
        rng = np.random.Generator(np.random.PCG64(22))
        op = DiagonalOperator(rng.uniform(0.5, 2.0, 6))
        c, q = rng.standard_normal((2, 6))
        for h in (1e-1, 1e-2, 1e-3, 1e-4):
            rem = norm(op.apply(c + h * q) - op.apply(c) - h * op.derivative_apply(c, q))
            assert rem <= 1e-12


def _operators():
    from tgss.invpot import InversePotentialOperator, make_mesh

    rng = np.random.Generator(np.random.PCG64(23))
    yield "diagonal", DiagonalOperator(rng.uniform(0.5, 2.0, 30))
    yield "invpot1d", InversePotentialOperator(make_mesh(1, 16))
    yield "invpot2d", InversePotentialOperator(make_mesh(2, 8))


class TestOutContract:
    @pytest.mark.parametrize("name,op", list(_operators()))
    def test_out_is_returned_and_matches_new_array(self, name, op):
        rng = np.random.Generator(np.random.PCG64(24))
        c = rng.uniform(0.5, 1.5, op.n)
        w = rng.standard_normal(op.m)
        expected_u = op.apply(c)
        expected_a = op.adjoint_apply(c, w)
        buf = np.full(op.n, np.nan)
        assert op.apply(c, out=buf) is buf
        assert buf.tobytes() == expected_u.tobytes()
        buf = np.full(op.n, np.nan)
        assert op.adjoint_apply(c, w, out=buf) is buf
        assert buf.tobytes() == expected_a.tobytes()

    def test_writing_into_returned_arrays_keeps_operator_cache(self):
        from tgss.invpot import InversePotentialOperator, make_mesh

        op = InversePotentialOperator(make_mesh(1, 16))
        c = np.ones(op.n)
        u = op.apply(c)
        expected = u.copy()
        u[:] = 0.0
        buf = op.apply(c, out=np.empty(op.n))
        np.testing.assert_array_equal(buf, expected)
        buf[:] = -1.0
        np.testing.assert_array_equal(op.apply(c), expected)
