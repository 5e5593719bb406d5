"""Unit tests for the iterative methods and their shared machinery."""

import math
import tracemalloc

import numpy as np
import pytest

from reference import Stripe, ring_of
from tgss import solvers
from tgss.geometry import InvalidStripeError, sequential_stripe_projection
from tgss.numkernel import ALIGN, DimensionError, dot, norm
from tgss.operator import DiagonalOperator, add_noise
from tgss.solvers import (
    METHOD_TABLE,
    METHODS,
    ConfigError,
    DivergenceError,
    InvariantViolationError,
    IterationState,
    SolverConfig,
    build_stripe,
    coupling_holds,
    dbts_select,
    discrepancy_met,
    lambda_coupling,
    lambda_nesterov,
    psi,
    run,
)


def coupling_scale(cfg):
    """psi^2 / (mu c_F^2), as `run` computes it for the coupling condition."""
    return psi(cfg) ** 2 / (cfg.mu * cfg.c_F ** 2)


class TestSolverConfig:
    def test_defaults_valid(self):
        cfg = SolverConfig()
        assert cfg.tau == 2.8 and cfg.eta == 0.1

    @pytest.mark.parametrize("kwargs", [
        {"eta": -0.1}, {"eta": 1.0},
        {"eta": 0.1, "tau": 1.1 / 0.9},            # boundary tau rejected
        {"tau": 1.0},
        {"mu": 1.0}, {"c_F": 0.0},
        {"nesterov_alpha": 2.0},
        {"q_scale": 0.0}, {"q_power": 1.0},
        {"j_max": 0}, {"n_directions": 0}, {"max_iters": -1},
        # tau exceeds (1+eta)/(1-eta), but psi rounds to 0
        {"eta": 0.29671477163201093, "tau": 1.843796399138237},
        {"i0": -1}, {"i0": -5},
        # int fields take an int or a numpy integer, not a float or a bool
        {"max_iters": 1e4}, {"n_directions": 2.0}, {"i0": 2.5}, {"j_max": True},
        {"n_directions": np.float64(2.0)}, {"max_iters": "10"},
        *({name: value} for name in ("tau", "mu", "c_F", "nesterov_alpha", "q_scale",
                                     "q_power") for value in (math.inf, math.nan)),
    ])
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            SolverConfig(**kwargs)

    def test_numpy_integers_accepted(self):
        cfg = SolverConfig(max_iters=np.int64(10), n_directions=np.int32(3))
        assert (cfg.max_iters, cfg.n_directions) == (10, 3)

    def test_backtracking_schedule(self):
        cfg = SolverConfig(q_scale=4.0, q_power=1.1)
        assert cfg.q(1) == 4.0
        assert cfg.q(2) == pytest.approx(4.0 / 2 ** 1.1)
        assert cfg.q(2) > cfg.q(3)


class TestPsi:
    def test_default_parameters(self):
        assert psi(SolverConfig(eta=0.1, tau=2.8)) == pytest.approx(
            0.9 - 1.1 / 2.8, rel=1e-12
        )

    def test_linear_case(self):
        assert psi(SolverConfig(eta=0.0, tau=2.0)) == pytest.approx(0.5)


class TestDiscrepancy:
    def test_arithmetic(self):
        cfg = SolverConfig(tau=2.8)
        assert not discrepancy_met(0.5, cfg, 0.1)   # 0.5 > 0.28
        assert discrepancy_met(0.2, cfg, 0.1)       # 0.2 <= 0.28

    def test_exact_data_floor(self):
        cfg = SolverConfig()
        assert discrepancy_met(0.0, cfg, 0.0)
        assert discrepancy_met(1e-13, cfg, 0.0)
        assert not discrepancy_met(1e-6, cfg, 0.0)


class TestLambdaRules:
    def test_nesterov_starts_at_zero(self):
        assert lambda_nesterov(0, 3.0) == 0.0
        assert lambda_nesterov(1, 3.0) == 0.0

    def test_nesterov_value(self):
        assert lambda_nesterov(10, 3.0) == pytest.approx(0.75)

    def test_nesterov_below_one(self):
        for k in (10, 1000, 10 ** 6):
            assert 0.0 <= lambda_nesterov(k, 3.0) < 1.0

    def test_coupling_zero_displacement(self):
        cfg = SolverConfig()
        assert lambda_coupling(0.0, 5, 1e-3, cfg) == pytest.approx(5.0 / 8.0)

    def test_coupling_exact_data_gives_zero(self):
        cfg = SolverConfig()
        assert lambda_coupling(1.0, 100, 0.0, cfg) == pytest.approx(0.0, abs=1e-15)

    def test_coupling_formula_value(self):
        cfg = SolverConfig(eta=0.0, tau=2.0, mu=1.01, c_F=1.0)
        # psi * tau * delta = 1 when delta = 1 (psi = 0.5, tau = 2)
        lam = lambda_coupling(1.0, 10 ** 6, 1.0, cfg)
        expected = math.sqrt(1.0 / 1.01 + 0.25) - 0.5
        assert lam == pytest.approx(expected, rel=1e-12)
        # the returned weight satisfies the coupling condition at the
        # stopping threshold residual tau * delta
        assert coupling_holds(lam, 1.0, cfg.tau * 1.0, coupling_scale(cfg))

    def test_coupling_capped_by_momentum_schedule(self):
        cfg = SolverConfig(eta=0.0, tau=2.0, mu=1.01, c_F=1.0)
        assert lambda_coupling(1e-9, 1, 1.0, cfg) == pytest.approx(0.25)


class TestBuildStripe:
    def test_hand_example(self):
        op = DiagonalOperator(np.array([1.0, 1.0]))
        data = add_noise(np.array([1.0, 0.0]), 0.0, 0)
        cfg = SolverConfig(eta=0.1, tau=2.8)
        rec = build_stripe(op, np.zeros(2), data, cfg)
        np.testing.assert_allclose(rec.u, [-1.0, 0.0])
        assert rec.alpha == pytest.approx(-1.0)
        assert rec.xi == pytest.approx(0.1)   # eta * ||r||^2 with delta 0
        assert rec.r_norm == pytest.approx(1.0)

    def test_residual_reuse(self):
        rng = np.random.Generator(np.random.PCG64(41))
        op = DiagonalOperator(rng.uniform(0.5, 1.5, 5))
        data = add_noise(rng.standard_normal(5), 1e-2, 3)
        cfg = SolverConfig()
        z = rng.standard_normal(5)
        r = op.apply(z) - data.y_delta
        a = build_stripe(op, z, data, cfg)
        b = build_stripe(op, z, data, cfg, r=r)
        np.testing.assert_allclose(a.u, b.u)
        assert a.alpha == b.alpha and a.xi == b.xi

    def test_residual_norm_reuse(self, monkeypatch):
        rng = np.random.Generator(np.random.PCG64(43))
        op = DiagonalOperator(rng.uniform(0.5, 1.5, 5))
        data = add_noise(rng.standard_normal(5), 1e-2, 3)
        cfg = SolverConfig()
        z = rng.standard_normal(5)
        r = op.apply(z) - data.y_delta
        a = build_stripe(op, z, data, cfg, r=r)
        calls = []
        monkeypatch.setattr(solvers, "norm", lambda x: calls.append(x) or norm(x))
        b = build_stripe(op, z, data, cfg, r=r, r_norm=a.r_norm)
        assert calls == []
        np.testing.assert_array_equal(a.u, b.u)
        assert (a.r_norm, a.alpha, a.xi) == (b.r_norm, b.alpha, b.xi)

    def test_solution_inside_stripe_linear_exact(self):
        # For a linear operator with zero cone constant and exact data the
        # true solution lies inside every constructed stripe.
        rng = np.random.Generator(np.random.PCG64(42))
        cfg = SolverConfig(eta=0.0, tau=2.0)
        for _ in range(100):
            n = int(rng.integers(2, 10))
            op = DiagonalOperator(rng.uniform(0.2, 1.5, n))
            truth = rng.standard_normal(n)
            data = add_noise(op.apply(truth), 0.0, 0)
            z = truth + rng.standard_normal(n)
            rec = build_stripe(op, z, data, cfg)
            if norm(rec.u) == 0.0:
                continue
            slack = abs(dot(rec.u, truth) - rec.alpha) - rec.xi
            assert slack <= 1e-12 * max(1.0, abs(rec.alpha))


class TestDbtsSelect:
    def _state(self, x_prev, x_cur, k, i0=2):
        x_prev = np.asarray(x_prev, dtype=float)
        x_cur = np.asarray(x_cur, dtype=float)
        return IterationState(x_prev=x_prev, x_cur=x_cur, z_cur=x_cur.copy(),
                              k=k, i_dbts=i0)

    def test_candidate_weight_value(self):
        # q(i) = 4 / i^1.1 at i = 3 with unit displacement exceeds the
        # momentum cap 1/4, so the cap wins at k = 1.
        op = DiagonalOperator(np.array([0.1, 0.1]))
        truth = np.array([5.0, 5.0])
        data = add_noise(op.apply(truth), 1e-4, 0)
        cfg = SolverConfig(eta=0.0, tau=2.0, c_F=0.1, q_scale=4.0, q_power=1.1,
                           j_max=1, i0=2)
        state = self._state([0.0, 0.0], [1.0, 0.0], k=1)
        lam, i_k, z, r, rn = dbts_select(state, op, data, cfg, coupling_scale(cfg))
        assert lam == pytest.approx(0.25)
        assert i_k == 3
        np.testing.assert_allclose(z, [1.25, 0.0])
        assert rn == pytest.approx(norm(op.apply(z) - data.y_delta), rel=1e-14)

    def test_zero_displacement_uses_momentum_cap(self):
        op = DiagonalOperator(np.array([0.1, 0.1]))
        data = add_noise(np.array([5.0, 5.0]), 1e-4, 0)
        cfg = SolverConfig(eta=0.0, tau=2.0, c_F=0.1)
        state = self._state([1.0, 1.0], [1.0, 1.0], k=4)
        lam, _, z, _, _ = dbts_select(state, op, data, cfg, coupling_scale(cfg))
        assert lam == pytest.approx(4.0 / 7.0)
        np.testing.assert_allclose(z, [1.0, 1.0])

    def test_state_without_momentum_difference_swaps_only(self):
        x_prev, x_cur = np.array([0.0, 1.0]), np.array([3.0, 5.0])
        state = IterationState(x_prev=x_prev, x_cur=x_cur, z_cur=x_cur.copy(),
                               keep_dx=False)
        x_next = np.array([4.0, 4.0])
        state.advance(x_next)
        assert state.dx is None and state.dx_norm == 0.0
        assert state.x_prev is x_cur and state.x_cur is x_next

    def test_state_keeps_momentum_difference(self):
        state = self._state([0.0, 1.0], [3.0, 5.0], k=1)
        np.testing.assert_array_equal(state.dx, [3.0, 4.0])
        assert state.dx_norm == 5.0
        state.advance(np.array([3.0, 5.0]))
        np.testing.assert_array_equal(state.x_prev, [3.0, 5.0])
        np.testing.assert_array_equal(state.dx, [0.0, 0.0])
        assert state.dx_norm == 0.0

    def test_fallback_when_all_candidates_fail(self):
        # A huge displacement with a tiny residual scale makes the coupling
        # condition fail for every candidate, forcing the closed-form
        # fallback weight and a counter advance of j_max.
        op = DiagonalOperator(np.array([0.01, 0.01]))
        data = add_noise(np.array([0.0, 0.0]), 1e-12, 0)
        cfg = SolverConfig(eta=0.0, tau=2.0, c_F=1.0, j_max=2, i0=2,
                           q_scale=4.0, q_power=1.1)
        state = self._state([0.0, 0.0], [100.0, 0.0], k=5)
        lam, i_k, _, _, _ = dbts_select(state, op, data, cfg, coupling_scale(cfg))
        assert i_k == 2 + cfg.j_max
        assert lam == pytest.approx(
            lambda_coupling(100.0, 5, data.delta_eff, cfg), rel=1e-12
        )


class TestRun:
    @pytest.mark.parametrize("method", ["land", "tgss-nes"])
    def test_discrepancy_test_called_once_per_iteration(self, method, monkeypatch):
        # The benchmark's host-speed probe hooks solvers.discrepancy_met by
        # name and counts on one call per iteration.
        rng = np.random.Generator(np.random.PCG64(47))
        n = 200
        op = DiagonalOperator(rng.uniform(0.1, 1.0, n))
        truth = rng.standard_normal(n)
        data = add_noise(op.apply(truth), 1e-2 / math.sqrt(n), 0)
        calls = []
        monkeypatch.setattr(solvers, "discrepancy_met",
                            lambda *args: calls.append(args) or discrepancy_met(*args))
        res = run(method, op, data, np.zeros(n), SolverConfig())
        assert res.stopped_by == "discrepancy" and res.k_star > 0
        assert len(calls) == res.k_star + 1

    def test_one_step_exact_solve_all_methods(self):
        op = DiagonalOperator(np.array([1.0, 1.0, 1.0]))
        y = np.array([2.0, -1.0, 0.5])
        data = add_noise(y, 0.0, 0)
        cfg = SolverConfig(eta=0.0, tau=2.0, c_F=1.0, max_iters=100)
        for method in METHODS:
            res = run(method, op, data, np.zeros(3), cfg)
            assert res.k_star == 1, method
            assert res.stopped_by == "residual_zero", method
            np.testing.assert_allclose(res.x_final, y, atol=1e-12)

    def test_max_iters_zero_returns_start(self):
        op = DiagonalOperator(np.array([1.0, 1.0]))
        data = add_noise(np.array([1.0, 1.0]), 0.0, 0)
        cfg = SolverConfig(eta=0.0, tau=2.0, c_F=1.0, max_iters=0)
        x0 = np.array([5.0, 5.0])
        res = run("land", op, data, x0, cfg)
        assert res.stopped_by == "max_iters"
        np.testing.assert_allclose(res.x_final, x0)

    def test_landweber_hand_step(self):
        # d = (2, 0.5), y = 0, x = (1, 1): x - d*(d*x) = (-3, 0.75)
        op = DiagonalOperator(np.array([2.0, 0.5]))
        data = add_noise(np.zeros(2), 0.0, 0)
        cfg = SolverConfig(eta=0.0, tau=2.0, c_F=2.0, max_iters=1)
        res = run("land", op, data, np.array([1.0, 1.0]), cfg)
        np.testing.assert_allclose(res.x_final, [-3.0, 0.75])

    def test_projection_hand_step(self):
        # Identity operator, y = 0, x = (1, 0): the residual stripe is the
        # hyperplane <(1,0), x> = 0 and one projection solves the problem.
        op = DiagonalOperator(np.array([1.0, 1.0]))
        data = add_noise(np.zeros(2), 0.0, 0)
        cfg = SolverConfig(eta=0.0, tau=2.0, c_F=1.0, max_iters=10,
                           n_directions=1)
        res = run("sesop", op, data, np.array([1.0, 0.0]), cfg)
        assert res.k_star == 1
        np.testing.assert_allclose(res.x_final, [0.0, 0.0], atol=1e-12)

    def test_extrapolated_stripe_projection_hand_example(self):
        # At z = (0.5, 0.5) with identity operator and y = 0 the stripe is
        # the hyperplane through the origin orthogonal to z; projecting z
        # onto it gives the exact solution.
        op = DiagonalOperator(np.array([1.0, 1.0]))
        data = add_noise(np.zeros(2), 0.0, 0)
        cfg = SolverConfig(eta=0.0, tau=2.0, c_F=1.0)
        z = np.array([0.5, 0.5])
        rec = build_stripe(op, z, data, cfg)
        np.testing.assert_allclose(rec.u, z)
        assert rec.alpha == pytest.approx(0.0)
        assert rec.xi == 0.0
        proj = sequential_stripe_projection(z, ring_of([Stripe(rec.u, rec.alpha, rec.xi)]))
        np.testing.assert_allclose(proj.point, [0.0, 0.0], atol=1e-15)

    def test_momentum_reduction_to_plain_gradient(self):
        rng = np.random.Generator(np.random.PCG64(43))
        op = DiagonalOperator(rng.uniform(0.2, 1.0, 8))
        truth = rng.standard_normal(8)
        data = add_noise(op.apply(truth), 1e-3, 1)
        cfg = SolverConfig(eta=0.0, tau=2.0, c_F=1.0, max_iters=5000)
        a = run("tpg-zero", op, data, np.zeros(8), cfg)
        b = run("land", op, data, np.zeros(8), cfg)
        assert a.k_star == b.k_star
        assert norm(a.x_final - b.x_final) <= 1e-12

    def test_explicit_zero_momentum_ignores_config_rule(self):
        rng = np.random.Generator(np.random.PCG64(43))
        op = DiagonalOperator(rng.uniform(0.2, 1.0, 8))
        truth = rng.standard_normal(8)
        data = add_noise(op.apply(truth), 1e-3, 1)
        cfg = SolverConfig(eta=0.0, tau=2.0, c_F=1.0, max_iters=5000)
        for method, plain in (("tpg-zero", "land"), ("tgss-zero", "sesop")):
            a = run(method, op, data, np.zeros(8), cfg)
            b = run(plain, op, data, np.zeros(8), cfg)
            assert all(row.lam == 0.0 for row in a.trace), method
            assert a.k_star == b.k_star, method

    def test_all_methods_stop_by_discrepancy_on_noisy_linear_problem(self):
        rng = np.random.Generator(np.random.PCG64(44))
        op = DiagonalOperator(rng.uniform(0.1, 1.0, 20))
        truth = rng.standard_normal(20)
        data = add_noise(op.apply(truth), 1e-3, 2)
        cfg = SolverConfig(eta=0.0, tau=2.0, c_F=op.c_F, max_iters=20000)
        k_land = None
        for method in METHODS:
            res = run(method, op, data, np.zeros(20), cfg, truth=truth)
            assert res.stopped_by == "discrepancy", method
            rn = norm(op.apply(res.x_final) - data.y_delta)
            assert rn <= cfg.tau * data.delta_eff
            if method == "land":
                k_land = res.k_star
            elif method == "tgss-nes":
                assert res.k_star <= k_land

    def test_iterate_feasibility_trace(self):
        rng = np.random.Generator(np.random.PCG64(45))
        op = DiagonalOperator(rng.uniform(0.1, 1.0, 15))
        truth = rng.standard_normal(15)
        data = add_noise(op.apply(truth), 1e-3, 5)
        cfg = SolverConfig(eta=0.0, tau=2.0, c_F=op.c_F, max_iters=20000)
        for method in ("sesop", "tgss-nes", "tgss-dbts"):
            res = run(method, op, data, np.zeros(15), cfg)
            for row in res.trace:
                assert row.containment_slack is not None
                assert row.containment_slack <= 1e-9, (method, row.k)

    def test_monotone_error_with_coupling_weights(self):
        rng = np.random.Generator(np.random.PCG64(46))
        op = DiagonalOperator(rng.uniform(0.1, 1.0, 15))
        truth = rng.standard_normal(15)
        data = add_noise(op.apply(truth), 1e-3, 7)
        cfg = SolverConfig(eta=0.0, tau=2.0, c_F=op.c_F, max_iters=20000)
        tol = 1e-12 * norm(truth)
        for method in ("tpg-coupling", "tgss-coupling", "tpg-dbts", "tgss-dbts"):
            res = run(method, op, data, np.zeros(15), cfg, truth=truth)
            errs = [norm(np.zeros(15) - truth)] + [row.err for row in res.trace]
            for prev, cur in zip(errs, errs[1:]):
                assert cur <= prev + tol, method

    def test_unknown_method_rejected(self):
        op = DiagonalOperator(np.array([1.0]))
        data = add_noise(np.array([1.0]), 0.0, 0)
        with pytest.raises(ConfigError):
            run("bogus", op, data, np.zeros(1), SolverConfig(eta=0.0, tau=2.0))

    @pytest.mark.parametrize("wrong", ["x0", "y_delta", "truth"])
    def test_shape_mismatch_rejected_before_the_first_apply(self, wrong):
        # Each of these broadcasts against 8 unknowns if it is not checked.
        class Counting(DiagonalOperator):
            calls = 0

            def apply(self, c, out=None):
                Counting.calls += 1
                return super().apply(c, out=out)

        op = Counting(np.linspace(0.2, 1.0, 8))
        truth = np.ones(8)
        data = add_noise(op.apply(truth), 1e-2, 0)
        Counting.calls = 0
        x0 = np.zeros(8)
        if wrong == "x0":
            x0 = np.zeros(7)
        elif wrong == "y_delta":
            data = add_noise(data.y_delta[:1], 1e-2, 0)
        else:
            truth = truth[:1]
        cfg = SolverConfig(eta=0.0, tau=2.0, c_F=1.0)
        with pytest.raises(DimensionError, match=wrong):
            run("tgss-nes", op, data, x0, cfg, truth=truth)
        assert Counting.calls == 0

    def test_trace_csv_rows(self):
        op = DiagonalOperator(np.array([0.5, 0.8]))
        truth = np.array([1.0, -2.0])
        data = add_noise(op.apply(truth), 1e-2, 0)
        cfg = SolverConfig(eta=0.0, tau=2.0, c_F=1.0, max_iters=5000)
        res = run("sesop", op, data, np.zeros(2), cfg, truth=truth)
        rows = res.trace_csv_rows()
        assert rows[0] == (
            "k,residual_norm,lambda,n_dirs_used,re,coupling_slack,containment_slack"
        )
        assert len(rows) == len(res.trace) + 1
        assert rows[1].startswith("0,")

    def test_trace_csv_fields_parse_as_floats(self):
        # A numpy scalar in a TraceRow would be written as "np.float64(...)".
        rng = np.random.Generator(np.random.PCG64(47))
        op = DiagonalOperator(rng.uniform(0.1, 1.0, 12))
        truth = rng.standard_normal(12)
        data = add_noise(op.apply(truth), 1e-2, 3)
        cfg = SolverConfig(eta=0.0, tau=2.0, c_F=op.c_F, max_iters=5000)
        for method in METHODS:
            res = run(method, op, data, np.zeros(12), cfg, truth=truth)
            for row in res.trace:
                for name in ("residual_norm", "lam", "re", "coupling_slack",
                             "containment_slack", "err"):
                    value = getattr(row, name)
                    assert value is None or type(value) is float, (method, name)
            for line in res.trace_csv_rows()[1:]:
                for field in line.split(","):
                    if field:
                        float(field)

    def test_zero_search_direction_raises_invariant_violation(self):
        class ZeroAdjoint(DiagonalOperator):
            def adjoint_apply(self, c, w, out=None):
                return np.zeros(self.n)

        op = ZeroAdjoint(np.array([0.5, 0.8]))
        data = add_noise(op.apply(np.array([1.0, -2.0])), 1e-3, 0)
        cfg = SolverConfig(eta=0.0, tau=2.0, c_F=1.0)
        with pytest.raises(InvariantViolationError,
                           match="zero search direction at k=0") as info:
            run("sesop", op, data, np.zeros(2), cfg)
        assert isinstance(info.value.__cause__, InvalidStripeError)

    def test_zero_direction_built_in_the_ring_raises_invariant_violation(self):
        class ZeroAdjointInPlace(DiagonalOperator):
            def adjoint_apply(self, c, w, out=None):
                out[:] = 0.0
                return out

        op = ZeroAdjointInPlace(np.array([0.5, 0.8]))
        data = add_noise(op.apply(np.array([1.0, -2.0])), 1e-3, 0)
        cfg = SolverConfig(eta=0.0, tau=2.0, c_F=1.0)
        with pytest.raises(InvariantViolationError,
                           match="zero search direction at k=0") as info:
            run("tgss-nes", op, data, np.zeros(2), cfg)
        assert isinstance(info.value.__cause__, InvalidStripeError)

    @pytest.mark.parametrize("method", ["sesop", "tgss-nes", "tgss-dbts"])
    def test_nan_search_direction_raises_divergence(self, method):
        # The direction's squared norm is already the ring's newest Gram
        # entry; a NaN there stops the run naming k, before the projection.
        class NanAdjoint(DiagonalOperator):
            def adjoint_apply(self, c, w, out=None):
                out = super().adjoint_apply(c, w, out=out)
                out[0] = np.nan
                return out

        op = NanAdjoint(np.array([0.5, 0.8]))
        data = add_noise(op.apply(np.array([1.0, -2.0])), 1e-3, 0)
        cfg = SolverConfig(eta=0.0, tau=2.0, c_F=1.0)
        with pytest.raises(DivergenceError,
                           match=r"search direction norm\^2 nan is not finite at k=0"):
            run(method, op, data, np.zeros(2), cfg)


class TestOperatorContract:
    @pytest.mark.parametrize("n_directions", [1, 2, 3])
    @pytest.mark.parametrize("method", ["sesop", "tgss-nes", "tgss-dbts"])
    def test_adjoint_that_ignores_out_gives_the_same_run(self, method, n_directions):
        # An operator may return a new array instead of writing into `out`;
        # build_stripe then copies the direction into the ring's slot.
        class FreshAdjoint(DiagonalOperator):
            def adjoint_apply(self, c, w, out=None):
                return super().adjoint_apply(c, w)

        rng = np.random.Generator(np.random.PCG64(53))
        d = rng.uniform(0.1, 1.0, 40)
        truth = rng.standard_normal(40)
        data = add_noise(d * truth, 1e-3, 5)
        cfg = SolverConfig(eta=0.0, tau=2.0, c_F=1.0, n_directions=n_directions)
        a, b = (run(method, cls(d), data, np.zeros(40), cfg, truth=truth,
                    record_points=True) for cls in (DiagonalOperator, FreshAdjoint))
        assert (a.k_star, a.stopped_by) == (b.k_star, b.stopped_by)
        assert a.k_star > n_directions
        assert a.x_final.tobytes() == b.x_final.tobytes()
        assert len(a.trace) == len(b.trace)
        for row_a, row_b in zip(a.trace, b.trace):
            for name in ("x_tilde", "z"):
                assert getattr(row_a, name).tobytes() == getattr(row_b, name).tobytes()
                setattr(row_a, name, None)
                setattr(row_b, name, None)
            assert repr(row_a) == repr(row_b)


class TestDivergence:
    def test_diverging_landweber_raises_at_first_non_finite_residual(self):
        # A unit gradient step on d = 3 multiplies the error by 1 - 9 = -8
        # per iteration, so the residual norm overflows after some 170 steps.
        op = DiagonalOperator(np.full(50, 3.0))
        data = add_noise(op.apply(np.ones(50)), 1e-3, 0)
        cfg = SolverConfig(eta=0.0, tau=2.0, c_F=3.0, max_iters=1000)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergenceError,
                               match=r"residual norm (inf|nan) is not finite at k=\d+"):
                run("land", op, data, np.zeros(50), cfg)


class AllocationProbe(DiagonalOperator):
    """Records, at each apply, how far the traced memory peak rose above
    the memory in use at the previous apply."""

    def __init__(self, d):
        super().__init__(d)
        self.rises = []
        self._base = None

    def _mark(self):
        current, peak = tracemalloc.get_traced_memory()
        if self._base is not None:
            self.rises.append(peak - self._base)
        tracemalloc.reset_peak()
        self._base = current

    def apply(self, c, out=None):
        self._mark()
        return super().apply(c, out=out)

    def adjoint_apply(self, c, w, out=None):
        self._mark()
        return super().adjoint_apply(c, w, out=out)


class TestWorkVectors:
    @pytest.mark.parametrize("method", METHODS)
    def test_iteration_allocates_no_vector(self, method):
        # Between two operator calls of a steady-state iteration the traced
        # peak may not rise by half a vector of the problem's size.
        n = 100_000
        rng = np.random.Generator(np.random.PCG64(47))
        d = rng.uniform(0.1, 1.0, n)
        truth = rng.standard_normal(n)
        data = add_noise(d * truth, 1e-2 / math.sqrt(n), 3)
        op = AllocationProbe(d)
        cfg = SolverConfig(max_iters=25)
        tracemalloc.start()
        try:
            run(method, op, data, np.zeros(n), cfg, truth=truth)
        finally:
            tracemalloc.stop()
        rises = op.rises[9:]      # the stretches that start at the 10th call or later
        assert len(rises) >= 20
        assert max(rises) <= 0.5 * 8 * n

    def test_final_iterate_survives_later_runs(self):
        op = DiagonalOperator(np.array([0.5, 0.8, 1.0]))
        truth = np.array([1.0, -2.0, 0.5])
        noisy = add_noise(op.apply(truth), 1e-3, 0)
        exact = add_noise(np.array([2.0, -1.0, 0.5]), 0.0, 0)
        cases = [
            ("discrepancy", noisy, SolverConfig(eta=0.0, tau=2.0, c_F=1.0)),
            ("residual_zero", exact, SolverConfig(eta=0.0, tau=2.0, c_F=1.0)),
            ("max_iters", noisy, SolverConfig(eta=0.0, tau=2.0, c_F=1.0, max_iters=3)),
        ]
        for stop, data, cfg in cases:
            for method in METHODS:
                res = run(method, op, data, np.zeros(3), cfg)
                assert res.stopped_by == stop, (stop, method)
                kept = res.x_final.copy()
                run(method, op, noisy, np.ones(3), SolverConfig(eta=0.0, tau=2.0, c_F=1.0))
                np.testing.assert_array_equal(res.x_final, kept)

    def test_recorded_points_are_distinct_arrays(self):
        rng = np.random.Generator(np.random.PCG64(48))
        op = DiagonalOperator(rng.uniform(0.1, 1.0, 10))
        truth = rng.standard_normal(10)
        data = add_noise(op.apply(truth), 1e-3, 1)
        cfg = SolverConfig(eta=0.0, tau=2.0, c_F=op.c_F)
        for method, per_row in (("tpg-nes", 1), ("tgss-dbts", 2)):
            res = run(method, op, data, np.zeros(10), cfg, record_points=True)
            points = [res.x_final] + [p for row in res.trace
                                      for p in (row.z, row.x_tilde) if p is not None]
            assert len(points) == 1 + per_row * len(res.trace) > 3
            for i, a in enumerate(points):
                assert not any(np.shares_memory(a, b) for b in points[i + 1:]), method


class AddressProbe(DiagonalOperator):
    """Records the data address of every vector handed to an apply."""

    def __init__(self, d):
        super().__init__(d)
        self.addresses = []

    def apply(self, c, out=None):
        self.addresses += [c.ctypes.data, out.ctypes.data]
        return super().apply(c, out=out)

    def adjoint_apply(self, c, w, out=None):
        self.addresses += [c.ctypes.data, w.ctypes.data, out.ctypes.data]
        return super().adjoint_apply(c, w, out=out)


class TestAlignment:
    @pytest.mark.parametrize("n", [13, 2000])
    @pytest.mark.parametrize("method", list(METHOD_TABLE))
    def test_run_hands_the_operator_aligned_vectors(self, method, n):
        rng = np.random.Generator(np.random.PCG64(49))
        d = rng.uniform(0.1, 1.0, n)
        truth = rng.standard_normal(n)
        data = add_noise(d * truth, 1e-2 / math.sqrt(n), 4)
        for n_directions in (1, 2, 3):
            op = AddressProbe(d)
            res = run(method, op, data, np.zeros(n), SolverConfig(n_directions=n_directions),
                      truth=truth)
            assert res.stopped_by == "discrepancy" and res.k_star > 2
            assert [a % ALIGN for a in op.addresses] == [0] * len(op.addresses)

    @pytest.mark.parametrize("method", [m for m, (_, mom) in METHOD_TABLE.items()
                                        if mom == "zero"])
    def test_zero_momentum_coupling_slack_is_the_lambda_zero_value(self, method):
        rng = np.random.Generator(np.random.PCG64(50))
        op = DiagonalOperator(rng.uniform(0.1, 1.0, 40))
        data = add_noise(op.apply(rng.standard_normal(40)), 1e-3, 5)
        cfg = SolverConfig()
        scale = psi(cfg) ** 2 / (cfg.mu * cfg.c_F ** 2)
        res = run(method, op, data, np.zeros(40), cfg)
        assert len(res.trace) > 2
        for row in res.trace:
            assert row.lam == 0.0
            assert row.coupling_slack == -(scale * row.residual_norm ** 2)
