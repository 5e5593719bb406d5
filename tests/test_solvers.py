"""Unit tests for the iterative methods and their shared machinery."""

import math
import tracemalloc
from collections import Counter
from dataclasses import fields

import numpy as np
import pytest

from reference import project, ring_of, run_recording, stripe_at
from tgss import geometry, invpot, solvers
from tgss.geometry import StripeRing
from tgss.invpot import (
    AdmissibilityError,
    InversePotentialOperator,
    make_mesh,
    true_coefficient,
)
from tgss.numkernel import ALIGN, aligned, dot, norm
from tgss.operator import DiagonalOperator, add_noise
from tgss.solvers import (
    METHOD_TABLE,
    METHODS,
    ConfigError,
    DivergenceError,
    InvariantViolationError,
    IterationState,
    SolveResult,
    SolverConfig,
    TraceRow,
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
        # float fields take a real number, not a bool, a string or a complex
        {"c_F": True}, {"eta": False}, {"q_scale": np.True_}, {"tau": "3"}, {"eta": None},
        {"nesterov_alpha": [3.0]}, {"q_scale": 1j},
    ])
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            SolverConfig(**kwargs)

    def test_float_fields_take_ints_and_numpy_numbers(self):
        cfg = SolverConfig(tau=3, mu=np.float32(1.5), c_F=np.int64(2))
        assert (cfg.tau, cfg.mu, cfg.c_F) == (3.0, 1.5, 2.0)
        assert {type(v) for v in (cfg.tau, cfg.mu, cfg.c_F)} == {float}

    def test_numpy_integers_accepted(self):
        cfg = SolverConfig(max_iters=np.int64(10), n_directions=np.int32(3))
        assert (cfg.max_iters, cfg.n_directions) == (10, 3)

    def test_numpy_scalars_stored_as_python_numbers(self):
        numpy_type = {"float": np.float64, "int": np.int64}
        cfg = SolverConfig(**{f.name: numpy_type[f.type](f.default)
                              for f in fields(SolverConfig)})
        assert cfg == SolverConfig()
        for f in fields(SolverConfig):
            assert type(getattr(cfg, f.name)).__name__ == f.type
        assert type(cfg.q(cfg.i0 + 1)) is float

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
        z = np.zeros(2)
        r = op.apply(z) - data.y_delta
        ring = StripeRing(1, (2,))
        slot = ring.slot()
        assert build_stripe(op, z, data, cfg, r, 1.0, ring) == 0.0   # <u, z>
        assert len(ring) == 1 and ring.direction(0) is slot
        np.testing.assert_array_equal(slot, [-1.0, 0.0])
        assert ring.alpha == [-1.0]
        assert ring.xi == [pytest.approx(0.1)]   # eta * ||r||^2 with delta 0
        assert ring.gram == [[1.0]]

    def test_residual_norm_reuse(self, monkeypatch):
        # The offset and half-width come from the residual norm passed in;
        # build_stripe computes no norm of its own.
        rng = np.random.Generator(np.random.PCG64(43))
        op = DiagonalOperator(rng.uniform(0.5, 1.5, 5))
        data = add_noise(rng.standard_normal(5), 1e-2, 3)
        cfg = SolverConfig()
        z = rng.standard_normal(5)
        r = op.apply(z) - data.y_delta
        rn = 2.0 * norm(r)
        calls = []
        monkeypatch.setattr(solvers, "norm", lambda x: calls.append(x) or norm(x))
        ring = StripeRing(1, (5,))
        uz = build_stripe(op, z, data, cfg, r, rn, ring)
        assert calls == []
        np.testing.assert_array_equal(ring.direction(0), op.adjoint_apply(z, r))
        assert uz == dot(ring.direction(0), z)
        delta = data.delta_eff
        assert ring.alpha == [uz - rn * rn]
        assert ring.xi == [(delta + cfg.eta * (rn + delta)) * rn]

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
            s = stripe_at(op, z, data, cfg)
            slack = abs(dot(s.u, truth) - s.alpha) - s.xi
            assert slack <= 1e-12 * max(1.0, abs(s.alpha))


class TestDbtsSelect:
    def _state(self, x_prev, x_cur, k, i0=2):
        # A momentum state at x_prev that has stepped to x_cur, so that its
        # dx is x_cur - x_prev.
        state = IterationState(x=np.array(x_prev, dtype=float),
                               z=np.array(x_cur, dtype=float), k=k, i_dbts=i0)
        state.advance(state.z)
        return state

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

    def test_state_without_momentum_difference_steps_in_place(self):
        # Without momentum x_{k+1} is built in x itself, so advance leaves
        # both arrays where they are.
        x, z = np.array([3.0, 5.0]), np.array([0.0, 1.0])
        state = IterationState(x=x, z=z, keep_dx=False)
        x[:] = [4.0, 4.0]
        state.advance(state.x)
        assert state.dx is None and state.dx_norm == 0.0
        assert state.x is x and state.z is z
        np.testing.assert_array_equal(state.x, [4.0, 4.0])

    def test_state_keeps_momentum_difference(self):
        x, z = np.array([0.0, 1.0]), np.empty(2)
        state = IterationState(x=x, z=z, k=1)
        np.testing.assert_array_equal(state.dx, [0.0, 0.0])
        assert state.dx_norm == 0.0
        z[:] = [3.0, 5.0]
        state.advance(z)
        np.testing.assert_array_equal(state.dx, [3.0, 4.0])
        assert state.dx_norm == 5.0
        assert state.x is z and state.z is x
        z = state.z
        z[:] = [3.0, 5.0]
        state.advance(z)
        np.testing.assert_array_equal(state.x, [3.0, 5.0])
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

    def test_kernels_called_through_the_traced_names(self, monkeypatch):
        # The benchmark's tracer wraps these module globals: a set-up computes
        # M(c) and M(u), and each direction joining the active set is one
        # re-projection and one Gram solve.
        mesh = make_mesh(2, 8)
        op = InversePotentialOperator(mesh)
        data = add_noise(op.apply(true_coefficient(mesh)), 1e-3, 0)
        x0, cfg = np.ones(mesh.n_nodes), SolverConfig(n_directions=3)
        plain = run("tgss-nes", op, data, x0, cfg)
        calls = Counter()

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        for owner, name in ((invpot, "weighted_mass"), (invpot, "factorize_band_spd"),
                            (geometry, "project_hyperplane_intersection"),
                            (geometry, "solve_spd_dense")):
            monkeypatch.setattr(owner, name, counted(name, getattr(owner, name)))
        res = run("tgss-nes", op, data, x0, cfg)
        joins = sum(row.n_dirs_used - 1 for row in res.trace)
        assert joins > 0 and calls["factorize_band_spd"] > 0
        assert calls["weighted_mass"] == 2 * calls["factorize_band_spd"]
        assert calls["project_hyperplane_intersection"] == calls["solve_spd_dense"] == joins
        assert res.trace_csv_rows() == plain.trace_csv_rows()
        assert res.x_final.tobytes() == plain.x_final.tobytes()

    @staticmethod
    def _stripe_problem(kind):
        if kind == "diagonal":
            rng = np.random.Generator(np.random.PCG64(47))
            op = DiagonalOperator(rng.uniform(0.1, 1.0, 40))
            data = add_noise(op.apply(rng.standard_normal(40)), 1e-3, 3)
            return op, data, np.zeros(40), dict(eta=0.0, tau=2.0, c_F=op.c_F)
        mesh = make_mesh(1, 32)
        op = InversePotentialOperator(mesh)
        data = add_noise(op.apply(true_coefficient(mesh)), 1e-3, 0)
        return op, data, np.ones(mesh.n_nodes), {}

    @pytest.mark.parametrize("n_directions", [2, 3, 8])
    @pytest.mark.parametrize("kind", ["diagonal", "invpot1d"])
    @pytest.mark.parametrize("method",
                             ["sesop", "tgss-zero", "tgss-nes", "tgss-dbts", "tgss-coupling"])
    def test_projection_gets_inner_products_with_z(self, monkeypatch, method, kind,
                                                   n_directions):
        # A zero-momentum run carries the older stripes' <u_i, z> from the
        # previous projection, which agree with direct dots up to round-off;
        # a momentum run passes np.dot's own values.  Either way the point
        # is built in z.  With the default config, invpot1d at 3 or more
        # directions raises AdmissibilityError partway, as on the coarse
        # mesh of TestCoarseInversePotential: the projections made until
        # then are checked.
        op, data, x0, options = self._stripe_problem(kind)
        cfg = SolverConfig(n_directions=n_directions, **options)
        original = solvers.sequential_stripe_projection
        carried = []

        def spy(z, ring, uz):
            assert len(uz) == len(ring)
            direct = [float(np.dot(ring.direction(i), z)) for i in range(len(ring))]
            scale = [norm(ring.direction(i)) * norm(z) for i in range(len(ring))]
            res = original(z, ring, uz)
            assert res.point is z
            assert uz[0] == direct[0]
            if METHOD_TABLE[method].momentum == "zero":
                for i in range(1, len(ring)):
                    assert abs(uz[i] - direct[i]) <= 1e-12 * scale[i], (i, uz, direct)
            else:
                assert uz == direct
            carried.extend(uz[1:])
            return res

        monkeypatch.setattr(solvers, "sequential_stripe_projection", spy)
        try:
            run(method, op, data, x0, cfg)
        except AdmissibilityError:
            assert kind == "invpot1d" and n_directions > 2
        assert len(carried) >= 3

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
        s = stripe_at(op, z, data, cfg)
        np.testing.assert_allclose(s.u, z)
        assert s.alpha == pytest.approx(0.0)
        assert s.xi == 0.0
        proj = project(z, ring_of([s]))
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
        for method in ("tpg-coupling", "tgss-coupling", "tpg-dbts", "tgss-dbts"):
            res = run(method, op, data, np.zeros(15), cfg, truth=truth)
            # Relative errors: the tolerance 1e-12 ||x_dagger|| becomes 1e-12.
            errs = [norm(np.zeros(15) - truth) / norm(truth)] + [row.re for row in res.trace]
            for prev, cur in zip(errs, errs[1:]):
                assert cur <= prev + 1e-12, method

    def test_unknown_method_rejected(self):
        op = DiagonalOperator(np.array([1.0]))
        data = add_noise(np.array([1.0]), 0.0, 0)
        with pytest.raises(ConfigError):
            run("bogus", op, data, np.zeros(1), SolverConfig(eta=0.0, tau=2.0))

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

    def test_trace_row_is_its_csv_columns(self):
        # A run hands back one vector, x_final: a trace row holds exactly
        # the columns of the trace CSV, in its order.
        res = SolveResult(np.zeros(1), 0, "discrepancy", 0.0, [])
        header = res.trace_csv_rows()[0].split(",")
        names = [f.name for f in fields(TraceRow)]
        assert ["lambda" if name == "lam" else name for name in names] == header

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
                             "containment_slack"):
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
                           match="zero search direction at k=0"):
            run("sesop", op, data, np.zeros(2), cfg)

    def test_zero_direction_built_in_the_ring_raises_invariant_violation(self):
        class ZeroAdjointInPlace(DiagonalOperator):
            def adjoint_apply(self, c, w, out=None):
                out[:] = 0.0
                return out

        op = ZeroAdjointInPlace(np.array([0.5, 0.8]))
        data = add_noise(op.apply(np.array([1.0, -2.0])), 1e-3, 0)
        cfg = SolverConfig(eta=0.0, tau=2.0, c_F=1.0)
        with pytest.raises(InvariantViolationError,
                           match="zero search direction at k=0"):
            run("tgss-nes", op, data, np.zeros(2), cfg)

    @pytest.mark.parametrize("method", ["sesop", "tgss-nes", "tgss-dbts"])
    @pytest.mark.parametrize("k", [0, 1])
    def test_direction_whose_square_underflows_raises_invariant_violation(self, method, k):
        # ||u||^2 = 1e-400 rounds to 0.0: the direction counts as zero.  At
        # k = 1 the ring of one direction is full, and the tiny direction
        # is built in its oldest stripe's row.
        class TinyAdjoint(DiagonalOperator):
            calls = 0

            def adjoint_apply(self, c, w, out=None):
                out = super().adjoint_apply(c, w, out=out)
                if self.calls == k:
                    out[:] = [1e-200, 0.0]
                self.calls += 1
                return out

        op = TinyAdjoint(np.array([0.5, 0.8]))
        data = add_noise(op.apply(np.array([1.0, -2.0])), 1e-3, 0)
        cfg = SolverConfig(eta=0.0, tau=2.0, c_F=1.0, n_directions=1)
        with pytest.raises(InvariantViolationError,
                           match=rf"^zero search direction at k={k} with residual \d"):
            run(method, op, data, np.zeros(2), cfg)

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

    @pytest.mark.parametrize("method", ["sesop", "tgss-nes", "tgss-dbts"])
    def test_infinite_search_direction_norm_raises_divergence(self, method):
        # ||u||^2 overflows to inf, the ring's newest Gram entry.
        class HugeAdjoint(DiagonalOperator):
            def adjoint_apply(self, c, w, out=None):
                return np.full(self.n, 1e200)

        op = HugeAdjoint(np.array([0.5, 0.8]))
        data = add_noise(op.apply(np.array([1.0, -2.0])), 1e-3, 0)
        cfg = SolverConfig(eta=0.0, tau=2.0, c_F=1.0)
        with np.errstate(over="ignore"), pytest.raises(
                DivergenceError, match=r"search direction norm\^2 inf is not finite at k=0"):
            run(method, op, data, np.ones(2), cfg)

    @pytest.mark.parametrize("method", ["sesop", "tgss-nes", "tgss-dbts"])
    def test_iterate_not_above_its_stripe_raises_invariant_violation(self, method):
        # With u = 1e30 (1, 1), <u, z> - ||r||^2 rounds to <u, z>: the offset
        # alpha is <u, z> itself and z lies xi below the stripe's top, not
        # above it, so the projection's precondition fails by round-off.
        class HugeAdjoint(DiagonalOperator):
            def adjoint_apply(self, c, w, out=None):
                return np.full(self.n, 1e30)

        op = HugeAdjoint(np.array([0.5, 0.8]))
        data = add_noise(op.apply(np.array([1.0, -2.0])), 1e-3, 0)
        cfg = SolverConfig(eta=0.0, tau=2.0, c_F=1.0)
        with pytest.raises(InvariantViolationError,
                           match=r"iterate not above its own stripe at k=0 \(residual "):
            run(method, op, data, np.ones(2), cfg)


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
        (a, a_points), (b, b_points) = (
            run_recording(method, cls(d), data, np.zeros(40), cfg, truth=truth)
            for cls in (DiagonalOperator, FreshAdjoint))
        assert (a.k_star, a.stopped_by) == (b.k_star, b.stopped_by)
        assert a.k_star > n_directions
        assert a.x_final.tobytes() == b.x_final.tobytes()
        assert len(a.trace) == len(b.trace)
        for row_a, row_b, z_a, z_b in zip(a.trace, b.trace, a_points, b_points):
            assert z_a.tobytes() == z_b.tobytes()
            assert repr(row_a) == repr(row_b)


class TestCoarseInversePotential:
    """The default configuration on a coarse 1-D inverse-potential mesh.

    invpot1d N=16, default SolverConfig (two directions), x0 = 1 and
    component noise 1e-3.  sesop and tgss-dbts leave the admissible set
    today; a conditioning guard for the stripe projection is to make them
    stop by discrepancy, as tgss-nes does.
    """

    @staticmethod
    def solve(method, seed):
        mesh = make_mesh(1, 16)
        op = InversePotentialOperator(mesh, f=1.0)
        data = add_noise(op.apply(true_coefficient(mesh)), 1e-3, seed)
        return run(method, op, data, np.ones(mesh.n_nodes), SolverConfig())

    @pytest.mark.xfail(strict=True, raises=AdmissibilityError, reason=(
        "the two-direction projection moves the iterate out of the admissible "
        "set; no conditioning guard yet"))
    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("method", ["sesop", "tgss-dbts"])
    def test_stops_by_discrepancy(self, method, seed):
        res = self.solve(method, seed)
        assert res.stopped_by == "discrepancy"

    @pytest.mark.parametrize("seed", [0, 1])
    def test_nesterov_control_stops_by_discrepancy(self, seed):
        res = self.solve("tgss-nes", seed)
        assert (res.stopped_by, res.k_star) == ("discrepancy", 12)


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

    @pytest.mark.parametrize("method", list(METHOD_TABLE))
    def test_run_holds_its_count_of_vectors(self, method):
        # x, z and r, dx with momentum, the ring's rows for the stripe
        # methods and the copy handed back as x_final, with half a vector
        # to spare: a run keeps no x_{k-1} array.
        n = 100_000
        stripes, momentum = METHOD_TABLE[method]
        rng = np.random.Generator(np.random.PCG64(51))
        op = DiagonalOperator(rng.uniform(0.1, 1.0, n))
        truth = aligned(rng.standard_normal(n))
        data = add_noise(op.apply(truth), 1e-2 / math.sqrt(n), 6)
        x0 = np.zeros(n)
        cfg = SolverConfig(max_iters=25, n_directions=3)
        tracemalloc.start()
        try:
            run(method, op, data, x0, cfg, truth=truth)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        vectors = 3 + (momentum != "zero") + cfg.n_directions * stripes + 1
        assert peak <= (vectors + 0.5) * 8 * n

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
