"""End-to-end acceptance suite.

Each test function covers one acceptance criterion and reports one
pass/fail line under ``pytest -v``; runtime budgets are asserted inside
the tests themselves.
"""

import time

import numpy as np
import pytest

from reference import (
    Hyperplane,
    Stripe,
    project_halfspace,
    project_hyperplane,
    project_stripe,
)
from tgss.bench import BenchSpec, run_suite
from tgss.geometry import project_hyperplane_intersection
from tgss.invpot import InversePotentialOperator, make_mesh
from tgss.numkernel import dot, norm
from tgss.operator import DiagonalOperator, add_noise
from tgss.solvers import SolverConfig, build_stripe, run


# --------------------------------------------------------------------------
# criterion 1: geometry property suite
# --------------------------------------------------------------------------

def test_criterion_1_geometry_properties():
    rng = np.random.Generator(np.random.PCG64(101))
    t0 = time.perf_counter()

    def random_target(n):
        kind = rng.integers(0, 3)
        u = rng.standard_normal(n)
        while norm(u) == 0.0:
            u = rng.standard_normal(n)
        alpha = float(rng.standard_normal())
        if kind == 0:
            plane = Hyperplane(u, alpha)
            return (lambda x: project_hyperplane(x, plane),
                    lambda p: abs(dot(u, p) - alpha))
        if kind == 1:
            return (lambda x: project_halfspace(x, u, alpha),
                    lambda p: max(0.0, dot(u, p) - alpha))
        xi = abs(float(rng.standard_normal()))
        stripe = Stripe(u, alpha, xi)
        return (lambda x: project_stripe(x, stripe),
                lambda p: max(0.0, abs(dot(u, p) - alpha) - xi))

    for _ in range(1000):
        n = int(rng.integers(2, 11))
        project, violation = random_target(n)
        x = 3.0 * rng.standard_normal(n)
        y = 3.0 * rng.standard_normal(n)
        p = project(x)
        # idempotence
        assert norm(project(p) - p) <= 1e-9
        # membership
        assert violation(p) <= 1e-9
        # descent against a random feasible point
        z = project(5.0 * rng.standard_normal(n))
        assert (norm(p - z) ** 2
                <= norm(x - z) ** 2 - norm(p - x) ** 2 + 1e-9)
        # non-expansiveness
        assert norm(p - project(y)) <= norm(x - y) + 1e-9

    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"geometry property suite took {elapsed:.2f}s"


# --------------------------------------------------------------------------
# criterion 2: intersection projection against brute-force elimination
# --------------------------------------------------------------------------

def _brute_force_projection(x, planes):
    """Solve the normal equations by explicit 2x2/3x3 elimination."""
    U = np.stack([p.u for p in planes])
    G = U @ U.T
    b = U @ x - np.array([p.alpha for p in planes])
    k = len(planes)
    if k == 2:
        det = G[0, 0] * G[1, 1] - G[0, 1] * G[1, 0]
        t = np.array([
            (b[0] * G[1, 1] - b[1] * G[0, 1]) / det,
            (G[0, 0] * b[1] - G[1, 0] * b[0]) / det,
        ])
    else:
        det = (G[0, 0] * (G[1, 1] * G[2, 2] - G[1, 2] * G[2, 1])
               - G[0, 1] * (G[1, 0] * G[2, 2] - G[1, 2] * G[2, 0])
               + G[0, 2] * (G[1, 0] * G[2, 1] - G[1, 1] * G[2, 0]))
        t = np.empty(3)
        for j in range(3):
            M = G.copy()
            M[:, j] = b
            t[j] = (M[0, 0] * (M[1, 1] * M[2, 2] - M[1, 2] * M[2, 1])
                    - M[0, 1] * (M[1, 0] * M[2, 2] - M[1, 2] * M[2, 0])
                    + M[0, 2] * (M[1, 0] * M[2, 1] - M[1, 1] * M[2, 0])) / det
    return x - t @ U, t


def test_criterion_2_gram_projection_oracle():
    rng = np.random.Generator(np.random.PCG64(102))
    t0 = time.perf_counter()
    checked = 0
    while checked < 200:
        n = int(rng.integers(3, 8))
        k = int(rng.integers(2, 4))
        U = rng.standard_normal((k, n))
        G = U @ U.T
        if abs(np.linalg.det(G)) < 1e-3 * np.prod(np.diag(G)):
            continue  # skip near-dependent draws; both paths would amplify noise
        planes = [Hyperplane(U[i], float(rng.standard_normal())) for i in range(k)]
        x = 3.0 * rng.standard_normal(n)
        p, t = project_hyperplane_intersection(x, planes)
        p_ref, t_ref = _brute_force_projection(x, planes)
        scale = max(1.0, norm(x), norm(p_ref))
        assert norm(p - p_ref) <= 1e-10 * scale
        assert norm(t - t_ref) <= 1e-10 * max(1.0, norm(t_ref))
        checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 2.0, f"projection oracle took {elapsed:.2f}s"


# --------------------------------------------------------------------------
# criterion 3: forward operator checks on both benchmark meshes
# --------------------------------------------------------------------------

def test_criterion_3_operator_checks():
    rng = np.random.Generator(np.random.PCG64(103))
    t0 = time.perf_counter()
    for dim, n_cells in ((1, 256), (2, 16)):
        mesh = make_mesh(dim, n_cells)
        op = InversePotentialOperator(mesh)
        n = mesh.n_nodes

        # constant-solution identity
        u = op.apply(np.ones(n))
        assert np.abs(u - 1.0).max() <= 1e-8

        # adjoint consistency on 100 random triples
        for _ in range(100):
            c = rng.uniform(0.2, 2.0, n)
            q, w = rng.standard_normal((2, n))
            lhs = dot(op.derivative_apply(c, q), w)
            rhs = dot(q, op.adjoint_apply(c, w))
            assert abs(lhs - rhs) <= 1e-10 * max(norm(q) * norm(w), 1e-300)

        # second-order Taylor remainder: halving h divides the remainder
        # by about four
        for _ in range(5):
            c = rng.uniform(0.5, 1.5, n)
            q = rng.standard_normal(n)
            q /= norm(q)

            def remainder(h):
                return norm(
                    op.apply(c + h * q) - op.apply(c)
                    - h * op.derivative_apply(c, q)
                )

            ratio = remainder(2e-2) / remainder(1e-2)
            assert 3.5 <= ratio <= 4.5, f"dim={dim} ratio={ratio:.3f}"

    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"operator checks took {elapsed:.2f}s"


# --------------------------------------------------------------------------
# criterion 4: exact-theory checks on the linear diagonal operator
# --------------------------------------------------------------------------

def test_criterion_4_linear_operator_theory():
    rng = np.random.Generator(np.random.PCG64(104))
    t0 = time.perf_counter()
    n = 20
    op = DiagonalOperator(rng.uniform(0.1, 1.0, n))
    truth = rng.standard_normal(n)
    data = add_noise(op.apply(truth), 1e-3, 0)
    cfg = SolverConfig(eta=0.0, tau=2.0, c_F=op.c_F, max_iters=20000)
    delta = data.delta_eff
    x0 = np.zeros(n)

    for method in ("tpg-coupling", "tpg-dbts", "sesop",
                   "tgss-coupling", "tgss-dbts", "tgss-nes"):
        res = run(method, op, data, x0, cfg, truth=truth, record_points=True)
        assert res.stopped_by == "discrepancy", method

        monotone_expected = method.endswith(("coupling", "dbts")) or method == "sesop"
        prev_err = norm(x0 - truth)
        for row in res.trace:
            # solution containment in the stripe built at z
            rec = build_stripe(op, row.z, data, cfg)
            slack = abs(dot(rec.u, truth) - rec.alpha) - rec.xi
            assert slack <= 1e-12, (method, row.k, slack)

            # residual descent estimate for the projection step
            if row.x_tilde is not None:
                rn = rec.r_norm
                bound = (norm(truth - row.z) ** 2
                         - (rn * (rn - delta) / norm(rec.u)) ** 2 + 1e-9)
                assert norm(truth - row.x_tilde) ** 2 <= bound, (method, row.k)

            # monotone error decrease under the coupling-controlled weights
            if monotone_expected:
                assert row.err <= prev_err + 1e-12 * norm(truth), (method, row.k)
                prev_err = row.err

    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"linear theory checks took {elapsed:.2f}s"


# --------------------------------------------------------------------------
# criterion 5: reduction equivalences
# --------------------------------------------------------------------------

def test_criterion_5_reduction_equivalences():
    rng = np.random.Generator(np.random.PCG64(105))
    t0 = time.perf_counter()
    for trial in range(10):
        n = int(rng.integers(3, 11))
        op = DiagonalOperator(rng.uniform(0.2, 1.0, n))
        truth = rng.standard_normal(n)
        data = add_noise(op.apply(truth), 1e-3, trial)
        cfg = SolverConfig(eta=0.0, tau=2.0, c_F=op.c_F, max_iters=10000,
                           n_directions=1)
        x0 = np.zeros(n)

        a = run("tgss-zero", op, data, x0, cfg, record_points=True)
        b = run("sesop", op, data, x0, cfg, record_points=True)
        assert a.k_star == b.k_star
        assert norm(a.x_final - b.x_final) <= 1e-12
        for ra, rb in zip(a.trace, b.trace):
            assert norm(ra.z - rb.z) <= 1e-12

        c = run("tpg-zero", op, data, x0, cfg, record_points=True)
        d = run("land", op, data, x0, cfg, record_points=True)
        assert c.k_star == d.k_star
        assert norm(c.x_final - d.x_final) <= 1e-12
        for rc, rd in zip(c.trace, d.trace):
            assert norm(rc.z - rd.z) <= 1e-12

    elapsed = time.perf_counter() - t0
    assert elapsed < 2.0, f"reduction equivalences took {elapsed:.2f}s"


# --------------------------------------------------------------------------
# criteria 6 and 8: 1-D benchmark trend and its determinism
# --------------------------------------------------------------------------

TREND_SPEC = dict(
    problem="invpot1d",
    mesh_n=256,
    noise_levels=[1e-3],
    seeds=[0, 4, 6],
    methods=["land", "tpg-nes", "sesop", "tgss-nes"],
    config={"eta": 0.1, "tau": 2.8, "mu": 1.01, "c_F": 0.1,
            "nesterov_alpha": 3.0, "max_iters": 50000},
    noise_scale="norm",
)


@pytest.fixture(scope="module")
def trend_records():
    t0 = time.perf_counter()
    records = run_suite(BenchSpec(**TREND_SPEC))
    return records, time.perf_counter() - t0


def test_criterion_6_benchmark_trend_1d(trend_records):
    records, elapsed = trend_records
    by_seed = {}
    for rec in records:
        by_seed.setdefault(rec.seed, {})[rec.method] = rec

    for seed, group in by_seed.items():
        for method, rec in group.items():
            assert rec.stopped_by == "discrepancy", (seed, method)
            assert rec.re_final <= 1e-2, (seed, method, rec.re_final)
        ks = {m: group[m].k_star for m in group}
        assert ks["tgss-nes"] < ks["sesop"] < ks["tpg-nes"] < ks["land"], (seed, ks)
        assert ks["tgss-nes"] / ks["land"] <= 0.05, (seed, ks)
        assert ks["sesop"] / ks["land"] <= 0.10, (seed, ks)

    assert elapsed < 120.0, f"1-D benchmark took {elapsed:.1f}s"


def test_criterion_8_benchmark_determinism(trend_records):
    records, _ = trend_records
    rerun = run_suite(BenchSpec(**TREND_SPEC))
    assert len(records) == len(rerun)
    for a, b in zip(records, rerun):
        assert (a.method, a.delta, a.seed) == (b.method, b.delta, b.seed)
        assert repr(a.k_star) == repr(b.k_star)
        assert repr(a.re_final) == repr(b.re_final)


# --------------------------------------------------------------------------
# criterion 7: 2-D benchmark smoke test
# --------------------------------------------------------------------------

def test_criterion_7_benchmark_smoke_2d():
    t0 = time.perf_counter()
    records = run_suite(BenchSpec(
        problem="invpot2d",
        mesh_n=32,
        noise_levels=[0.02],
        seeds=[0],
        methods=["land", "tgss-nes", "tgss-dbts"],
        config={"eta": 0.1, "tau": 2.8, "mu": 1.01, "c_F": 0.1,
                "nesterov_alpha": 9.0, "q_scale": 9.0, "q_power": 1.1,
                "max_iters": 20000},
        noise_scale="norm",
    ))
    by_method = {r.method: r for r in records}
    k_land = by_method["land"].k_star
    for method in ("tgss-nes", "tgss-dbts"):
        rec = by_method[method]
        assert rec.stopped_by == "discrepancy", method
        assert rec.re_final <= 0.1, (method, rec.re_final)
        assert rec.k_star < k_land, (method, rec.k_star, k_land)
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0, f"2-D benchmark took {elapsed:.1f}s"
