"""Property tests of the solver iterates and outcomes.

On a `DiagonalOperator` the tangential cone condition holds with eta = 0,
so two properties of the iterates can be checked up to round-off on
generated problems:

- stripe containment: x_{k+1} lies in every stripe the projection step
  was given, the current one and the n_directions - 1 before it.  This
  holds at one and two directions; at three it is an expected failure;
- monotone error: ||x_{k+1} - x^dagger|| <= ||x_k - x^dagger|| for sesop
  and for the coupling and backtracking momentum weights.

On small inverse-potential problems (default config, x0 = 1) stripe
containment is checked at one and two directions, and so is the stop:
each trace row's residual norm is that of its recorded z_k and exceeds
tau delta, and x_final, the point of the last forward apply, meets the
discrepancy test.

Containment is checked from first principles, not from the trace's own
`containment_slack`: the points z_k are recorded by
`reference.run_recording`, the iterates are rebuilt from them and the
trace's lambda_k as x_k = (z_k + lambda_k x_{k-1}) / (1 + lambda_k), the
stripes are rebuilt with `reference.stripe_at` at their z_k, and the
inner products are plain `np.dot`s.  The errors are the trace's relative
errors re, in units of ||x^dagger||.

Every run on a generated diagonal or inverse-potential problem, with any
of the method names and a random valid config, either stops with a known
`stopped_by` or raises one of the library's typed errors.
"""

import numpy as np
import pytest
from hypothesis import Phase, example, given, reject, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from reference import run_recording, stripe_at
from tgss.invpot import (AdmissibilityError, InversePotentialOperator, MeshError,
                         make_mesh, true_coefficient)
from tgss.numkernel import DimensionError, SparseSolveError
from tgss.operator import DiagonalOperator, add_noise
from tgss.solvers import (METHOD_TABLE, ConfigError, DivergenceError,
                          InvariantViolationError, SolverConfig, run)

SETTINGS = settings(max_examples=100, deadline=None, derandomize=True, database=None)
PROJECTION_METHODS = ("sesop", "tgss-nes", "tgss-dbts")


@st.composite
def linear_problems(draw):
    """(op, truth, data) for a diagonal operator with entries in [0.1, 1]."""
    n = draw(st.integers(2, 30))
    d = draw(arrays(np.float64, n, elements=st.floats(0.1, 1.0)))
    truth = draw(arrays(np.float64, n, elements=st.floats(-2.0, 2.0)))
    delta = draw(st.sampled_from((1e-3, 1e-2)))
    return linear_problem(d, truth, delta, draw(st.integers(0, 2 ** 16)))


def linear_problem(d, truth, delta, seed):
    op = DiagonalOperator(d)
    return op, truth, add_noise(op.apply(truth), delta, seed)


def linear_config(op, n_directions):
    return SolverConfig(eta=0.0, tau=2.0, c_F=op.c_F, max_iters=20000,
                        n_directions=n_directions)


def rebuilt_iterates(x0, trace, points):
    """x_0, ..., x_K from the recorded z_k and lambda_k, K = len(trace) - 1."""
    xs = []
    prev = x0
    for row, z in zip(trace, points):
        prev = (z + row.lam * prev) / (1.0 + row.lam)
        xs.append(prev)
    return xs


def check_containment(op, data, x0, cfg, method, rel_tol):
    """Assert that each x_{k+1} lies in its stripes; return the recorded run.

    A stripe {|<u, x> - alpha| <= xi} is met to rel_tol times the
    round-off scale ||u|| ||x_{k+1}|| + |alpha| + xi.
    """
    res, points = run_recording(method, op, data, x0, cfg)
    xs = rebuilt_iterates(x0, res.trace, points)
    stripes = [stripe_at(op, z, data, cfg) for z in points[:-1]]
    # Row k's stripes were built at z_k and the n_directions - 1 points
    # before it; its result x_{k+1} is rebuilt from row k + 1.
    for k, x_next in enumerate(xs[1:]):
        for j in range(max(0, k - cfg.n_directions + 1), k + 1):
            s = stripes[j]
            tol = rel_tol * (np.linalg.norm(s.u) * np.linalg.norm(x_next)
                             + abs(s.alpha) + s.xi)
            assert abs(np.dot(s.u, x_next) - s.alpha) <= s.xi + tol, (method, k, j)
    return res, points


def check_linear_containment(problem, method, n_directions):
    op, truth, data = problem
    check_containment(op, data, np.zeros(op.n), linear_config(op, n_directions), method, 1e-9)


@SETTINGS
@given(linear_problems(), st.sampled_from(PROJECTION_METHODS), st.integers(1, 2))
def test_iterates_lie_in_their_stripes(problem, method, n_directions):
    check_linear_containment(problem, method, n_directions)


@pytest.mark.filterwarnings("ignore::DeprecationWarning")  # hypothesis' failure report
@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "with three directions the sequential projection does not revisit a "
    "stripe it found satisfied, and a later re-projection onto the active "
    "boundaries can move the point out of it"))
@settings(SETTINGS, phases=[Phase.explicit, Phase.generate])
@given(linear_problems(), st.sampled_from(PROJECTION_METHODS))
# x_4 leaves the stripe built at z_2 by 0.7 % of its scale.  Which examples
# the search draws depends on the constants in the code Hypothesis has
# loaded, so the expected failure does not rest on the search alone.
@example(linear_problem(np.array([0.67, 0.34, 0.14]), np.array([-1.9, 1.3, 1.7]), 1e-2, 0),
         "tgss-nes")
def test_iterates_lie_in_their_stripes_at_three_directions(problem, method):
    check_linear_containment(problem, method, 3)


@SETTINGS
@given(linear_problems(),
       st.sampled_from(("sesop", "tpg-coupling", "tgss-coupling",
                        "tpg-dbts", "tgss-dbts")),
       st.integers(1, 3))
def test_error_decreases_monotonically(problem, method, n_directions):
    op, truth, data = problem
    cfg = linear_config(op, n_directions)
    x0 = np.zeros(op.n)
    res = run(method, op, data, x0, cfg, truth=truth)
    # ||x_{k+1} - x^dagger|| <= ||x_k - x^dagger|| + 1e-12 ||x^dagger||,
    # divided by ||x^dagger|| as run divides re, floored at 1e-300.
    truth_norm = max(np.linalg.norm(truth), 1e-300)
    errs = [np.linalg.norm(x0 - truth) / truth_norm] + [row.re for row in res.trace]
    for k, (prev, cur) in enumerate(zip(errs, errs[1:])):
        assert cur <= prev + 1e-12, (method, k, prev, cur)


@st.composite
def inverse_potential_problems(draw):
    """(op, data) on a 1-D mesh with N <= 40 or a 2-D one with N <= 11."""
    dim = draw(st.sampled_from((1, 2)))
    mesh = make_mesh(dim, draw(st.integers(2, 40 if dim == 1 else 11)))
    op = InversePotentialOperator(mesh)
    delta = draw(st.sampled_from((1e-4, 1e-3)))
    return op, add_noise(op.apply(true_coefficient(mesh)), delta, draw(st.integers(0, 2 ** 16)))


@settings(SETTINGS, max_examples=40)
@given(inverse_potential_problems(), st.sampled_from(PROJECTION_METHODS), st.integers(1, 2))
def test_inverse_potential_iterates_lie_in_their_stripes(problem, method, n_directions):
    op, data = problem
    cfg = SolverConfig(n_directions=n_directions)
    try:
        res, points = check_containment(op, data, np.ones(op.n), cfg, method, 1e-12)
    except (AdmissibilityError, SparseSolveError):
        reject()   # an iterate left the admissible set: no stop to check
    # The stop is tested at z_k: the rows' residuals are those of the
    # recorded points and above tau delta, and x_final, the point of the
    # run's last forward apply (run_recording), is below it.
    threshold = cfg.tau * data.delta_eff
    for row, z in zip(res.trace, points):
        assert row.residual_norm > threshold
        r_norm = np.linalg.norm(op.apply(z) - data.y_delta)
        assert r_norm == pytest.approx(row.residual_norm, rel=1e-12, abs=0.0), (method, row.k)
    assert res.stopped_by == "discrepancy" and res.k_star == len(res.trace)
    r_norm = np.linalg.norm(op.apply(res.x_final) - data.y_delta)
    assert r_norm <= threshold * (1.0 + 1e-12)


TYPED_ERRORS = (ConfigError, DivergenceError, InvariantViolationError, AdmissibilityError,
                MeshError, DimensionError, SparseSolveError)


@st.composite
def any_problems(draw):
    """(op, data, x0): a diagonal operator with n <= 40 or an inverse-potential
    one on a 1-D mesh with N <= 40 or a 2-D one with N <= 11."""
    kind = draw(st.sampled_from(("diagonal", "invpot1d", "invpot2d")))
    if kind == "diagonal":
        n = draw(st.integers(1, 40))
        op = DiagonalOperator(draw(arrays(np.float64, n, elements=st.floats(0.1, 1.5))))
        truth = draw(arrays(np.float64, n, elements=st.floats(-2.0, 2.0)))
        x0 = np.zeros(n)
    else:
        dim = 1 if kind == "invpot1d" else 2
        mesh = make_mesh(dim, draw(st.integers(2, 40 if dim == 1 else 11)))
        op = InversePotentialOperator(mesh)
        truth = true_coefficient(mesh)
        x0 = np.ones(op.n)
    delta = draw(st.sampled_from((0.0, 1e-5, 1e-4, 1e-3, 1e-2)))
    return op, add_noise(op.apply(truth), delta, draw(st.integers(0, 2 ** 16))), x0


@st.composite
def solver_configs(draw):
    """A valid SolverConfig with 1-3 directions and trials and a short budget."""
    eta = draw(st.floats(0.0, 0.5))
    return SolverConfig(
        eta=eta, tau=(1.0 + eta) / (1.0 - eta) * draw(st.floats(1.01, 3.0)),
        mu=draw(st.floats(1.001, 2.0)), c_F=draw(st.floats(0.05, 2.0)),
        nesterov_alpha=draw(st.floats(3.0, 6.0)), q_scale=draw(st.floats(0.5, 8.0)),
        q_power=draw(st.floats(1.05, 2.0)), j_max=draw(st.integers(1, 3)),
        i0=draw(st.integers(0, 4)), n_directions=draw(st.integers(1, 3)),
        max_iters=draw(st.integers(0, 200)))


@settings(SETTINGS, max_examples=200)
@given(any_problems(), st.sampled_from(tuple(METHOD_TABLE)), solver_configs())
def test_every_run_stops_or_raises_a_typed_error(problem, method, cfg):
    op, data, x0 = problem
    try:
        res = run(method, op, data, x0, cfg)
    except TYPED_ERRORS:
        return
    assert res.stopped_by in ("discrepancy", "residual_zero", "max_iters")
    assert res.k_star <= cfg.max_iters
