"""Property tests of the solver iterates on linear problems with eta = 0.

On a `DiagonalOperator` the tangential cone condition holds with eta = 0,
so two properties of the iterates can be checked up to round-off on
generated problems:

- stripe containment: x_{k+1} lies in every stripe the projection step
  was given, the current one and the n_directions - 1 before it.  This
  holds at one and two directions; at three it is an expected failure;
- monotone error: ||x_{k+1} - x^dagger|| <= ||x_k - x^dagger|| for sesop
  and for the coupling and backtracking momentum weights.

Containment is checked from first principles, not from the trace's own
`containment_slack`: the iterates are rebuilt from the recorded z_k and
lambda_k as x_k = (z_k + lambda_k x_{k-1}) / (1 + lambda_k), the stripes
are rebuilt with `build_stripe` at their recorded z, and the inner
products are plain `np.dot`s.
"""

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from tgss.operator import DiagonalOperator, add_noise
from tgss.solvers import SolverConfig, build_stripe, run

SETTINGS = settings(max_examples=100, deadline=None, derandomize=True, database=None)
PROJECTION_METHODS = ("sesop", "tgss-nes", "tgss-dbts")


@st.composite
def linear_problems(draw):
    """(op, truth, data) for a diagonal operator with entries in [0.1, 1]."""
    n = draw(st.integers(2, 30))
    d = draw(arrays(np.float64, n, elements=st.floats(0.1, 1.0)))
    truth = draw(arrays(np.float64, n, elements=st.floats(-2.0, 2.0)))
    op = DiagonalOperator(d)
    delta = draw(st.sampled_from((1e-3, 1e-2)))
    data = add_noise(op.apply(truth), delta, draw(st.integers(0, 2 ** 16)))
    return op, truth, data


def linear_config(op, n_directions):
    return SolverConfig(eta=0.0, tau=2.0, c_F=op.c_F, max_iters=20000,
                        n_directions=n_directions)


def rebuilt_iterates(x0, trace):
    """x_0, ..., x_K from the recorded z_k and lambda_k, K = len(trace) - 1."""
    xs = []
    prev = x0
    for row in trace:
        prev = (row.z + row.lam * prev) / (1.0 + row.lam)
        xs.append(prev)
    return xs


def check_containment(problem, method, n_directions):
    op, truth, data = problem
    cfg = linear_config(op, n_directions)
    x0 = np.zeros(op.n)
    res = run(method, op, data, x0, cfg, record_points=True)
    xs = rebuilt_iterates(x0, res.trace)
    # Row k's stripes were built at z_k and the n_directions - 1 points
    # before it; its result x_{k+1} is rebuilt from row k + 1.
    for k, x_next in enumerate(xs[1:]):
        for j in range(max(0, k - n_directions + 1), k + 1):
            s = build_stripe(op, res.trace[j].z, data, cfg)
            tol = 1e-9 * (np.linalg.norm(s.u) * np.linalg.norm(x_next)
                          + abs(s.alpha) + s.xi)
            assert abs(np.dot(s.u, x_next) - s.alpha) <= s.xi + tol, (method, k, j)


@SETTINGS
@given(linear_problems(), st.sampled_from(PROJECTION_METHODS), st.integers(1, 2))
def test_iterates_lie_in_their_stripes(problem, method, n_directions):
    check_containment(problem, method, n_directions)


@pytest.mark.filterwarnings("ignore::DeprecationWarning")  # hypothesis' failure report
@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "with three directions the sequential projection does not revisit a "
    "stripe it found satisfied, and a later re-projection onto the active "
    "boundaries can move the point out of it"))
@settings(SETTINGS, phases=[Phase.generate])
@given(linear_problems(), st.sampled_from(PROJECTION_METHODS))
def test_iterates_lie_in_their_stripes_at_three_directions(problem, method):
    check_containment(problem, method, 3)


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
    tol = 1e-12 * np.linalg.norm(truth)
    errs = [np.linalg.norm(x0 - truth)] + [row.err for row in res.trace]
    for k, (prev, cur) in enumerate(zip(errs, errs[1:])):
        assert cur <= prev + tol, (method, k, prev, cur)
