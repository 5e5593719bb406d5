"""solvers.run against the plain-loop reference of tests/reference_solver.py.

On generated problems, every method and one to three stripe directions,
the two must agree on k_star, stopped_by, the dropped direction count,
and the exception type and iteration of a run that raises.  The final
iterate and every trace column must agree within RTOL, relative to the
size of the terms each value is formed from: ||y_delta|| for residual
norms, the vectors' own norms for points and errors.  The run's points
z_k are recorded by `reference.run_recording` around the operator, its
errors are re ||x_dagger||, and its first projection steps x~_k are z_k
projected onto the upper boundary of `reference.stripe_at(z_k)`.

The two implementations round differently (coefficient space on a
StripeRing against vector-space projections, in-place work vectors
against new arrays), and a stripe method can amplify a round-off
difference from one iteration to the next: on an inverse-potential
problem a one-direction sesop run ends up to 1e-8 apart in relative
terms.  RTOL leaves room for that.  A decision that round-off could flip
is not compared: an example is left out (`assume`) when a residual norm
comes within a relative MIN_TIE_MARGIN of tau delta, a backtracking
coupling test or a projection side test within MIN_TIE_MARGIN of a tie,
a Gram block the reference solved has a condition number above MAX_COND,
or the reference dropped a direction as dependent.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from reference import project_hyperplane, run_recording, stripe_at, upper
from reference_solver import REFERENCE_METHODS, reference_run
from tgss import solvers
from tgss.invpot import InversePotentialOperator, make_mesh, true_coefficient
from tgss.operator import DiagonalOperator, add_noise
from tgss.solvers import METHOD_TABLE, SolverConfig

RTOL = 1e-6
MIN_TIE_MARGIN = 1e-8
MAX_COND = 1e8
SETTINGS = settings(deadline=None, derandomize=True, database=None)


@st.composite
def diagonal_problems(draw):
    """A DiagonalOperator with entries in [0.1, 1], eta = 0 and x0 = 0."""
    n = draw(st.integers(1, 30))
    op = DiagonalOperator(draw(arrays(np.float64, n, elements=st.floats(0.1, 1.0))))
    truth = draw(arrays(np.float64, n, elements=st.floats(-50.0, 50.0)))
    data = add_noise(op.apply(truth), draw(st.sampled_from((1e-3, 1e-2))),
                     draw(st.integers(0, 2 ** 16)))
    cfg = SolverConfig(eta=0.0, tau=2.0, c_F=op.c_F, max_iters=2000,
                       n_directions=draw(st.integers(1, 3)))
    return op, data, np.zeros(n), cfg, truth


@st.composite
def inverse_potential_problems(draw):
    """invpot1d or invpot2d with N <= 16, the benchmark's truth, x0 = 1 and
    the default SolverConfig, capped at 400 iterations."""
    mesh = make_mesh(draw(st.sampled_from((1, 2))), draw(st.integers(2, 16)))
    op = InversePotentialOperator(mesh)
    truth = true_coefficient(mesh)
    data = add_noise(op.apply(truth), draw(st.sampled_from((1e-3, 1e-2))),
                     draw(st.integers(0, 2 ** 16)))
    cfg = SolverConfig(max_iters=400, n_directions=draw(st.integers(1, 3)))
    return op, data, np.ones(mesh.n_nodes), cfg, truth


def run_or_raise(method, op, data, x0, cfg, truth):
    """(solvers.run's result and its points z_k, None), or (None, (exception
    type, k)) if it raised."""
    entered = []
    select = solvers._select_lambda_z

    def recording(momentum, state, *args):
        entered.append(state.k)
        return select(momentum, state, *args)

    with mock.patch.object(solvers, "_select_lambda_z", recording):
        try:
            return run_recording(method, op, data, x0, cfg, truth), None
        except Exception as exc:
            return None, (type(exc), entered[-1])


def close(actual, expected, scale):
    return abs(actual - expected) <= RTOL * scale


def vectors_close(actual, expected):
    return np.linalg.norm(actual - expected) <= RTOL * np.linalg.norm(expected)


def check_against_reference(method, problem):
    op, data, x0, cfg, truth = problem
    ref = reference_run(method, op, data, x0, cfg, truth)
    assume(ref.discrepancy_margin > MIN_TIE_MARGIN and ref.coupling_margin > MIN_TIE_MARGIN
           and ref.side_margin > MIN_TIE_MARGIN and ref.gram_cond <= MAX_COND
           and ref.dropped == 0)
    recorded, error = run_or_raise(method, op, data, x0, cfg, truth)
    assert error == ref.error
    if error is not None:
        return
    res, points = recorded
    assert (res.k_star, res.stopped_by) == (ref.k_star, ref.stopped_by)
    assert res.dropped_directions == ref.dropped
    assert vectors_close(res.x_final, ref.x_final)

    y_norm = np.linalg.norm(data.y_delta)
    coupling_scale = solvers.psi(cfg) ** 2 / (cfg.mu * cfg.c_F ** 2)
    assert len(res.trace) == len(ref.trace)
    truth_norm = np.linalg.norm(truth)
    for row, z, want in zip(res.trace, points, ref.trace):
        k = row.k
        assert (k, row.n_dirs_used) == (want["k"], want["n_dirs_used"])
        assert close(row.residual_norm, want["residual_norm"], y_norm), k
        assert close(row.lam, want["lam"], 1.0), k
        # coupling_slack = lam (lam + 1) ||dx||^2 - scale ||r||^2, two terms
        # of at most |slack| + 2 scale ||r||^2.
        r_term = coupling_scale * want["residual_norm"] ** 2
        assert close(row.coupling_slack, want["coupling_slack"],
                     abs(want["coupling_slack"]) + 2.0 * r_term), k
        assert vectors_close(z, want["z"]), k
        err_scale = np.linalg.norm(want["z"]) + truth_norm + want["err"]
        assert close(row.re * truth_norm, want["err"], err_scale), k
        assert close(row.re, want["re"], err_scale / truth_norm), k
        if want["containment_slack"] is None:
            assert row.containment_slack is None
        else:
            assert close(row.containment_slack, want["containment_slack"],
                         want["containment_scale"]), k
            x_tilde = project_hyperplane(z, upper(stripe_at(op, z, data, cfg)))
            assert vectors_close(x_tilde, want["x_tilde"]), k


def test_reference_knows_every_method():
    assert REFERENCE_METHODS == {name: tuple(m) for name, m in METHOD_TABLE.items()}


@pytest.mark.parametrize("method", list(METHOD_TABLE))
@settings(SETTINGS, max_examples=25)
@given(problem=diagonal_problems())
def test_diagonal_problems_follow_the_reference(method, problem):
    check_against_reference(method, problem)


@pytest.mark.parametrize("method", list(METHOD_TABLE))
@settings(SETTINGS, max_examples=12)
@given(problem=inverse_potential_problems())
def test_inverse_potential_problems_follow_the_reference(method, problem):
    check_against_reference(method, problem)
