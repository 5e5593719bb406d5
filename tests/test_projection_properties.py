"""Property tests of the sequential stripe projection.

The coefficient-space implementation in `geometry` is checked against the
vector-space loop `reference.reference_projection`: each stage re-projects
the running point onto the intersection of the active boundary hyperplanes
with `project_hyperplane_intersection`.

Directions have small-integer entries times a power of two, so every
Gram entry is exact.  Exactly parallel directions are scaled copies of an
earlier direction, nearly parallel ones such copies with one entry moved.

The two implementations round differently and test dependence
differently: the library drops a direction whose bordered Cholesky pivot
is at most PIVOT_FLOOR relative to its Gram diagonal, the reference only
when dpotrf fails.  So their results agree only where round-off cannot
change a decision or blow up: every Gram block the reference solved is
well conditioned and no side test is within round-off of a tie.  An
exactly dependent block that passes the reference's Cholesky on
round-off gives it coefficients of order 1/eps; such examples are still
checked for the properties that hold for the library on its own.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from reference import Stripe, length_scale, reference_projection, ring_of
from tgss.geometry import sequential_stripe_projection
from tgss.numkernel import dot, norm

MAX_COND = 1e4
MIN_TIE_MARGIN = 1e-8
RTOL = 1e-10


@st.composite
def stripe_problems(draw):
    """(z, stripes) with n in 2..40, m in 1..4 and z strictly above stripe 0."""
    n = draw(st.integers(2, 40))
    m = draw(st.integers(1, 4))

    def fresh():
        entries = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n).filter(any))
        return np.array(entries, dtype=float) * 2.0 ** draw(st.integers(-2, 2))

    directions = [fresh()]
    for _ in range(m - 1):
        kind = draw(st.sampled_from(("fresh", "parallel", "near-parallel")))
        if kind == "fresh":
            directions.append(fresh())
            continue
        base = directions[draw(st.integers(0, len(directions) - 1))]
        u = draw(st.sampled_from((-2.0, -1.0, -0.5, 0.5, 1.0, 2.0))) * base
        if kind == "near-parallel":
            u[draw(st.integers(0, n - 1))] += 2.0 ** draw(st.integers(-6, -1))
            assume(u.any())
        directions.append(u)

    z = np.array(draw(st.lists(st.floats(-4.0, 4.0), min_size=n, max_size=n)))
    # Offsets and half-widths in units of ||u||: z lies rho ||u|| from the
    # stripe's centre hyperplane, which is w ||u|| wide on each side.
    stripes = []
    for i, u in enumerate(directions):
        w = draw(st.floats(0.0, 2.0))
        rho = w + draw(st.floats(1e-3, 4.0)) if i == 0 else draw(st.floats(-4.0, 4.0))
        stripes.append(Stripe(u, dot(u, z) - rho * norm(u), w * norm(u)))
    return z, stripes


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(stripe_problems())
def test_matches_vector_space_reference(problem):
    z, stripes = problem
    res = sequential_stripe_projection(z, ring_of(stripes))
    point, coeffs, first_step_point, n_dropped, skipped, cond, margin = (
        reference_projection(z, stripes))

    # Properties of the new implementation on its own.
    scale = length_scale(z, stripes, res.coefficients)
    for i, s in enumerate(stripes):
        if i not in res.skipped:
            off = abs(abs(dot(s.u, res.point) - s.alpha) - s.xi)
            assert off <= 1e-9 * (norm(s.u) * scale + abs(s.alpha) + s.xi), i
    u0 = stripes[0].u
    t0 = (dot(u0, z) - stripes[0].alpha - stripes[0].xi) / dot(u0, u0)
    first_step = z - res.first_coefficient * u0
    np.testing.assert_allclose(first_step, z - t0 * u0, rtol=0.0,
                               atol=1e-12 * (norm(z) + abs(t0) * norm(u0)))
    np.testing.assert_allclose(first_step, first_step_point, rtol=0.0,
                               atol=1e-12 * (norm(z) + abs(t0) * norm(u0)))

    # Agreement with the reference where round-off cannot decide.
    assume(cond <= MAX_COND and margin > MIN_TIE_MARGIN)
    assert res.skipped == skipped
    assert res.n_dropped == n_dropped
    length = length_scale(z, stripes, coeffs) + max(
        (abs(s.alpha) + s.xi) / norm(s.u) for s in stripes)
    np.testing.assert_allclose(res.point, point, rtol=0.0, atol=RTOL * length)
    u_norms = np.array([norm(s.u) for s in stripes])
    np.testing.assert_allclose(res.coefficients * u_norms, coeffs * u_norms,
                               rtol=0.0, atol=RTOL * length)
