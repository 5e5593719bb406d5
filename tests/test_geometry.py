"""Unit tests for the stripe geometry and its vector-space test reference.

The Stripe record and the hyperplane, halfspace and single-stripe
projections are the test reference's (tests/reference.py); the tests of
them here check the reference itself.
"""

import numpy as np
import pytest

from reference import (
    Hyperplane,
    Stripe,
    StripeSide,
    classify,
    lower,
    project_halfspace,
    project_hyperplane,
    project_stripe,
    push,
    ring_of,
    upper,
)
from tgss.geometry import (
    DependentDirectionsError,
    InvalidStripeError,
    ProjectionPreconditionError,
    StripeRing,
    project_hyperplane_intersection,
    sequential_stripe_projection,
)
from tgss.numkernel import ALIGN, DENSE_CAP, DimensionError, dot, norm, solve_spd_dense


class TestConstruction:
    def test_zero_direction_rejected(self):
        with pytest.raises(InvalidStripeError):
            Hyperplane(np.zeros(3), 1.0)
        with pytest.raises(InvalidStripeError):
            Stripe(np.zeros(2), 0.0, 1.0)

    def test_non_finite_direction_accepted(self):
        # Only an all-zero direction is invalid; a NaN entry is not zero.
        Stripe(np.array([np.nan, 0.0]), 0.0, 1.0)

    def test_direction_whose_square_underflows_rejected(self):
        # ||u||^2 underflows to 0, as in StripeRing.push.
        u = np.array([1e-200, 0.0])
        with pytest.raises(InvalidStripeError):
            Stripe(u, 0.0, 1.0)
        with pytest.raises(InvalidStripeError):
            Hyperplane(u, 0.0)

    def test_negative_width_rejected(self):
        with pytest.raises(InvalidStripeError):
            Stripe(np.array([1.0, 0.0]), 0.0, -0.1)

    def test_boundaries(self):
        s = Stripe(np.array([1.0, 0.0]), 2.0, 0.5)
        assert upper(s).alpha == 2.5
        assert lower(s).alpha == 1.5


class TestProjectHyperplane:
    def test_axis_aligned(self):
        p = project_hyperplane(np.array([5.0, 7.0]), Hyperplane(np.array([1.0, 0.0]), 2.0))
        np.testing.assert_allclose(p, [2.0, 7.0])

    def test_point_on_plane_unchanged(self):
        plane = Hyperplane(np.array([1.0, 2.0]), 3.0)
        x = np.array([1.0, 1.0])  # <u, x> = 3
        np.testing.assert_allclose(project_hyperplane(x, plane), x)

    def test_diagonal(self):
        p = project_hyperplane(np.array([1.0, 1.0]), Hyperplane(np.array([1.0, 1.0]), 0.0))
        np.testing.assert_allclose(p, [0.0, 0.0], atol=1e-15)

    def test_result_on_plane_random(self):
        rng = np.random.Generator(np.random.PCG64(10))
        for _ in range(100):
            n = int(rng.integers(2, 9))
            plane = Hyperplane(rng.standard_normal(n), rng.standard_normal())
            x = 3.0 * rng.standard_normal(n)
            p = project_hyperplane(x, plane)
            tol = 1e-12 * (abs(plane.alpha) + norm(plane.u) * norm(x))
            assert abs(dot(plane.u, p) - plane.alpha) <= tol


class TestProjectHalfspace:
    def test_already_feasible(self):
        x = np.array([-1.0, 5.0])
        np.testing.assert_allclose(project_halfspace(x, np.array([1.0, 0.0]), 0.0), x)

    def test_infeasible_projects_to_boundary(self):
        p = project_halfspace(np.array([3.0, 5.0]), np.array([1.0, 0.0]), 0.0)
        np.testing.assert_allclose(p, [0.0, 5.0])

    def test_unnormalized_direction(self):
        # step length (6 - 4) / 4 = 0.5 along u = (0, 2)
        p = project_halfspace(np.array([9.0, 3.0]), np.array([0.0, 2.0]), 4.0)
        np.testing.assert_allclose(p, [9.0, 2.0])


class TestClassify:
    def test_sides(self):
        s = Stripe(np.array([1.0, 0.0]), 0.0, 1.0)
        assert classify(np.array([0.5, 9.0]), s) is StripeSide.INSIDE
        assert classify(np.array([2.0, 0.0]), s) is StripeSide.ABOVE
        assert classify(np.array([-3.0, 0.0]), s) is StripeSide.BELOW

    def test_boundary_counts_as_inside(self):
        s = Stripe(np.array([1.0, 0.0]), 0.0, 1.0)
        assert classify(np.array([-1.0, 0.0]), s) is StripeSide.INSIDE
        assert classify(np.array([1.0, 0.0]), s) is StripeSide.INSIDE


class TestProjectStripe:
    def test_above_hits_upper_boundary(self):
        s = Stripe(np.array([1.0, 0.0]), 0.0, 1.0)
        np.testing.assert_allclose(project_stripe(np.array([3.0, 2.0]), s), [1.0, 2.0])

    def test_inside_unchanged(self):
        s = Stripe(np.array([1.0, 0.0]), 0.0, 1.0)
        x = np.array([0.3, -2.0])
        np.testing.assert_allclose(project_stripe(x, s), x)

    def test_below_hits_lower_boundary(self):
        s = Stripe(np.array([1.0, 0.0]), 0.0, 1.0)
        np.testing.assert_allclose(project_stripe(np.array([-4.0, 0.0]), s), [-1.0, 0.0])

    def test_idempotent_random(self):
        rng = np.random.Generator(np.random.PCG64(11))
        for _ in range(100):
            n = int(rng.integers(2, 8))
            s = Stripe(rng.standard_normal(n), rng.standard_normal(),
                       abs(rng.standard_normal()))
            x = 3.0 * rng.standard_normal(n)
            p = project_stripe(x, s)
            # re-projection may move the point by round-off only
            assert norm(project_stripe(p, s) - p) <= 1e-9


class TestProjectHyperplaneIntersection:
    def test_orthogonal_axis_planes(self):
        planes = [Hyperplane(np.array([1.0, 0.0, 0.0]), 0.0),
                  Hyperplane(np.array([0.0, 1.0, 0.0]), 0.0)]
        p, t = project_hyperplane_intersection(np.array([3.0, 4.0, 7.0]), planes)
        np.testing.assert_allclose(p, [0.0, 0.0, 7.0], atol=1e-14)
        np.testing.assert_allclose(t, [3.0, 4.0], atol=1e-14)

    def test_single_plane_matches_hyperplane_projection(self):
        rng = np.random.Generator(np.random.PCG64(12))
        for _ in range(20):
            plane = Hyperplane(rng.standard_normal(5), rng.standard_normal())
            x = rng.standard_normal(5)
            p, _ = project_hyperplane_intersection(x, [plane])
            np.testing.assert_allclose(p, project_hyperplane(x, plane), atol=1e-13)

    def test_unique_intersection_point(self):
        # Lines x1 = 1 and x1 + x2 = 0 meet only at (1, -1); every input
        # must project there.
        planes = [Hyperplane(np.array([1.0, 0.0]), 1.0),
                  Hyperplane(np.array([1.0, 1.0]), 0.0)]
        rng = np.random.Generator(np.random.PCG64(13))
        for _ in range(20):
            x = 5.0 * rng.standard_normal(2)
            p, _ = project_hyperplane_intersection(x, planes)
            np.testing.assert_allclose(p, [1.0, -1.0], atol=1e-12)

    def test_dependent_directions_raise(self):
        planes = [Hyperplane(np.array([1.0, 0.0]), 0.0),
                  Hyperplane(np.array([2.0, 0.0]), 1.0)]
        with pytest.raises(DependentDirectionsError):
            project_hyperplane_intersection(np.array([1.0, 1.0]), planes)

    def test_result_on_every_plane(self):
        rng = np.random.Generator(np.random.PCG64(14))
        for _ in range(50):
            n = int(rng.integers(3, 9))
            k = int(rng.integers(1, 4))
            planes = [Hyperplane(rng.standard_normal(n), rng.standard_normal())
                      for _ in range(k)]
            x = rng.standard_normal(n)
            p, _ = project_hyperplane_intersection(x, planes)
            scale = max(norm(pl.u) * (norm(x) + norm(p)) + abs(pl.alpha)
                        for pl in planes)
            for pl in planes:
                assert abs(dot(pl.u, p) - pl.alpha) <= 1e-10 * max(scale, 1.0)


class TestSequentialStripeProjection:
    def test_single_stripe_reduces_to_stripe_projection(self):
        s = Stripe(np.array([1.0, 0.0]), 0.0, 0.5)
        z = np.array([2.0, 1.0])
        res = sequential_stripe_projection(z, ring_of([s]))
        np.testing.assert_allclose(res.point, [0.5, 1.0], atol=1e-14)
        np.testing.assert_allclose(res.coefficients, [1.5], atol=1e-14)
        np.testing.assert_allclose(res.point, project_stripe(z, s), atol=1e-14)

    def test_second_stripe_already_satisfied_skipped(self):
        s1 = Stripe(np.array([1.0, 0.0]), 0.0, 0.0)
        s2 = Stripe(np.array([0.0, 1.0]), 0.0, 10.0)  # wide: first step lands inside
        res = sequential_stripe_projection(np.array([2.0, 1.0]), ring_of([s1, s2]))
        np.testing.assert_allclose(res.point, [0.0, 1.0], atol=1e-14)
        assert res.coefficients[1] == 0.0
        assert res.skipped == [1]

    def test_two_degenerate_stripes_reach_intersection(self):
        s1 = Stripe(np.array([1.0, 0.0]), 0.0, 0.0)
        s2 = Stripe(np.array([1.0, 1.0]), 0.0, 0.0)
        res = sequential_stripe_projection(np.array([2.0, 2.0]), ring_of([s1, s2]))
        np.testing.assert_allclose(res.point, [0.0, 0.0], atol=1e-12)

    def test_coefficients_reconstruct_point(self):
        rng = np.random.Generator(np.random.PCG64(15))
        checked = 0
        while checked < 50:
            n = int(rng.integers(2, 7))
            stripes = [Stripe(rng.standard_normal(n), rng.standard_normal(),
                              abs(rng.standard_normal()))
                       for _ in range(int(rng.integers(1, 4)))]
            z = 4.0 * rng.standard_normal(n)
            if dot(stripes[0].u, z) <= stripes[0].alpha + stripes[0].xi:
                continue
            res = sequential_stripe_projection(z, ring_of(stripes))
            rebuilt = z - sum(t * s.u for t, s in zip(res.coefficients, stripes))
            np.testing.assert_allclose(res.point, rebuilt, atol=1e-10)
            checked += 1

    def test_final_point_inside_every_stripe(self):
        rng = np.random.Generator(np.random.PCG64(16))
        checked = 0
        while checked < 100:
            n = int(rng.integers(2, 7))
            stripes = [Stripe(rng.standard_normal(n), rng.standard_normal(),
                              abs(rng.standard_normal()))
                       for _ in range(int(rng.integers(1, 4)))]
            z = 4.0 * rng.standard_normal(n)
            if dot(stripes[0].u, z) <= stripes[0].alpha + stripes[0].xi:
                continue
            res = sequential_stripe_projection(z, ring_of(stripes))
            for i, s in enumerate(stripes):
                if i in res.skipped:
                    # Either dropped as dependent or already satisfied when
                    # visited; neither joins the active boundary set.
                    continue
                assert abs(dot(s.u, res.point) - s.alpha) <= s.xi + 1e-9
            checked += 1

    def test_point_built_in_out(self):
        rng = np.random.Generator(np.random.PCG64(17))
        stripes = [Stripe(rng.standard_normal(6), 0.0, 0.1) for _ in range(3)]
        z = 10.0 * stripes[0].u
        expected = sequential_stripe_projection(z, ring_of(stripes))
        out = np.full(6, np.nan)
        res = sequential_stripe_projection(z, ring_of(stripes), out=out)
        assert res.point is out
        assert out.tobytes() == expected.point.tobytes()
        np.testing.assert_array_equal(res.coefficients, expected.coefficients)
        assert res.first_coefficient == expected.first_coefficient

    def test_precondition_violation_raises(self):
        s = Stripe(np.array([1.0, 0.0]), 0.0, 1.0)
        with pytest.raises(ProjectionPreconditionError):
            sequential_stripe_projection(np.array([0.5, 0.0]), ring_of([s]))

    def test_coefficients_match_solve_spd_dense_on_the_active_block(self):
        # The bordered Cholesky solves the normal equations of the final
        # active set A: the point lies on every active boundary, so
        # G[A, A] c_A = <u_A, z> - boundary_A, which dpotrf and dpotrs
        # solve as well.
        rng = np.random.Generator(np.random.PCG64(18))
        sizes = set()
        for _ in range(300):
            m = int(rng.integers(1, 5))
            n = m + int(rng.integers(0, 6))
            U = rng.standard_normal((m, n))
            G = U @ U.T
            if np.linalg.cond(G) > 1e3:
                continue
            stripes = [Stripe(u, rng.standard_normal(),
                              (0.1 + abs(rng.standard_normal())) * norm(u)) for u in U]
            z = 4.0 * rng.standard_normal(n)
            if dot(U[0], z) <= stripes[0].alpha + stripes[0].xi:
                continue
            res = sequential_stripe_projection(z, ring_of(stripes))
            assert res.n_dropped == 0
            active = [i for i in range(m) if i not in res.skipped]
            boundary = [stripes[i].alpha + np.copysign(stripes[i].xi,
                                                       dot(U[i], res.point) - stripes[i].alpha)
                        for i in active]
            block = G[np.ix_(active, active)]
            expected = solve_spd_dense(block, U[active] @ z - boundary)
            scale = (np.abs(U @ z).max() + max(abs(s.alpha) + s.xi for s in stripes)
                     + np.linalg.norm(block, 2) * np.linalg.norm(expected))
            atol = 1e-13 * scale / np.linalg.eigvalsh(block)[0]
            np.testing.assert_allclose([res.coefficients[i] for i in active], expected,
                                       rtol=0.0, atol=atol)
            assert all(res.coefficients[i] == 0.0 for i in res.skipped)
            sizes.add(len(active))
        assert sizes == {1, 2, 3, 4}

    def test_dependent_example_dropped(self):
        # u2 = -2 u0 lies in the span of the active u0 and u1, and its
        # stripe cannot be met together with u0's.  Left active, its
        # Cholesky pivot would be round-off and the coefficients of order
        # 1e15.
        u0 = np.zeros(9)
        u0[6:] = [1.0, 3.0, 3.0]
        e8 = np.zeros(9)
        e8[8] = 1.0
        stripes = [Stripe(u0, -np.sqrt(19.0), 0.0), Stripe(e8, 0.0, 0.0),
                   Stripe(-2.0 * u0, 0.0, 0.0)]
        res = sequential_stripe_projection(np.zeros(9), ring_of(stripes))
        assert res.skipped == [2] and res.n_dropped == 1
        assert max(abs(c) for c in res.coefficients) < 2.0
        for s in stripes[:2]:
            assert abs(dot(s.u, res.point) - s.alpha) <= 1e-14

    @pytest.mark.parametrize("scale", [1.0, -2.0])
    def test_exactly_dependent_integer_pairs_dropped(self, scale):
        # (u, u) and (u, -2u) with integer entries: the pair's Gram block
        # is exactly singular, and the second stripe is violated after the
        # first step and cannot be met with the first stripe's boundary.
        rng = np.random.Generator(np.random.PCG64(19))
        for _ in range(500):
            n = int(rng.integers(2, 41))
            u = rng.integers(-3, 4, n).astype(float)
            if not u.any():
                continue
            v = scale * u
            z = rng.integers(-4, 5, n).astype(float)
            first = Stripe(u, dot(u, z) - 1.0 - rng.random(), rng.random())
            top = first.alpha + first.xi  # <u, point> after the first step
            xi = rng.random()
            gap = (xi + 0.1 + rng.random()) * rng.choice([-1.0, 1.0])
            res = sequential_stripe_projection(
                z, ring_of([first, Stripe(v, scale * top + gap, xi)]))
            assert res.skipped == [1] and res.n_dropped == 1
            assert res.coefficients[1] == 0.0
            assert res.coefficients[0] == res.first_coefficient
            assert abs(res.coefficients[0]) * norm(u) <= 3.0

    def test_more_than_dense_cap_active_directions_raise(self):
        # z violates every one of these orthogonal stripes: all join the
        # active set, and the point lands on their upper boundaries.
        def ring(n):
            return ring_of([Stripe(row, 0.0, 1.0) for row in np.eye(n)])

        res = sequential_stripe_projection(np.full(DENSE_CAP, 5.0), ring(DENSE_CAP))
        assert res.skipped == []
        np.testing.assert_array_equal(res.point, np.ones(DENSE_CAP))
        with pytest.raises(DimensionError, match="DENSE_CAP"):
            sequential_stripe_projection(np.full(DENSE_CAP + 1, 5.0), ring(DENSE_CAP + 1))

    def test_parallel_older_stripe_dropped(self):
        s1 = Stripe(np.array([1.0, 0.0]), 0.0, 0.0)
        s2 = Stripe(np.array([2.0, 0.0]), 5.0, 0.0)  # parallel to s1, incompatible
        res = sequential_stripe_projection(np.array([2.0, 1.0]), ring_of([s1, s2]))
        np.testing.assert_allclose(res.point, [0.0, 1.0], atol=1e-14)
        assert res.n_dropped == 1


def bits(values):
    """The bytes of a list of floats, or of a list of such lists, as float64."""
    return np.array(values, dtype=float).tobytes()


def random_stripes(rng, count, n):
    return [Stripe(rng.standard_normal(n), rng.standard_normal(),
                   abs(rng.standard_normal())) for _ in range(count)]


class TestStripeRing:
    def test_holds_newest_first_and_drops_the_oldest(self):
        rng = np.random.Generator(np.random.PCG64(21))
        stripes = random_stripes(rng, 5, 7)
        ring = StripeRing(3, (7,))
        for s in stripes:
            push(ring, s)
        assert len(ring) == 3
        for i, s in enumerate(reversed(stripes[2:])):
            assert ring.alpha[i] == s.alpha and ring.xi[i] == s.xi
            assert ring.direction(i).tobytes() == s.u.tobytes()
            for j, t in enumerate(reversed(stripes[2:])):
                # Each entry is one np.dot of the pair, in either order.
                assert ring.gram[i][j] == np.dot(s.u, t.u)
        assert [len(row) for row in ring.gram] == [3, 3, 3]
        held = ring.alpha + ring.xi + [g for row in ring.gram for g in row]
        assert all(type(g) is float for g in held)

    def test_rows_start_on_a_cache_line(self):
        # 13 doubles are not a whole number of cache lines: the rows are padded.
        rng = np.random.Generator(np.random.PCG64(20))
        ring = StripeRing(3, (13,))
        assert all(row.ctypes.data % ALIGN == 0 for row in ring.directions)
        for s in random_stripes(rng, 4, 13):
            push(ring, s)
            assert ring.slot().ctypes.data % ALIGN == 0
        assert all(ring.direction(i).ctypes.data % ALIGN == 0 for i in range(3))

    def test_direction_built_in_slot_is_not_copied(self):
        rng = np.random.Generator(np.random.PCG64(22))
        ring = StripeRing(2, (5,))
        for s in random_stripes(rng, 4, 5):
            slot = ring.slot()
            oldest = ring.direction(len(ring) - 1) if len(ring) == 2 else None
            np.copyto(slot, s.u)
            ring.push(s.alpha, s.xi)
            assert ring.direction(0) is slot
            if oldest is not None:
                # A full ring hands out its oldest stripe's row.
                assert slot is oldest

    def test_carried_gram_matches_a_fresh_projection(self):
        # A run's ring gives the same bits as a fresh ring of the same stripes.
        rng = np.random.Generator(np.random.PCG64(23))
        ring = StripeRing(3, (6,))
        stripes = []
        for _ in range(6):
            u = rng.standard_normal(6)
            z = 5.0 * u + rng.standard_normal(6)
            s = Stripe(u, dot(u, z) - 3.0, 0.5)
            push(ring, s)
            stripes = ([s] + stripes)[:3]
            a = sequential_stripe_projection(z, ring, uz0=dot(u, z))
            b = sequential_stripe_projection(z, ring_of(stripes))
            assert a.point.tobytes() == b.point.tobytes()
            assert bits(a.coefficients) == bits(b.coefficients)
            assert a.skipped == b.skipped and a.n_dropped == b.n_dropped

    def test_containment_slack_matches_inner_products(self):
        rng = np.random.Generator(np.random.PCG64(24))
        for _ in range(20):
            stripes = random_stripes(rng, 3, 8)
            z = 10.0 * stripes[0].u + rng.standard_normal(8)
            if dot(stripes[0].u, z) <= stripes[0].alpha + stripes[0].xi:
                continue
            res = sequential_stripe_projection(z, ring_of(stripes))
            direct = max(abs(dot(s.u, res.point) - s.alpha) - s.xi for s in stripes)
            scale = max(norm(s.u) for s in stripes) * (norm(z) + norm(res.point))
            assert type(res.containment_slack) is float
            assert abs(res.containment_slack - direct) <= 1e-12 * scale

    @pytest.mark.parametrize("capacity", [1, 2, 3, 4])
    def test_gram_exactly_symmetric_after_every_push(self, capacity):
        # One inner product per pair fills both triangles, so the Gram
        # rows the projection factors are symmetric with no tolerance.
        rng = np.random.Generator(np.random.PCG64(25 + capacity))
        ring = StripeRing(capacity, (9,))
        for k, s in enumerate(random_stripes(rng, 3 * capacity + 2, 9)):
            push(ring, s)
            m = len(ring)
            G = np.array(ring.gram)
            assert G.shape == (m, m), k
            assert G.tobytes() == G.T.copy().tobytes(), k

    @pytest.mark.parametrize("filled", [0, 1, 3])
    def test_zero_direction_rejected_without_changing_the_ring(self, filled):
        rng = np.random.Generator(np.random.PCG64(30 + filled))
        ring = StripeRing(3, (6,))
        for s in random_stripes(rng, filled, 6):
            push(ring, s)
        m = len(ring)
        held = [ring.direction(i).copy() for i in range(m)]
        before = ([row[:] for row in ring.gram], ring.alpha[:], ring.xi[:],
                  [id(ring.direction(i)) for i in range(m)])
        ring.slot()[:] = 0.0
        with pytest.raises(InvalidStripeError):
            ring.push(1.0, 0.5)
        # On a full ring the zero direction took the oldest stripe's row:
        # that stripe has left.  Otherwise nothing moved.
        kept = m - 1 if m == 3 else m
        assert len(ring) == kept
        assert bits(ring.gram) == bits([row[:kept] for row in before[0][:kept]])
        assert bits(ring.alpha) == bits(before[1][:kept])
        assert bits(ring.xi) == bits(before[2][:kept])
        assert [id(ring.direction(i)) for i in range(kept)] == before[3][:kept]
        for i in range(kept):
            assert ring.direction(i).tobytes() == held[i].tobytes()

        # The ring stays consistent: the next pushes fill it as usual.
        for s in random_stripes(rng, 2, 6):
            push(ring, s)
        n = len(ring)
        rows = [ring.direction(i) for i in range(n)]
        assert len({id(r) for r in rows}) == n
        for i in range(n):
            for j in range(n):
                assert ring.gram[i][j] == np.dot(rows[i], rows[j])

    def test_direction_whose_square_underflows_counts_as_zero(self):
        ring = StripeRing(2, (2,))
        ring.slot()[:] = [1e-200, 0.0]
        with pytest.raises(InvalidStripeError):
            ring.push(0.0, 1.0)
        assert len(ring) == 0

    def test_shape_mismatch_rejected(self):
        ring = StripeRing(2, (3,))
        with pytest.raises(DimensionError, match="at least one stripe"):
            sequential_stripe_projection(np.full(3, 5.0), ring)
        push(ring, Stripe(np.ones(3), 0.0, 1.0))
        with pytest.raises(DimensionError, match="shape"):
            sequential_stripe_projection(np.full(4, 5.0), ring)
