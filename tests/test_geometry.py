"""Unit tests for the stripe geometry and its vector-space test reference.

The Stripe record, the hyperplane, halfspace and single-stripe
projections and the projection onto an intersection of hyperplanes are
the test reference's (tests/reference.py); the tests of them here check
the reference itself.
"""

import numpy as np
import pytest

from reference import (
    DependentDirectionsError,
    Hyperplane,
    InvalidStripeError,
    Stripe,
    StripeSide,
    classify,
    coefficients,
    lower,
    project,
    project_halfspace,
    project_hyperplane,
    project_hyperplane_intersection,
    project_stripe,
    push,
    ring_of,
    solve_spd_dense,
    upper,
)
from tgss.geometry import StripeRing, sequential_stripe_projection
from tgss.numkernel import ALIGN, dot, norm


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
        # ||u||^2 underflows to 0, as in solvers.run's zero-direction check.
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
        ring = ring_of([s])
        with coefficients(ring) as c:
            res = project(z, ring)
        np.testing.assert_allclose(res.point, [0.5, 1.0], atol=1e-14)
        np.testing.assert_allclose(c, [1.5], atol=1e-14)
        np.testing.assert_allclose(res.point, project_stripe(z, s), atol=1e-14)

    def test_second_stripe_already_satisfied_skipped(self):
        s1 = Stripe(np.array([1.0, 0.0]), 0.0, 0.0)
        s2 = Stripe(np.array([0.0, 1.0]), 0.0, 10.0)  # wide: first step lands inside
        ring = ring_of([s1, s2])
        with coefficients(ring) as c:
            res = project(np.array([2.0, 1.0]), ring)
        np.testing.assert_allclose(res.point, [0.0, 1.0], atol=1e-14)
        assert c[1] == 0.0
        assert res.skipped == [1]

    def test_two_degenerate_stripes_reach_intersection(self):
        s1 = Stripe(np.array([1.0, 0.0]), 0.0, 0.0)
        s2 = Stripe(np.array([1.0, 1.0]), 0.0, 0.0)
        res = project(np.array([2.0, 2.0]), ring_of([s1, s2]))
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
            ring = ring_of(stripes)
            with coefficients(ring) as c:
                res = project(z, ring)
            rebuilt = z - sum(t * s.u for t, s in zip(c, stripes))
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
            res = project(z, ring_of(stripes))
            for i, s in enumerate(stripes):
                if i in res.skipped:
                    # Either dropped as dependent or already satisfied when
                    # visited; neither joins the active boundary set.
                    continue
                assert abs(dot(s.u, res.point) - s.alpha) <= s.xi + 1e-9
            checked += 1

    def test_point_built_in_z(self):
        # The point overwrites z's own array: no copy, no new array.
        rng = np.random.Generator(np.random.PCG64(17))
        stripes = [Stripe(rng.standard_normal(6), 0.0, 0.1) for _ in range(3)]
        z = 10.0 * stripes[0].u
        expected = project(z, ring_of(stripes))
        ring = ring_of(stripes)
        w = z.copy()
        res = sequential_stripe_projection(w, ring, [dot(s.u, z) for s in stripes])
        assert res.point is w
        assert w.tobytes() == expected.point.tobytes()

    def test_first_step_has_the_bits_of_lapack(self):
        # b / G_00 rounds differently from dpotrf + dpotrs in many of these
        # draws; b (1/sqrt G_00)(1/sqrt G_00) must match every one.
        rng = np.random.Generator(np.random.PCG64(31))
        ring = StripeRing(1, (1,))
        for u, b in zip(np.exp(rng.uniform(-20.0, 20.0, 2000)),
                        np.exp(rng.uniform(-40.0, 40.0, 2000))):
            ring.slot()[0] = u
            ring.push(0.0, 0.0)
            with coefficients(ring) as c:
                sequential_stripe_projection(np.zeros(1), ring, [float(b)])
            expected = solve_spd_dense(np.array([ring.gram[0]]), np.array([b]))[0]
            assert c[0] == expected

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
            ring = ring_of(stripes)
            with coefficients(ring) as c:
                res = project(z, ring)
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
            np.testing.assert_allclose([c[i] for i in active], expected,
                                       rtol=0.0, atol=atol)
            assert all(c[i] == 0.0 for i in res.skipped)
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
        ring = ring_of(stripes)
        with coefficients(ring) as c:
            res = project(np.zeros(9), ring)
        assert res.skipped == [2] and res.n_dropped == 1
        assert max(abs(t) for t in c) < 2.0
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
            ring = ring_of([first, Stripe(v, scale * top + gap, xi)])
            with coefficients(ring) as c:
                res = project(z, ring)
            # The first step alone: the projection on the first stripe.
            first_ring = ring_of([first])
            with coefficients(first_ring) as c_first:
                project(z, first_ring)
            assert res.skipped == [1] and res.n_dropped == 1
            assert c[1] == 0.0
            assert c[0] == c_first[0]
            assert abs(c[0]) * norm(u) <= 3.0

    def test_twenty_violated_orthogonal_stripes_all_join(self):
        # z violates every one of these orthogonal stripes: all join the
        # active set, which has no size limit, and the point lands on
        # their upper boundaries.
        ring = ring_of([Stripe(row, 0.0, 1.0) for row in np.eye(20)])
        with coefficients(ring) as c:
            res = project(np.full(20, 5.0), ring)
        assert res.skipped == [] and res.n_dropped == 0
        np.testing.assert_array_equal(res.point, np.ones(20))
        assert c == [4.0] * 20

    def test_parallel_older_stripe_dropped(self):
        s1 = Stripe(np.array([1.0, 0.0]), 0.0, 0.0)
        s2 = Stripe(np.array([2.0, 0.0]), 5.0, 0.0)  # parallel to s1, incompatible
        res = project(np.array([2.0, 1.0]), ring_of([s1, s2]))
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
            uz = [dot(ring.direction(i), z) for i in range(len(ring))]
            with coefficients(ring) as c_a:
                a = sequential_stripe_projection(z.copy(), ring, uz)
            fresh = ring_of(stripes)
            with coefficients(fresh) as c_b:
                b = project(z, fresh)
            assert a.point.tobytes() == b.point.tobytes()
            assert bits(c_a) == bits(c_b)
            assert a.skipped == b.skipped and a.n_dropped == b.n_dropped

    def test_containment_slack_matches_inner_products(self):
        rng = np.random.Generator(np.random.PCG64(24))
        for _ in range(20):
            stripes = random_stripes(rng, 3, 8)
            z = 10.0 * stripes[0].u + rng.standard_normal(8)
            if dot(stripes[0].u, z) <= stripes[0].alpha + stripes[0].xi:
                continue
            res = project(z, ring_of(stripes))
            direct = max(abs(dot(s.u, res.point) - s.alpha) - s.xi for s in stripes)
            scale = max(norm(s.u) for s in stripes) * (norm(z) + norm(res.point))
            assert type(res.containment_slack) is float
            assert abs(res.containment_slack - direct) <= 1e-12 * scale
            # u_point, <u_i, point> from the coefficients, which the slack uses.
            for s, up in zip(stripes, res.u_point, strict=True):
                assert type(up) is float
                assert abs(up - dot(s.u, res.point)) <= 1e-12 * scale

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
