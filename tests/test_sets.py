"""Membership, projection, scaling, and interior points for the set shapes."""

import math

import numpy as np
import pytest
from scipy import optimize

import gaussmax as gm
from helpers import feasible_samples, least_distance_argmin

EXAMPLE_POLY = gm.Polyhedron(
    np.array([[2.0, 1.0], [1.0, 1.0], [1.0, 2.0]]), np.array([4.0, 3.0, 4.0])
)


def random_feasible_polyhedron(rng, d, m):
    """Polyhedron guaranteed nonempty: offsets leave slack at a known point."""
    rows = rng.standard_normal((m, d))
    anchor = rng.uniform(-2.0, 2.0, size=d)
    slack = rng.uniform(0.5, 2.0, size=m)
    return gm.Polyhedron(rows, rows @ anchor - slack)


class TestMembership:
    def test_indicator_values(self):
        assert gm.Membership.INSIDE.indicator == 0.0
        assert gm.Membership.OUTSIDE.indicator == -math.inf

    def test_truthiness(self):
        assert bool(gm.Membership.INSIDE)
        assert not bool(gm.Membership.OUTSIDE)


class TestBlock:
    def test_membership_with_closed_boundary(self):
        block = gm.Block(np.array([2.0, 2.0]))
        assert block.contains([2.0, 2.0])
        assert block.contains([2.0, 5.0])
        assert not block.contains([1.999, 5.0])

    def test_projection_example(self):
        block = gm.Block(np.array([2.0, 2.0]))
        np.testing.assert_allclose(block.project([0.0, 0.0]), [2.0, 2.0])
        np.testing.assert_allclose(block.project([3.0, 1.0]), [3.0, 2.0])
        np.testing.assert_allclose(block.project([3.0, 4.0]), [3.0, 4.0])

    def test_scale_example(self):
        scaled = gm.Block(np.array([1.0, 2.0])).scale([3.0, 3.0])
        np.testing.assert_allclose(scaled.corner, [3.0, 6.0])

    def test_scale_accepts_diagonal_matrix(self):
        scaled = gm.Block(np.array([1.0, 2.0])).scale(np.diag([3.0, 0.5]))
        np.testing.assert_allclose(scaled.corner, [3.0, 1.0])

    def test_scale_rejects_nondiagonal(self):
        with pytest.raises(ValueError):
            gm.Block(np.array([1.0, 2.0])).scale(np.array([[1.0, 0.1], [0.0, 1.0]]))

    def test_interior_point(self):
        block = gm.Block(np.array([-1.0, 4.0]))
        p = block.interior_point()
        np.testing.assert_allclose(p, [0.0, 5.0])
        assert block.min_slack(p) == pytest.approx(1.0)

    def test_dimension_mismatch(self):
        with pytest.raises(gm.DimensionMismatch):
            gm.Block(np.array([1.0, 1.0])).contains([1.0, 1.0, 1.0])


class TestHalfspace:
    def test_membership(self):
        half = gm.Halfspace(np.array([1.0, 1.0]), 2.0)
        assert not half.contains([0.0, 0.0])
        assert half.contains([2.0, 0.0])
        assert half.contains([1.0, 1.0])

    def test_projection_example(self):
        half = gm.Halfspace(np.array([1.0, 1.0]), 2.0)
        np.testing.assert_allclose(half.project([0.0, 0.0]), [1.0, 1.0], atol=1e-14)

    def test_projection_fixed_inside(self):
        half = gm.Halfspace(np.array([1.0, 1.0]), 2.0)
        np.testing.assert_allclose(half.project([3.0, 1.0]), [3.0, 1.0])

    def test_interior_slack_equals_normal_length(self):
        half = gm.Halfspace(np.array([3.0, 4.0]), 5.0)
        p = half.interior_point()
        assert half.min_slack(p) == pytest.approx(5.0)

    def test_zero_normal_rejected(self):
        with pytest.raises(ValueError):
            gm.Halfspace(np.zeros(2), 1.0)

    def test_scale_divides_normal(self):
        scaled = gm.Halfspace(np.array([2.0, 1.0]), 3.0).scale([2.0, 1.0])
        np.testing.assert_allclose(scaled.normal, [1.0, 1.0])
        assert scaled.offset == 3.0


class TestPolyhedron:
    def test_membership_example(self):
        assert EXAMPLE_POLY.contains([1.5, 1.5])
        assert EXAMPLE_POLY.contains([3.0, 3.0])
        assert not EXAMPLE_POLY.contains([1.0, 1.0])

    def test_projection_example(self):
        # The middle row forces x1 + x2 >= 3, so the norm of any feasible
        # point is at least 3/sqrt(2) with equality only at (1.5, 1.5).
        np.testing.assert_allclose(
            EXAMPLE_POLY.project([0.0, 0.0]), [1.5, 1.5], atol=1e-7
        )

    def test_projection_fixed_inside(self):
        np.testing.assert_allclose(EXAMPLE_POLY.project([4.0, 4.0]), [4.0, 4.0])

    def test_projection_matches_constrained_qp(self):
        rng = np.random.default_rng(101)
        for _ in range(20):
            d = int(rng.integers(2, 5))
            poly = random_feasible_polyhedron(rng, d, int(rng.integers(d, 2 * d + 3)))
            x = rng.uniform(-6.0, 6.0, size=d)
            ours = poly.project(x)
            res = optimize.minimize(
                lambda y: float((y - x) @ (y - x)),
                x0=poly.interior_point(),
                jac=lambda y: 2.0 * (y - x),
                hess=lambda y: 2.0 * np.eye(d),
                constraints=[
                    optimize.LinearConstraint(poly.constraints, poly.offsets, np.inf)
                ],
                method="trust-constr",
                options={"maxiter": 2000, "gtol": 1e-12, "xtol": 1e-16, "barrier_tol": 1e-14},
            )
            assert res.status in (1, 2)
            # The reference solver keeps a barrier margin, so compare by
            # objective: our point must be feasible and at least as close.
            viol = float(np.maximum(poly.offsets - poly.constraints @ ours, 0.0).max())
            assert viol <= 1e-8
            f_ours = float((ours - x) @ (ours - x))
            f_ref = float((res.x - x) @ (res.x - x))
            assert f_ours <= f_ref + 1e-6
            assert np.linalg.norm(ours - res.x) < 1e-3

    @pytest.mark.parametrize("d", [2, 5, 10, 20])
    def test_projection_matches_least_distance_oracle(self, d):
        rng = np.random.default_rng(200 + d)
        rows = rng.standard_normal((2 * d, d))
        anchor = rng.uniform(-2.0, 2.0, size=d)
        poly = gm.Polyhedron(rows, rows @ anchor - rng.uniform(0.5, 2.0, size=2 * d))
        outside = rng.uniform(-8.0, 8.0, size=(60, d))
        # Moves of at most 0.4 / max_i |row_i|_1 keep every slack above 0.1.
        step = 0.4 / np.abs(rows).sum(axis=1).max()
        inside = anchor + rng.uniform(-step, step, size=(20, d))
        pts = np.vstack([outside, inside])
        proj = poly.project_many(pts)
        for x, p in zip(outside, proj):
            want = least_distance_argmin(np.eye(d), poly.constraints, poly.offsets, x)
            assert np.linalg.norm(p - want) <= 1e-9 * (1.0 + np.linalg.norm(want))
        # In-set points come back bit for bit.
        np.testing.assert_array_equal(proj[60:], inside)

    def test_flat_polyhedron(self):
        # The line x1 = 1: projection is exact, but there is no interior.
        flat = gm.Polyhedron(np.array([[1.0, 0.0], [-1.0, 0.0]]), np.array([1.0, -1.0]))
        np.testing.assert_array_equal(
            flat.project_many(np.array([[0.0, 0.0], [3.0, 5.0], [-2.0, -0.5]])),
            [[1.0, 0.0], [1.0, 5.0], [1.0, -0.5]],
        )
        with pytest.raises(gm.EmptyInterior):
            flat.interior_point()

    def test_interior_point_far_triangle(self):
        # Legs of 1e6 from the corner (1e6, 1e6): the inradius is about 2.9e5.
        far = gm.Polyhedron(
            np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]]), np.array([1e6, 1e6, -3e6])
        )
        assert far.min_slack(far.interior_point()) >= 1e5

    def test_interior_point_far_cube(self):
        cube = gm.Polyhedron(
            np.vstack([np.eye(3), -np.eye(3)]),
            np.concatenate([np.full(3, 1e9), np.full(3, -1e9 - 1.0)]),
        )
        assert cube.min_slack(cube.interior_point()) == pytest.approx(0.5)

    def test_interior_point_is_never_outside(self):
        # A Chebyshev radius near 1e-8, below the LP solver's feasibility
        # tolerance: its own r clears the floor at a point that is outside.
        thin = gm.Polyhedron(
            np.array([[-1.72, 1.3], [0.58, -0.02], [1.16, -0.96], [-0.07, 1.73], [0.98, -2.23]]),
            np.array([-17.700000019, 3.039999984, 12.519999987, -12.460000014999999, 20.509999991999997]),
        )
        try:
            p = thin.interior_point()
        except gm.EmptyInterior:
            return
        assert thin.min_slack(p) > 0.0

    def test_interior_point_example_slack(self):
        p = EXAMPLE_POLY.interior_point()
        assert EXAMPLE_POLY.min_slack(p) >= 0.3

    def test_interior_point_high_dimension(self):
        rng = np.random.default_rng(55)
        poly = random_feasible_polyhedron(rng, 5, 9)
        p = poly.interior_point()
        assert poly.min_slack(p) > 1e-6

    def test_infeasible_projection_fails(self):
        # The least-distance solve proves the set empty, as it does for
        # dominating_point on the same set.
        empty = gm.Polyhedron(np.array([[1.0], [-1.0]]), np.array([1.0, 1.0]))
        with pytest.raises(gm.EmptyInterior, match="infeasible"):
            empty.project([0.0])

    def test_infeasible_interior_fails(self):
        empty = gm.Polyhedron(np.array([[1.0], [-1.0]]), np.array([1.0, 1.0]))
        with pytest.raises(gm.EmptyInterior):
            empty.interior_point()

    def test_offset_shape_mismatch(self):
        with pytest.raises(gm.DimensionMismatch):
            gm.Polyhedron(np.eye(2), np.array([1.0, 2.0, 3.0]))

    def test_zero_row_rejected(self):
        with pytest.raises(ValueError):
            gm.Polyhedron(np.array([[1.0, 0.0], [0.0, 0.0]]), np.array([1.0, 1.0]))


class TestEllipsoid:
    def test_membership(self):
        ball = gm.Ellipsoid(np.array([3.0, 3.0]), np.eye(2), 1.0)
        assert ball.contains([3.0, 3.0])
        assert ball.contains([4.0, 3.0])
        assert not ball.contains([4.1, 3.0])

    def test_projection_example(self):
        ball = gm.Ellipsoid(np.array([3.0, 3.0]), np.eye(2), 1.0)
        expected = 3.0 - 1.0 / math.sqrt(2.0)
        np.testing.assert_allclose(
            ball.project([0.0, 0.0]), [expected, expected], atol=1e-10
        )

    def test_projection_axis_aligned_oracle(self):
        # {4 x1^2 + x2^2 <= 4}: the projection of a far point on the long
        # axis is the vertex (1, 0) by a direct one-variable argument.
        ell = gm.Ellipsoid(np.zeros(2), np.diag([4.0, 1.0]), 2.0)
        np.testing.assert_allclose(ell.project([10.0, 0.0]), [1.0, 0.0], atol=1e-9)

    def test_projection_lands_on_boundary(self):
        rng = np.random.default_rng(61)
        ell = gm.Ellipsoid(
            np.array([1.0, -2.0, 0.5]),
            np.array([[2.0, 0.3, 0.0], [0.3, 1.0, -0.2], [0.0, -0.2, 1.5]]),
            1.3,
        )
        pts = ell.center + rng.uniform(2.0, 8.0, size=(50, 3)) * rng.choice(
            [-1.0, 1.0], size=(50, 3)
        )
        proj = ell.project_many(pts)
        assert np.all(np.abs(ell.slack_many(proj)) < 1e-9)

    def test_projection_fixed_inside(self):
        ell = gm.Ellipsoid(np.zeros(2), np.eye(2), 2.0)
        np.testing.assert_allclose(ell.project([0.5, -0.5]), [0.5, -0.5])

    def test_interior_is_center(self):
        ell = gm.Ellipsoid(np.array([3.0, 2.5]), np.eye(2), 1.0)
        np.testing.assert_allclose(ell.interior_point(), [3.0, 2.5])
        assert ell.min_slack(ell.interior_point()) == pytest.approx(1.0)

    @pytest.mark.parametrize("d", [2, 5])
    def test_slack_matches_axis_sum_bitwise(self, d):
        # The column-wise accumulation keeps the reduction's sequential
        # order for d < 8, so the reference sum agrees to the last bit.
        rng = np.random.default_rng(70 + d)
        a = rng.standard_normal((d, d))
        shape = a @ a.T + 0.5 * np.eye(d)
        ell = gm.Ellipsoid(rng.standard_normal(d), shape, 1.3)
        pts = 2.0 * rng.standard_normal((5000, d))
        evals, evecs = np.linalg.eigh(0.5 * (shape + shape.T))
        w = (pts - ell.center) @ evecs
        reference = ell.radius**2 - (w**2 * evals).sum(axis=1)
        np.testing.assert_array_equal(ell.slack_many(pts), reference)

    def test_asymmetric_shape_rejected(self):
        with pytest.raises(gm.NotPositiveDefinite):
            gm.Ellipsoid(np.zeros(2), np.array([[1.0, 0.3], [0.0, 1.0]]), 1.0)

    def test_indefinite_shape_rejected(self):
        with pytest.raises(gm.NotPositiveDefinite):
            gm.Ellipsoid(np.zeros(2), np.diag([1.0, -1.0]), 1.0)

    def test_nonpositive_radius_rejected(self):
        with pytest.raises(ValueError):
            gm.Ellipsoid(np.zeros(2), np.eye(2), 0.0)


def _battery_sets():
    return [
        gm.Block(np.array([2.0, 1.5])),
        gm.Block(np.array([1.0, -0.5, 2.0])),
        gm.Halfspace(np.array([2.0, 1.0]), 3.0),
        gm.Halfspace(np.array([1.0, -1.0, 0.5]), 1.0),
        EXAMPLE_POLY,
        gm.Ellipsoid(np.array([3.0, 2.5]), np.array([[1.0, 0.2], [0.2, 1.5]]), 1.0),
    ]


class TestProjectionContract:
    def test_optimality_against_feasible_cloud(self):
        rng = np.random.default_rng(71)
        for target in _battery_sets():
            d = target.dimension
            cloud = feasible_samples(target, 200, rng)
            for _ in range(30):
                x = rng.uniform(-4.0, 8.0, size=d)
                p = target.project(x)
                assert target.min_slack(p) >= -1e-8
                dist = np.linalg.norm(x - p)
                competitors = np.linalg.norm(cloud - x, axis=1)
                assert dist <= competitors.min() + 1e-7

    def test_idempotence(self):
        rng = np.random.default_rng(73)
        for target in _battery_sets():
            pts = rng.uniform(-5.0, 9.0, size=(40, target.dimension))
            proj = target.project_many(pts)
            again = target.project_many(proj)
            assert np.max(np.abs(again - proj)) < 1e-7

    def test_inputs_not_mutated(self):
        target = gm.Block(np.array([2.0, 2.0]))
        pts = np.zeros((3, 2))
        target.project_many(pts)
        np.testing.assert_array_equal(pts, np.zeros((3, 2)))


class TestScalingEquivariance:
    def test_membership_battery(self):
        rng = np.random.default_rng(83)
        trials = 0
        for target in _battery_sets():
            d = target.dimension
            for _ in range(170):
                diag = rng.uniform(0.2, 3.0, size=d)
                scaled = target.scale(diag)
                x = rng.uniform(-5.0, 9.0, size=d)
                assert bool(scaled.contains(diag * x)) == bool(target.contains(x))
                trials += 1
        assert trials >= 1000

    def test_identity_scale_is_noop(self):
        for target in _battery_sets():
            scaled = target.scale(np.ones(target.dimension))
            rng = np.random.default_rng(89)
            pts = rng.uniform(-4.0, 8.0, size=(50, target.dimension))
            np.testing.assert_array_equal(
                scaled.contains_many(pts), target.contains_many(pts)
            )


class TestAtypicality:
    def test_flag_matches_projection_norm(self):
        typical = [
            gm.Block(np.array([-1.0, -1.0])),
            gm.Halfspace(np.array([1.0, 1.0]), -0.5),
            gm.Ellipsoid(np.zeros(2), np.eye(2), 1.0),
        ]
        for target in _battery_sets():
            assert target.is_atypical()
            assert np.linalg.norm(target.project(np.zeros(target.dimension))) > 1e-9
        for target in typical:
            assert not target.is_atypical()
            assert np.linalg.norm(target.project(np.zeros(target.dimension))) <= 1e-9

    def test_interior_points_strictly_inside(self):
        for target in _battery_sets():
            assert target.min_slack(target.interior_point()) > 1e-9
