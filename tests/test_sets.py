"""Membership, scaling and atypicality for the set shapes."""

import numpy as np
import pytest

import gaussmax as gm
from helpers import random_spd

EXAMPLE_POLY = gm.Polyhedron(
    np.array([[2.0, 1.0], [1.0, 1.0], [1.0, 2.0]]), np.array([4.0, 3.0, 4.0])
)


class TestBlock:
    def test_membership_with_closed_boundary(self):
        block = gm.Block(np.array([2.0, 2.0]))
        assert block.contains([2.0, 2.0]) is True
        assert block.contains([2.0, 5.0])
        assert not block.contains([1.999, 5.0])

    def test_scale_example(self):
        scaled = gm.Block(np.array([1.0, 2.0])).scale([3.0, 3.0])
        np.testing.assert_allclose(scaled.corner, [3.0, 6.0])

    def test_scale_rejects_matrix(self):
        with pytest.raises(ValueError):
            gm.Block(np.array([1.0, 2.0])).scale(np.array([[1.0, 0.1], [0.0, 1.0]]))

    def test_dimension_mismatch(self):
        with pytest.raises(gm.DimensionMismatch):
            gm.Block(np.array([1.0, 1.0])).contains([1.0, 1.0, 1.0])


class TestHalfspace:
    def test_membership(self):
        half = gm.Halfspace(np.array([1.0, 1.0]), 2.0)
        assert not half.contains([0.0, 0.0])
        assert half.contains([2.0, 0.0])
        assert half.contains([1.0, 1.0])

    def test_zero_normal_rejected(self):
        with pytest.raises(ValueError):
            gm.Halfspace(np.zeros(2), 1.0)

    def test_scale_divides_normal(self):
        scaled = gm.Halfspace(np.array([2.0, 1.0]), 3.0).scale([2.0, 1.0])
        np.testing.assert_allclose(scaled.normal, [1.0, 1.0])
        assert scaled.offset == 3.0


class TestPolyhedron:
    @pytest.mark.parametrize("d", [1, 2, 10])
    @pytest.mark.parametrize("rows", [1, 3, 12])
    def test_slack_many_matches_the_point_major_form(self, d, rows):
        # Both forms are BLAS products, whose kernels may round the rows
        # past their last full block differently: agreement is to the
        # rounding of the terms, and the memberships are the same.
        rng = np.random.default_rng(1000 * d + rows)
        poly = gm.Polyhedron(rng.standard_normal((rows, d)), rng.standard_normal(rows))
        buffer = rng.standard_normal((1003, d))
        # The samplers pass a leading-row slice of a larger scratch array.
        for points in (buffer, buffer[:517], buffer[:1]):
            old = (points @ poly.constraints.T - poly.offsets).min(axis=1)
            new = poly.slack_many(points)
            assert new.shape == (len(points),)
            terms = np.abs(points) @ np.abs(poly.constraints.T) + np.abs(poly.offsets)
            assert np.all(np.abs(new - old) <= 4.0 * np.finfo(float).eps * terms.max(axis=1))
            assert np.array_equal(new >= 0.0, old >= 0.0)

    def test_membership_example(self):
        assert EXAMPLE_POLY.contains([1.5, 1.5])
        assert EXAMPLE_POLY.contains([3.0, 3.0])
        assert not EXAMPLE_POLY.contains([1.0, 1.0])

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
                assert scaled.contains(diag * x) == target.contains(x)
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


class TestWhitened:
    @pytest.mark.parametrize("index", range(len(_battery_sets())))
    def test_hits_match_the_mapped_points(self, index):
        # x = mean + shift + C z under a correlated sigma and a nonzero mean;
        # the two tests may differ only within rounding of the boundary.
        target = _battery_sets()[index]
        d = target.dimension
        rng = np.random.default_rng(97 + index)
        chol = gm.build_covariance(random_spd(rng, d)).chol_lower
        mean, shift = rng.normal(size=d), rng.uniform(1.0, 3.0, size=d)
        z = 2.0 * rng.standard_normal((20_000, d))
        x = mean + shift + z @ chol.T
        got = target.whitened(mean + shift, chol)(z)
        want = target.contains_many(x)
        assert 0 < want.sum() < len(z)
        assert np.abs(target.slack_many(x[got != want])).max(initial=0.0) <= 1e-9


class TestAtypicality:
    def test_flag_marks_the_origin_outside(self):
        typical = [
            gm.Block(np.array([-1.0, -1.0])),
            gm.Halfspace(np.array([1.0, 1.0]), -0.5),
            gm.Ellipsoid(np.zeros(2), np.eye(2), 1.0),
        ]
        for target in _battery_sets():
            assert target.is_atypical()
        for target in typical:
            assert not target.is_atypical()
