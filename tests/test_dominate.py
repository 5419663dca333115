"""Dominating-point solver, corner formulas, rates, and certificates."""

import math

import numpy as np
import pytest

import gaussmax as gm
from gaussmax.dominate import KKT_TOL, _pencil_eigh, _weight_matrix, secular_root
from helpers import bisect_secular_root, least_distance_argmin, random_spd, secular_argmin

IDENTITY2 = gm.build_covariance(np.eye(2))
CORRELATED2 = gm.build_covariance(np.array([[1.0, 0.5], [0.5, 1.0]]))
RHO06 = gm.build_covariance(np.array([[1.0, 0.6], [0.6, 1.0]]))


class TestScalingLimit:
    def test_identity_factory(self):
        limit = gm.ScalingLimit.identity(3)
        np.testing.assert_array_equal(limit.diagonal, np.ones(3))
        assert limit.dimension == 3

    def test_max_entry_must_be_one(self):
        with pytest.raises(ValueError):
            gm.ScalingLimit(np.array([0.5, 0.9]))
        with pytest.raises(ValueError):
            gm.ScalingLimit(np.array([1.0, 1.2]))

    def test_entries_must_be_positive(self):
        with pytest.raises(ValueError):
            gm.ScalingLimit(np.array([1.0, 0.0]))

    def test_valid_non_identity(self):
        limit = gm.ScalingLimit(np.array([1.0, 0.25]))
        np.testing.assert_array_equal(limit.diagonal, [1.0, 0.25])


class TestScalingLadder:
    def test_speeds_are_exact(self):
        ladder = gm.ScalingLadder(gm.ScalingLimit.identity(2), (10, 100, 1000))
        entries = ladder.entries()
        assert [e.n for e in entries] == [10, 100, 1000]
        for entry in entries:
            assert entry.speed == 2.0 * math.log(entry.n)
            np.testing.assert_allclose(
                entry.scale_diag, math.sqrt(entry.speed) * np.ones(2), rtol=1e-15
            )

    def test_scale_diag_tracks_limit(self):
        limit = gm.ScalingLimit(np.array([1.0, 0.5]))
        (entry,) = gm.ScalingLadder(limit, (100,)).entries()
        a_n = math.sqrt(2.0 * math.log(100.0))
        np.testing.assert_allclose(entry.scale_diag, a_n * np.array([1.0, 0.5]))

    def test_validation(self):
        limit = gm.ScalingLimit.identity(2)
        with pytest.raises(ValueError):
            gm.ScalingLadder(limit, ())
        with pytest.raises(ValueError):
            gm.ScalingLadder(limit, (1, 10))
        with pytest.raises(ValueError):
            gm.ScalingLadder(limit, (10, 10))
        with pytest.raises(ValueError):
            gm.ScalingLadder(limit, (100, 10))


class TestDominatingPoint:
    def test_block_identity_covariance(self):
        point = gm.dominating_point(
            gm.Block(np.array([2.0, 2.0])), IDENTITY2, gm.ScalingLimit.identity(2)
        )
        np.testing.assert_allclose(point.x_star, [2.0, 2.0], atol=1e-9)
        assert point.quad_value == pytest.approx(8.0, abs=1e-9)
        assert point.margin_alpha == pytest.approx(4.0, abs=1e-9)
        assert point.rate_single == pytest.approx(-4.0, abs=1e-9)
        assert point.rate_componentwise == pytest.approx(-3.5, abs=1e-9)
        assert point.optimality_certificate
        assert point.solver_iterations >= 1

    def test_block_correlated_covariance(self):
        # Gradient at the corner is positive componentwise, so the corner
        # stays optimal; quad value is (2,2) Sigma^-1 (2,2) = 16/3.
        point = gm.dominating_point(
            gm.Block(np.array([2.0, 2.0])), CORRELATED2, gm.ScalingLimit.identity(2)
        )
        np.testing.assert_allclose(point.x_star, [2.0, 2.0], atol=1e-8)
        assert point.quad_value == pytest.approx(16.0 / 3.0, abs=1e-8)
        assert point.rate_componentwise == pytest.approx(0.5 - 8.0 / 3.0, abs=1e-8)

    def test_halfspace_closed_form_example(self):
        point = gm.dominating_point(
            gm.Halfspace(np.array([2.0, 1.0]), 3.0),
            CORRELATED2,
            gm.ScalingLimit.identity(2),
        )
        np.testing.assert_allclose(point.x_star, [15.0 / 14.0, 6.0 / 7.0], atol=1e-8)
        assert point.rate_single == pytest.approx(-9.0 / 14.0, abs=1e-9)
        assert point.quad_value == pytest.approx(9.0 / 7.0, abs=1e-9)

    def test_ellipsoid_example(self):
        point = gm.dominating_point(
            gm.Ellipsoid(np.array([3.0, 3.0]), np.eye(2), 1.0),
            IDENTITY2,
            gm.ScalingLimit.identity(2),
        )
        expected = 3.0 - 1.0 / math.sqrt(2.0)
        np.testing.assert_allclose(point.x_star, [expected, expected], atol=1e-7)

    def test_anisotropic_limit(self):
        # Q_A(x) = x1^2 + x2^2 / 4 for A = diag(1, 1/2); the corner stays
        # optimal and the margin drops accordingly.
        point = gm.dominating_point(
            gm.Block(np.array([2.0, 2.0])),
            IDENTITY2,
            gm.ScalingLimit(np.array([1.0, 0.5])),
        )
        np.testing.assert_allclose(point.x_star, [2.0, 2.0], atol=1e-9)
        assert point.quad_value == pytest.approx(5.0, abs=1e-9)
        assert point.margin_alpha == pytest.approx(2.5, abs=1e-9)
        assert point.rate_single == pytest.approx(-4.0, abs=1e-9)

    def test_typical_set_rejected(self):
        with pytest.raises(gm.NotAtypical):
            gm.dominating_point(
                gm.Block(np.array([-1.0, -1.0])), IDENTITY2, gm.ScalingLimit.identity(2)
            )

    def test_limit_dimension_mismatch(self):
        with pytest.raises(gm.DimensionMismatch):
            gm.dominating_point(
                gm.Block(np.array([2.0, 2.0])), IDENTITY2, gm.ScalingLimit.identity(3)
            )

    def test_halfspace_closed_form_battery(self):
        rng = np.random.default_rng(131)
        for _ in range(25):
            d = int(rng.integers(2, 5))
            sigma = random_spd(rng, d)
            cov = gm.build_covariance(sigma)
            b = rng.standard_normal(d)
            c = float(rng.uniform(0.5, 3.0))
            point = gm.dominating_point(
                gm.Halfspace(b, c), cov, gm.ScalingLimit.identity(d)
            )
            expected = c * (sigma @ b) / float(b @ sigma @ b)
            assert np.linalg.norm(point.x_star - expected) < 1e-6


def _random_limit(rng, d):
    diag = rng.uniform(0.3, 1.0, size=d)
    return gm.ScalingLimit(diag / diag.max())


def _random_polyhedron(rng, d):
    """Nonempty polyhedron with d + 3 rows that excludes the origin."""
    while True:
        rows = rng.standard_normal((d + 3, d))
        anchor = rng.uniform(1.0, 3.0, size=d)
        target = gm.Polyhedron(rows, rows @ anchor - rng.uniform(0.0, 1.0, size=d + 3))
        if target.is_atypical():
            return target


def _assert_matches(x, quad, want, weight, center):
    want_quad = float((want - center) @ weight @ (want - center))
    assert np.linalg.norm(x - want) <= 1e-9 * (1.0 + np.linalg.norm(want))
    assert quad == pytest.approx(want_quad, rel=1e-10)


class TestExactSolver:
    """The exact solves against scipy NNLS and brentq oracles, and the KKT certificate."""

    @pytest.mark.parametrize("d", [2, 5, 10, 20])
    def test_random_polyhedra_match_nnls(self, d):
        rng = np.random.default_rng(1000 + d)
        for _ in range(10):
            cov = gm.build_covariance(random_spd(rng, d))
            limit = _random_limit(rng, d)
            target = _random_polyhedron(rng, d)
            point = gm.dominating_point(target, cov, limit)
            weight = _weight_matrix(cov, limit)
            want = least_distance_argmin(weight, target.constraints, target.offsets, np.zeros(d))
            _assert_matches(point.x_star, point.quad_value, want, weight, np.zeros(d))
            assert point.optimality_certificate
            assert point.kkt_residual <= KKT_TOL

    def test_halfspace_block_and_duplicate_rows_match_nnls(self):
        rng = np.random.default_rng(163)
        d = 4
        cov = gm.build_covariance(random_spd(rng, d))
        limit = _random_limit(rng, d)
        rows = np.vstack([np.eye(d)[:2], rng.standard_normal((2, d)) + 1.0])
        offsets = np.array([1.5, 1.0, 2.0, 2.5])
        targets = [
            (gm.Halfspace(rows[2], 2.0), rows[2:3], [2.0]),
            (gm.Block(np.array([1.0, 0.5, 2.0, 1.5])), np.eye(d), [1.0, 0.5, 2.0, 1.5]),
            (gm.Polyhedron(np.vstack([rows, rows[:2]]), np.concatenate([offsets, offsets[:2]])),
             rows, offsets),
        ]
        weight = _weight_matrix(cov, limit)
        for target, oracle_rows, oracle_offsets in targets:
            point = gm.dominating_point(target, cov, limit)
            want = least_distance_argmin(weight, oracle_rows, oracle_offsets, np.zeros(d))
            _assert_matches(point.x_star, point.quad_value, want, weight, np.zeros(d))
            assert point.optimality_certificate

    @pytest.mark.parametrize("scale", [1.0, 2.0, 3.0])
    def test_boundary_margin_is_exact(self, scale):
        # alpha = offset^2 / (2 |normal|^2) = 1 exactly.  Re-solving on the
        # active rows in the original coordinates keeps it there; mapping
        # the whitened least-distance solution back drifts by a few ulps
        # (1 + 9e-16 at scale 3), which would flip the margin verdict.
        target = gm.Halfspace(np.array([scale, scale]), 2.0 * scale)
        point = gm.dominating_point(target, IDENTITY2, gm.ScalingLimit.identity(2))
        assert point.margin_alpha == 1.0
        assert not point.margin_alpha > 1.0

    @pytest.mark.parametrize("d", [1, 2, 3, 10])
    def test_pencil_reduction_against_scipy(self, d):
        from scipy.linalg import eigh

        rng = np.random.default_rng(181 + d)
        for low, high in ((0.3, 2.5), (1e-3, 1e3)):
            weight, shape = random_spd(rng, d, low, high), random_spd(rng, d, low, high)
            omega, basis = _pencil_eigh(weight, shape)
            np.testing.assert_allclose(basis.T @ shape @ basis, np.eye(d), rtol=0, atol=1e-12)
            np.testing.assert_allclose(
                basis.T @ weight @ basis, np.diag(omega), rtol=0, atol=1e-12 * omega.max()
            )
            np.testing.assert_allclose(
                omega, eigh(weight, shape, eigvals_only=True), rtol=1e-12, atol=0
            )

    def test_ellipsoids_match_secular_root(self):
        rng = np.random.default_rng(167)
        # Newton, widening and bisection steps, pinned so the root's stopping rules cannot drift.
        for d, steps in ((2, 9), (3, 8), (6, 9), (10, 9)):
            cov = gm.build_covariance(random_spd(rng, d))
            limit = _random_limit(rng, d)
            target = gm.Ellipsoid(rng.uniform(2.0, 4.0, size=d), random_spd(rng, d), 1.0)
            point = gm.dominating_point(target, cov, limit)
            weight = _weight_matrix(cov, limit)
            want = secular_argmin(weight, np.zeros(d), target)
            _assert_matches(point.x_star, point.quad_value, want, weight, np.zeros(d))
            assert point.optimality_certificate
            assert point.solver_iterations == steps
            # The root is a bare float, and x* is the pencil point it picks.
            omega, basis = _pencil_eigh(weight, target.shape)
            s0 = basis.T @ target.shape @ (np.zeros(d) - target.center)
            rates = 1.0 / omega
            lam, root_steps = secular_root(s0**2, rates, 1.0)
            assert type(lam) is float and lam > 0.0 and root_steps == steps
            assert lam == bisect_secular_root(s0**2, rates, 1.0)[0]
            np.testing.assert_array_equal(
                point.x_star, target.center + basis @ (s0 / (1.0 + lam * rates))
            )

    def test_secular_root_matches_bisection(self):
        # Weights over six decades, rates over eight and levels down to 1e-8
        # of the sum: Newton's finish lands on the float that bisection
        # alone reaches, in a handful of steps where bisection takes ~65.
        rng = np.random.default_rng(181)
        most = 0
        for _ in range(3000):
            d = int(rng.integers(1, 21))
            weights = rng.uniform(0.0, 1.0, d) ** 2 * 10.0 ** rng.uniform(-3.0, 3.0, d)
            rates = 10.0 ** rng.uniform(-4.0, 4.0, d)
            level = float(weights.sum()) * 10.0 ** rng.uniform(-8.0, 0.0)
            lam, steps = secular_root(weights, rates, level)
            assert lam == bisect_secular_root(weights, rates, level)[0]
            most = max(most, steps)
        # Pinned, so a slower root shows here.
        assert most == 23

    def test_secular_root_at_the_sum_at_zero(self):
        # Levels at, above and a few ulps below the sum at lam = 0: the
        # finish must stop widening at 0 and land where bisection alone
        # does, 0 for the first two.  Below, the root is about eps / rate,
        # and the bracket starts that wide rather than at 4 ulp(0), from
        # which the widening took 1,073 steps.
        rng = np.random.default_rng(191)
        most = 0
        for _ in range(100):
            d = int(rng.integers(1, 21))
            weights = rng.uniform(0.0, 1.0, d) ** 2 * 10.0 ** rng.uniform(-3.0, 3.0, d)
            rates = 10.0 ** rng.uniform(-4.0, 4.0, d)
            total = float(weights.sum())
            levels = [np.nextafter(total, np.inf), total]
            for _ in range(3):
                levels.append(np.nextafter(levels[-1], 0.0))
            for level in levels:
                lam, steps = secular_root(weights, rates, float(level))
                assert type(lam) is float
                assert lam == bisect_secular_root(weights, rates, float(level))[0]
                most = max(most, steps)
            assert secular_root(weights, rates, total) == (0.0, 2)
        assert most <= 80
        weights, rates = np.array([0.3, 1.7]), np.array([0.5, 2.0])
        level = float(np.nextafter(2.0, 0.0))
        assert secular_root(weights, rates, level) == (2.0**-54, 54)

    def test_ellipsoid_on_the_pencil_boundary_terminates(self):
        # The shape's eigenbasis puts the origin outside, the pencil basis
        # on the boundary: the root is 0 and x* is the origin up to
        # rounding, where the certificate fails.
        rng = np.random.default_rng(193)
        cov, limit = gm.build_covariance(np.eye(3)), gm.ScalingLimit.identity(3)
        weight = _weight_matrix(cov, limit)
        while True:
            shape, center = random_spd(rng, 3), rng.uniform(-3.0, 3.0, 3)
            omega, basis = _pencil_eigh(weight, shape)
            s0 = basis.T @ shape @ -center
            radius = math.sqrt(float((s0**2).sum()))
            target = gm.Ellipsoid(center, shape, radius)
            if radius**2 >= (s0**2).sum() and target.is_atypical():
                break
        point = gm.dominating_point(target, cov, limit)
        np.testing.assert_array_equal(point.x_star, center + basis @ s0)
        assert not point.optimality_certificate

    def test_mixture_components_match_oracles(self):
        rng = np.random.default_rng(173)
        d = 3
        limit = _random_limit(rng, d)
        components = tuple(
            gm.GaussianModel(
                rng.uniform(-1.0, 0.5, size=d), gm.build_covariance(random_spd(rng, d))
            )
            for _ in range(3)
        )
        mixture = gm.GaussianMixture(np.full(3, 1.0 / 3.0), components)
        ellipsoid = gm.Ellipsoid(np.full(d, 3.0), random_spd(rng, d), 1.2)
        polyhedron = _random_polyhedron(rng, d)
        for target in (ellipsoid, polyhedron):
            result = gm.rate_mixture(target, mixture, limit)
            for solved, comp in zip(result.per_component, components):
                weight = _weight_matrix(comp.covariance, limit)
                if target is ellipsoid:
                    want = secular_argmin(weight, comp.mean, target)
                else:
                    want = least_distance_argmin(
                        weight, target.constraints, target.offsets, comp.mean
                    )
                _assert_matches(solved.x_star, solved.quad_value, want, weight, comp.mean)
                assert solved.optimality_certificate
                assert solved.kkt_residual <= KKT_TOL
                assert solved.iterations >= 1

    def test_certificate_rejects_nudged_points(self):
        rng = np.random.default_rng(179)
        d = 3
        cov = gm.build_covariance(random_spd(rng, d))
        limit = _random_limit(rng, d)
        for target in (
            _random_polyhedron(rng, d),
            gm.Ellipsoid(np.full(d, 2.5), random_spd(rng, d), 1.0),
        ):
            point = gm.dominating_point(target, cov, limit)
            assert point.kkt_residual <= KKT_TOL
            x = point.x_star
            for _ in range(5):
                nudge = rng.standard_normal(d)
                nudged = x + 1e-6 * np.linalg.norm(x) * nudge / np.linalg.norm(nudge)
                assert not gm.verify_optimality(nudged, target, cov, limit)

    @pytest.mark.parametrize(
        "error", [gm.ConvergenceFailure("cycling"), np.linalg.LinAlgError("SVD failed")]
    )
    def test_failed_fit_leaves_point_uncertified(self, monkeypatch, error):
        # The solve's own NNLS runs first; the certificate's fit is the second call.
        solve = gm.dominate._nnls
        calls = []

        def failing_fit(e, f):
            calls.append(e.shape)
            if len(calls) > 1:
                raise error
            return solve(e, f)

        monkeypatch.setattr(gm.dominate, "_nnls", failing_fit)
        point = gm.dominating_point(
            gm.Block(np.array([2.0, 2.0])), CORRELATED2, gm.ScalingLimit.identity(2)
        )
        assert calls == [(3, 2), (2, 2)]
        assert point.kkt_residual == math.inf
        assert not point.optimality_certificate

    @pytest.mark.parametrize("gap", [1e-8, 1e-9, 1e-10, 1e-11, 1e-12])
    def test_exact_points_certify_under_near_singular_covariance(self, gap):
        # sigma = [[1, c], [c, 1]] with c = 1 - gap has condition number
        # about 2 / gap; the certificate works in the whitened frame, so its
        # rounding does not grow with it.  On the block x* = (2c, 2) exactly.
        c = 1.0 - gap
        cov = gm.build_covariance(np.array([[1.0, c], [c, 1.0]]))
        limit = gm.ScalingLimit.identity(2)
        block = gm.Block(np.array([1.0, 2.0]))
        ball = gm.Ellipsoid(np.array([3.0, 4.0]), np.eye(2), 1.0)
        for target in (block, ball):
            point = gm.dominating_point(target, cov, limit)
            assert point.kkt_residual <= 1e-10
            assert point.optimality_certificate
            assert gm.verify_optimality(point, target, cov, limit)
            if target is block:
                assert point.x_star == pytest.approx([2.0 * c, 2.0], rel=1e-15, abs=0.0)

    def test_empty_polyhedron_raises_infeasible(self):
        empty = gm.Polyhedron(np.array([[1.0, 0.0], [-1.0, 0.0]]), np.array([1.0, 1.0]))
        with pytest.raises(gm.GaussMaxError, match="infeasible"):
            gm.dominating_point(empty, IDENTITY2, gm.ScalingLimit.identity(2))

    @pytest.mark.parametrize("corner", [1e8, 1e9])
    def test_far_block_is_solved(self, corner):
        # The least-distance residual 1 / (1 + Q) is below rounding here,
        # so neither it nor the solve may be read at the raw scale.
        point = gm.dominating_point(
            gm.Block(np.array([corner, corner])), IDENTITY2, gm.ScalingLimit.identity(2)
        )
        np.testing.assert_array_equal(point.x_star, [corner, corner])
        assert point.margin_alpha == corner**2
        assert point.optimality_certificate

    @pytest.mark.parametrize(
        "rows, offsets",
        [
            pytest.param([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]], [1.0, 1.0, 1.0], id="1.0"),
            pytest.param([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]], [1e9, 1e9, 1e9], id="1000000000.0"),
            # x >= a + 1 and x <= a at a = 1e6 and 1e9: relative to the
            # distance, the re-solved point violates a row by 5e-7 and 5e-10.
            pytest.param([[1.0], [-1.0]], [1e6 + 1.0, -1e6], id="gap-at-1e6"),
            pytest.param([[1.0], [-1.0]], [1e9 + 1.0, -1e9], id="gap-at-1e9"),
        ],
    )
    def test_far_empty_polyhedron_raises_infeasible(self, rows, offsets):
        empty = gm.Polyhedron(np.array(rows), np.array(offsets))
        d = empty.dimension
        covariance = CORRELATED2 if d == 2 else gm.build_covariance(np.eye(d))
        with pytest.raises(gm.EmptyInterior, match="infeasible"):
            gm.dominating_point(empty, covariance, gm.ScalingLimit.identity(d))

    def test_origin_on_boundary_to_rounding_is_not_atypical(self):
        # The origin is outside by 1e-15, below the active-set tolerance,
        # so no row becomes active and the solve returns the origin itself.
        target = gm.Halfspace(np.array([1.0, 0.0]), 1e-15)
        assert target.is_atypical()
        with pytest.raises(gm.NotAtypical, match="boundary"):
            gm.dominating_point(target, IDENTITY2, gm.ScalingLimit.identity(2))


class TestCornerFormulas:
    def test_pairwise_example(self):
        z = gm.corner_pairwise(
            np.array([[2.0, 1.0], [1.0, 1.0], [1.0, 2.0]]), np.array([4.0, 3.0, 4.0])
        )
        np.testing.assert_allclose(z, [1.0, 1.0], atol=1e-12)

    def test_pairwise_two_rows_equals_solve(self):
        # Small orthogonal rows are not parallel: the test is relative to the row norms.
        for rows, offs in (
            (np.array([[3.0, 1.0], [1.0, -2.0]]), np.array([2.0, 1.0])),
            (np.array([[1e-7, 0.0], [0.0, 1e-7]]), np.array([1e-7, 1e-7])),
        ):
            np.testing.assert_allclose(
                gm.corner_pairwise(rows, offs), np.linalg.solve(rows, offs), rtol=1e-12, atol=1e-12
            )

    def test_pairwise_parallel_rows(self):
        for scale in (1.0, 1e7):
            with pytest.raises(gm.SingularPair):
                gm.corner_pairwise(
                    scale * np.array([[1.0, 1.0], [2.0, 2.0]]), scale * np.array([1.0, 2.0])
                )

    def test_pairwise_requires_dimension_two(self):
        with pytest.raises(gm.DimensionMismatch):
            gm.corner_pairwise(np.eye(3), np.array([1.0, 1.0, 1.0]))

    def test_pairwise_requires_two_rows(self):
        with pytest.raises(gm.SingularPair, match="need at least two constraint rows"):
            gm.corner_pairwise(np.array([[1.0, 2.0]]), np.array([1.0]))


class TestRates:
    def test_componentwise_is_half_plus_single_at_identity_limit(self):
        rng = np.random.default_rng(137)
        for _ in range(20):
            d = int(rng.integers(1, 5))
            cov = gm.build_covariance(random_spd(rng, d))
            target = gm.Block(rng.uniform(0.5, 3.0, size=d))
            point = gm.dominating_point(target, cov, gm.ScalingLimit.identity(d))
            assert point.rate_componentwise == pytest.approx(
                0.5 + point.rate_single, abs=1e-9
            )

    def test_margin_pass_example(self):
        point = gm.dominating_point(
            gm.Block(np.array([2.0, 2.0])), IDENTITY2, gm.ScalingLimit.identity(2)
        )
        assert point.margin_alpha == pytest.approx(4.0, abs=1e-9)
        assert point.margin_alpha > 1.0

    def test_margin_fail_example(self):
        # x* = (1, 1), quad = 2, alpha = 1: not strictly above threshold.
        point = gm.dominating_point(
            gm.Halfspace(np.array([1.0, 1.0]), 2.0), IDENTITY2, gm.ScalingLimit.identity(2)
        )
        assert point.margin_alpha == pytest.approx(1.0, abs=1e-9)
        assert not point.margin_alpha > 1.0


class TestVerifyOptimality:
    POLY = gm.Polyhedron(np.array([[2.0, 1.0], [1.0, 1.0], [1.0, 2.0]]), np.array([4.0, 3.0, 4.0]))

    def test_passes_at_optimum(self):
        identity = gm.ScalingLimit.identity(2)
        cases = [
            (gm.Block(np.array([2.0, 2.0])), IDENTITY2, identity),
            (gm.Ellipsoid(np.array([3.0, 3.0]), np.eye(2), 1.0), IDENTITY2, identity),
            (gm.Halfspace(np.array([2.0, -1.0]), 2.0), CORRELATED2, identity),
            (self.POLY, CORRELATED2, gm.ScalingLimit(np.array([1.0, 0.6]))),
            (
                gm.Ellipsoid(np.array([3.0, 2.5]), np.array([[1.0, 0.2], [0.2, 1.5]]), 1.0),
                CORRELATED2,
                gm.ScalingLimit(np.array([0.7, 1.0])),
            ),
            (gm.Block(np.array([1.0, 2.0])), RHO06, identity),
        ]
        for target, cov, limit in cases:
            point = gm.dominating_point(target, cov, limit)
            assert gm.verify_optimality(point, target, cov, limit)
        # The last optimum is off the corner (1, 2) that test_fails_off_optimum rejects.
        assert point.x_star == pytest.approx([1.2, 2.0], rel=1e-15)

    def test_fails_off_optimum(self):
        # Off-optimum points on each shape's boundary fail stationarity, an
        # interior point has no active row to balance the gradient, and
        # points outside the set fail on primal slack.  At the corner (1, 2)
        # under rho = 0.6 the fit would need a negative multiplier on e_1.
        limit = gm.ScalingLimit.identity(2)
        block = gm.Block(np.array([2.0, 2.0]))
        ball = gm.Ellipsoid(np.array([3.0, 3.0]), np.eye(2), 1.0)
        feasible = [
            (block, IDENTITY2, [2.5, 2.0]),
            (gm.Halfspace(np.array([1.0, 1.0]), 2.0), IDENTITY2, [1.5, 0.5]),
            (self.POLY, IDENTITY2, [1.0, 2.0]),
            (self.POLY, IDENTITY2, [3.0, 3.0]),
            (ball, IDENTITY2, [2.0, 3.0]),
            (ball, IDENTITY2, [3.0, 3.0]),
            (gm.Block(np.array([1.0, 2.0])), RHO06, [1.0, 2.0]),
        ]
        infeasible = [(block, IDENTITY2, [1.0, 1.0]), (block, IDENTITY2, [1.9, 1.9])]
        for cases, inside in ((feasible, True), (infeasible, False)):
            for target, cov, x in cases:
                assert target.contains(x) is inside
                assert not gm.verify_optimality(np.array(x), target, cov, limit), x

    def test_accepts_bare_vector(self):
        target = gm.Block(np.array([2.0, 2.0]))
        limit = gm.ScalingLimit.identity(2)
        assert gm.verify_optimality(np.array([2.0, 2.0]), target, IDENTITY2, limit)


class TestWhitenedEquivalence:
    """With A = I the minimizer maps to the closest point of the whitened set."""

    def test_battery(self):
        rng = np.random.default_rng(139)
        for trial in range(12):
            d = 2 if trial % 2 == 0 else 3
            sigma = random_spd(rng, d)
            cov = gm.build_covariance(sigma)
            lower = cov.chol_lower
            kind = trial % 3
            if kind == 0:
                b = rng.standard_normal(d)
                c = float(rng.uniform(1.0, 3.0))
                target = gm.Halfspace(b, c)
                mapped = gm.Halfspace(lower.T @ b, c)
            elif kind == 1:
                # y = L x lands in {y : L^-1 y >= corner} and L^-1 is the
                # lower Cholesky factor.
                corner = rng.uniform(0.5, 2.5, size=d)
                target = gm.Block(corner)
                mapped = gm.Polyhedron(lower, corner)
            else:
                center = rng.uniform(2.0, 4.0, size=d)
                target = gm.Ellipsoid(center, np.eye(d), 1.0)
                mapped = gm.Ellipsoid(
                    cov.whitener @ center, lower.T @ np.eye(d) @ lower, 1.0
                )
            identity = gm.ScalingLimit.identity(d)
            point = gm.dominating_point(target, cov, identity)
            whitened = cov.whitener @ point.x_star
            closest = gm.dominating_point(mapped, gm.build_covariance(np.eye(d)), identity).x_star
            assert np.linalg.norm(whitened - closest) < 1e-6


class TestScalarCovarianceInvariance:
    def test_argmin_unchanged_by_scalar_factor(self):
        rng = np.random.default_rng(149)
        sigma = random_spd(rng, 2)
        limit = gm.ScalingLimit.identity(2)
        targets = [
            gm.Block(np.array([2.0, 1.5])),
            gm.Halfspace(np.array([2.0, 1.0]), 3.0),
            gm.Ellipsoid(np.array([3.0, 2.5]), np.eye(2), 1.0),
        ]
        for target in targets:
            base = gm.dominating_point(target, gm.build_covariance(sigma), limit)
            scaled = gm.dominating_point(target, gm.build_covariance(3.0 * sigma), limit)
            assert np.linalg.norm(base.x_star - scaled.x_star) < 1e-6
            assert scaled.quad_value == pytest.approx(base.quad_value / 3.0, rel=1e-6)


class TestMixtureRate:
    def _mixture(self, weights=(0.3, 0.7)):
        cov = gm.build_covariance(np.eye(2))
        comps = (
            gm.GaussianModel(np.array([-1.0, -1.0]), cov),
            gm.GaussianModel(np.zeros(2), cov),
        )
        return gm.GaussianMixture(np.asarray(weights), comps)

    def test_worked_example(self):
        result = gm.rate_mixture(
            gm.Block(np.array([2.0, 2.0])), self._mixture(), gm.ScalingLimit.identity(2)
        )
        assert result.rate_componentwise == pytest.approx(-3.5, abs=1e-8)
        assert result.argmin_component == 2
        assert [c.component for c in result.per_component] == [1, 2]
        assert result.per_component[0].quad_value == pytest.approx(18.0, abs=1e-7)
        assert result.per_component[1].quad_value == pytest.approx(8.0, abs=1e-8)
        np.testing.assert_allclose(result.per_component[1].x_star, [2.0, 2.0], atol=1e-8)

    @pytest.mark.parametrize("order", [(0, 1), (1, 0)], ids=["argmin-last", "argmin-first"])
    def test_margin_and_x_star_are_the_argmin_components(self, order):
        # On a ball the two recentered minimizers differ, so x* tells them apart.
        comps = self._mixture().components
        mixture = gm.GaussianMixture(np.array([0.5, 0.5]), tuple(comps[k] for k in order))
        target = gm.Ellipsoid(np.array([3.0, 2.0]), np.eye(2), 0.5)
        result = gm.rate_mixture(target, mixture, gm.ScalingLimit(np.array([1.0, 0.7])))
        best = min(result.per_component, key=lambda c: c.quad_value)
        other = max(result.per_component, key=lambda c: c.quad_value)
        assert result.argmin_component == best.component == order.index(1) + 1
        assert result.margin_alpha == 0.5 * best.quad_value
        assert result.rate_componentwise == 0.5 - result.margin_alpha
        np.testing.assert_array_equal(result.x_star, best.x_star)
        assert np.linalg.norm(result.x_star - other.x_star) > 1e-3

    def test_weights_do_not_enter_rate(self):
        target = gm.Block(np.array([2.0, 2.0]))
        limit = gm.ScalingLimit.identity(2)
        a = gm.rate_mixture(target, self._mixture((0.3, 0.7)), limit)
        b = gm.rate_mixture(target, self._mixture((0.9, 0.1)), limit)
        assert a.rate_componentwise == b.rate_componentwise
        assert a.argmin_component == b.argmin_component

    def test_zero_weight_component_does_not_set_rate(self):
        # The mixture is N(0, I); the massless component at (0.9, 0.9) would give +0.41.
        cov = gm.build_covariance(np.eye(2))
        comps = (gm.GaussianModel(np.array([0.9, 0.9]), cov), gm.GaussianModel(np.zeros(2), cov))
        mixture = gm.GaussianMixture(np.array([0.0, 1.0]), comps)
        target = gm.Block(np.array([1.2, 1.2]))
        result = gm.rate_mixture(target, mixture, gm.ScalingLimit.identity(2))
        assert result.argmin_component == 2
        assert result.rate_componentwise == pytest.approx(-0.94, abs=1e-9)
        assert result.per_component[0].quad_value == pytest.approx(0.18, abs=1e-9)

    def test_mean_inside_set_rejected(self):
        cov = gm.build_covariance(np.eye(2))
        mixture = gm.GaussianMixture(
            np.array([0.5, 0.5]),
            (
                gm.GaussianModel(np.zeros(2), cov),
                gm.GaussianModel(np.array([3.0, 3.0]), cov),
            ),
        )
        with pytest.raises(gm.MeanInsideSet) as exc:
            gm.rate_mixture(
                gm.Block(np.array([2.0, 2.0])), mixture, gm.ScalingLimit.identity(2)
            )
        assert exc.value.component == 2
        assert "component 2" in str(exc.value)

    def test_mean_on_boundary_to_rounding_rejected(self):
        target = gm.Halfspace(np.array([1.0, 0.0]), 1e-15)
        with pytest.raises(gm.MeanInsideSet) as exc:
            gm.rate_mixture(target, self._mixture(), gm.ScalingLimit.identity(2))
        assert exc.value.component == 2

    def test_single_component_matches_gaussian_rate(self):
        cov = gm.build_covariance(np.array([[1.0, 0.5], [0.5, 1.0]]))
        target = gm.Block(np.array([2.0, 2.0]))
        limit = gm.ScalingLimit.identity(2)
        mixture = gm.GaussianMixture(np.array([1.0]), (gm.GaussianModel(np.zeros(2), cov),))
        result = gm.rate_mixture(target, mixture, limit)
        point = gm.dominating_point(target, cov, limit)
        assert result.rate_componentwise == pytest.approx(point.rate_componentwise, abs=1e-9)
        assert result.argmin_component == 1


class TestClosestPointEquivalence:
    """Whether the dominating point under sigma is the closest point, the minimizer under I."""

    SIGMA = gm.build_covariance(np.array([[1.0, 0.9], [0.9, 1.0]]))

    def _points(self, target):
        limit = gm.ScalingLimit.identity(2)
        x_star = gm.dominating_point(target, self.SIGMA, limit).x_star
        return x_star, gm.dominating_point(target, IDENTITY2, limit).x_star

    def test_eigenvector_normal_coincides_despite_failed_hypothesis(self):
        # The normal (1, -1) is an eigenvector of the covariance, so the
        # quadratic minimizer and the closest point coincide even though
        # sigma_inv x* is not componentwise positive.
        x_star, closest = self._points(gm.Halfspace(np.array([1.0, -1.0]), 2.0))
        np.testing.assert_allclose(x_star, closest, atol=1e-12)
        assert not np.all(self.SIGMA.sigma_inv @ x_star > 0.0)

    def test_genuine_gap_instance(self):
        x_star, closest = self._points(gm.Halfspace(np.array([2.0, -1.0]), 2.0))
        np.testing.assert_allclose(x_star, [11.0 / 7.0, 8.0 / 7.0], rtol=1e-12)
        np.testing.assert_allclose(closest, [0.8, -0.4], rtol=1e-12)
