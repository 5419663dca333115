"""Covariance factorization and seeded sampling."""

import numpy as np
import pytest

import gaussmax as gm
from gaussmax import estimate
from helpers import draw_gaussian, draw_mixture, fancy_index_mixture, fresh_gaussian, random_spd


class TestBuildCovariance:
    def test_known_two_by_two_inverse(self):
        cov = gm.build_covariance([[1.0, 0.5], [0.5, 1.0]])
        expected = np.array([[4.0 / 3.0, -2.0 / 3.0], [-2.0 / 3.0, 4.0 / 3.0]])
        np.testing.assert_allclose(cov.sigma_inv, expected, rtol=1e-14)
        assert cov.dimension == 2

    def test_whitening_roundtrip_battery(self):
        rng = np.random.default_rng(23)
        for trial in range(100):
            d = int(rng.integers(1, 7))
            sigma = random_spd(rng, d)
            cov = gm.build_covariance(sigma)
            eye = np.eye(d)
            assert np.max(np.abs(cov.whitener.T @ cov.whitener @ sigma - eye)) < 1e-10
            assert np.max(np.abs(cov.sigma_inv @ sigma - eye)) < 1e-10
            assert np.max(np.abs(cov.chol_lower @ cov.chol_lower.T - sigma)) < 1e-10

    def test_whitener_is_lower_triangular(self):
        # |C[1, 0]| = 2 exceeds C[0, 0] = 1, so an LU inverse of C pivots.
        cov = gm.build_covariance(np.array([[1.0, 2.0], [2.0, 10.0]]))
        assert not np.triu(cov.whitener, 1).any()
        np.testing.assert_allclose(cov.whitener @ cov.chol_lower, np.eye(2), atol=1e-15)

    def test_quad_inv_matches_direct(self):
        rng = np.random.default_rng(29)
        sigma = random_spd(rng, 3)
        cov = gm.build_covariance(sigma)
        x = rng.standard_normal(3)
        direct = float(x @ np.linalg.solve(sigma, x))
        assert abs(cov.quad_inv(x) - direct) < 1e-10

    def test_asymmetric_rejected(self):
        with pytest.raises(gm.NotSymmetric):
            gm.build_covariance([[1.0, 0.2], [0.1, 1.0]])

    def test_rank_deficient_rejected(self):
        with pytest.raises(gm.NotPositiveDefinite):
            gm.build_covariance([[1.0, 1.0], [1.0, 1.0]])

    def test_negative_eigenvalue_rejected(self):
        with pytest.raises(gm.NotPositiveDefinite):
            gm.build_covariance([[1.0, 2.0], [2.0, 1.0]])

    def test_tiny_pivot_rejected(self):
        with pytest.raises(gm.NotPositiveDefinite):
            gm.build_covariance(np.diag([1.0, 1e-13]))

    def test_nonsquare_rejected(self):
        with pytest.raises(gm.DimensionMismatch):
            gm.build_covariance(np.ones((2, 3)))

    def test_arrays_are_readonly(self):
        cov = gm.build_covariance(np.eye(2))
        with pytest.raises(ValueError):
            cov.sigma[0, 0] = 5.0


class TestRandomStream:
    def test_replay_is_bit_identical(self):
        a = gm.RandomStream(1234).generator().standard_normal(50)
        b = gm.RandomStream(1234).generator().standard_normal(50)
        np.testing.assert_array_equal(a, b)

    def test_distinct_seeds_differ(self):
        a = gm.RandomStream(1234).generator().standard_normal(50)
        b = gm.RandomStream(1235).generator().standard_normal(50)
        assert np.max(np.abs(a - b)) > 1e-3

    def test_substream_is_deterministic(self):
        root = gm.RandomStream(7)
        assert root.substream(3) == root.substream(3)
        a = root.substream(3).generator().standard_normal(10)
        b = root.substream(3).generator().standard_normal(10)
        np.testing.assert_array_equal(a, b)

    def test_substreams_differ_from_each_other_and_root(self):
        root = gm.RandomStream(7)
        draws = [root.generator().standard_normal(20)]
        for k in range(6):
            draws.append(root.substream(k).generator().standard_normal(20))
        for i in range(len(draws)):
            for j in range(i + 1, len(draws)):
                assert np.max(np.abs(draws[i] - draws[j])) > 1e-3

    def test_nested_substreams_differ(self):
        root = gm.RandomStream(99)
        a = root.substream(0).substream(1).generator().standard_normal(20)
        b = root.substream(1).substream(0).generator().standard_normal(20)
        assert np.max(np.abs(a - b)) > 1e-3


class TestGaussianSampling:
    def test_standard_mean_close(self):
        model = gm.GaussianModel(np.zeros(2), gm.build_covariance(np.eye(2)))
        draws = draw_gaussian(model, 100_000, gm.RandomStream(5))
        assert np.max(np.abs(draws.mean(axis=0))) < 0.02

    def test_shifted_moments(self):
        sigma = np.array([[2.0, 1.0], [1.0, 2.0]])
        model = gm.GaussianModel(np.array([3.0, 3.0]), gm.build_covariance(sigma))
        draws = draw_gaussian(model, 200_000, gm.RandomStream(6))
        n = len(draws)
        mean_se = np.sqrt(np.diag(sigma) / n)
        assert np.all(np.abs(draws.mean(axis=0) - 3.0) < 5.0 * mean_se)
        emp_cov = np.cov(draws.T)
        cov_se = np.sqrt(
            (np.outer(np.diag(sigma), np.diag(sigma)) + sigma**2) / n
        )
        assert np.all(np.abs(emp_cov - sigma) < 5.0 * cov_se)

    def test_determinism(self):
        model = gm.GaussianModel(np.zeros(3), gm.build_covariance(np.eye(3)))
        a = draw_gaussian(model, 64, gm.RandomStream(41, stream_index=2))
        b = draw_gaussian(model, 64, gm.RandomStream(41, stream_index=2))
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("d", [1, 3, 10])
    def test_cell_draw_matches_fresh_oracle(self, d):
        # A Gaussian's full draw is one cell of estimate._draw_cells: trials
        # of n draws each, in trial order, bit for bit the oracle's rows.
        rng = np.random.default_rng(d)
        gauss = gm.GaussianModel(rng.normal(size=d), gm.build_covariance(random_spd(rng, d)))
        for n, trials in ((1001, 1), (1, 7), (7, 143), (100, 20)):
            stream = gm.RandomStream(8, n * trials)
            ((drawn, sizes),) = estimate._draw_cells(
                gauss, None, (1.0,), n, trials, stream.generator()
            )
            np.testing.assert_array_equal(sizes, np.full(trials, n))
            want = fresh_gaussian(gauss, n * trials, stream)
            np.testing.assert_array_equal(drawn.view(np.uint64), want.view(np.uint64))


class TestMixture:
    def _two_component(self, weights=(0.5, 0.5)):
        cov = gm.build_covariance(np.eye(2))
        comps = (
            gm.GaussianModel(np.zeros(2), cov),
            gm.GaussianModel(np.array([4.0, 4.0]), cov),
        )
        return gm.GaussianMixture(np.asarray(weights), comps)

    def test_weights_must_sum_to_one(self):
        cov = gm.build_covariance(np.eye(2))
        comps = (gm.GaussianModel(np.zeros(2), cov),) * 2
        with pytest.raises(ValueError):
            gm.GaussianMixture(np.array([0.6, 0.6]), comps)

    def test_negative_weight_rejected(self):
        cov = gm.build_covariance(np.eye(2))
        comps = (gm.GaussianModel(np.zeros(2), cov),) * 2
        with pytest.raises(ValueError):
            gm.GaussianMixture(np.array([1.5, -0.5]), comps)

    def test_dimension_consistency_required(self):
        comps = (
            gm.GaussianModel(np.zeros(2), gm.build_covariance(np.eye(2))),
            gm.GaussianModel(np.zeros(3), gm.build_covariance(np.eye(3))),
        )
        with pytest.raises(gm.DimensionMismatch):
            gm.GaussianMixture(np.array([0.5, 0.5]), comps)

    def test_balanced_assignment_fraction(self):
        mixture = self._two_component()
        draws = draw_mixture(mixture, 100_000, gm.RandomStream(17))
        # Means are 4*sqrt(2) apart, so nearest-mean assignment is essentially exact.
        near_second = np.linalg.norm(draws - 4.0, axis=1) < np.linalg.norm(draws, axis=1)
        frac = near_second.mean()
        assert abs(frac - 0.5) < 0.01

    def test_degenerate_weight_uses_single_component(self):
        mixture = self._two_component(weights=(1.0, 0.0))
        draws = draw_mixture(mixture, 5_000, gm.RandomStream(18))
        # Every draw should come from the standard component at the origin:
        # none may land near the unused mean, and the average stays near zero.
        assert np.min(np.linalg.norm(draws - 4.0, axis=1)) > 1.0
        assert np.max(np.abs(draws.mean(axis=0))) < 0.05

    def test_single_component_moments(self):
        sigma = np.array([[1.5, -0.4], [-0.4, 1.0]])
        comp = gm.GaussianModel(np.array([1.0, -2.0]), gm.build_covariance(sigma))
        mixture = gm.GaussianMixture(np.array([1.0]), (comp,))
        draws = draw_mixture(mixture, 200_000, gm.RandomStream(19))
        assert np.max(np.abs(draws.mean(axis=0) - comp.mean)) < 0.02
        assert np.max(np.abs(np.cov(draws.T) - sigma)) < 0.05

    def test_determinism(self):
        mixture = self._two_component(weights=(0.3, 0.7))
        a = draw_mixture(mixture, 128, gm.RandomStream(77))
        b = draw_mixture(mixture, 128, gm.RandomStream(77))
        np.testing.assert_array_equal(a, b)


class TestMixtureDraw:
    """The mixture's full-draw cells (``estimate._draw_cells``) against the fancy-index oracle."""

    N = 3

    @staticmethod
    def _mixture(weights, d, seed):
        rng = np.random.default_rng(seed)
        comps = tuple(
            gm.GaussianModel(rng.normal(size=d), gm.build_covariance(random_spd(rng, d)))
            for _ in weights
        )
        return gm.GaussianMixture(np.asarray(weights), comps)

    @pytest.mark.parametrize("d", [1, 2, 5, 10])
    @pytest.mark.parametrize(
        "weights",
        [(1.0,), (0.3, 0.7), (0.2, 0.0, 0.8), (0.0, 0.5, 0.5), (0.25, 0.35, 0.4)],
        ids=["k1", "k2", "k3-zero-middle", "k3-zero-first", "k3"],
    )
    @pytest.mark.parametrize("count", [1, 7, 1001, 4099])
    def test_matches_fancy_index_oracle(self, weights, d, count):
        # count blocks of N draws; each drawn component is one cell, in
        # component order, whose rows match the oracle's bit for bit.
        mixture = self._mixture(weights, d, seed=count + d)
        stream = gm.RandomStream(4242, count)
        want, picks, owners = fancy_index_mixture(mixture, self.N, count, stream)
        cells = list(
            estimate._draw_cells(mixture, None, mixture.weights, self.N, count, stream.generator())
        )
        drawn = np.unique(picks)
        assert len(cells) == len(drawn)
        assert all(weights[k] > 0.0 for k in drawn)
        for k, (x, rows) in zip(drawn, cells):
            assert rows.shape == (count,)
            np.testing.assert_array_equal(np.repeat(np.arange(count), rows), owners[picks == k])
            np.testing.assert_array_equal(x.view(np.uint64), want[picks == k].view(np.uint64))
        blocks = np.bincount(owners, minlength=count)
        assert (blocks == self.N).all()

    def test_oracle_cases_include_lone_and_shared_picks(self):
        # The parametrization above checks cells of one row and of several.
        lone = shared = 0
        for count in (1, 7):
            mixture = self._mixture((0.3, 0.7), 5, seed=count + 5)
            _, picks, _ = fancy_index_mixture(mixture, self.N, count, gm.RandomStream(4242, count))
            sizes = np.bincount(picks)
            lone += int(np.sum(sizes == 1))
            shared += int(np.sum(sizes > 1))
        assert lone >= 1 and shared >= 2
