"""Monte Carlo, importance sampling, exact references, and slope fits."""

import contextlib
import math
from concurrent.futures import ThreadPoolExecutor

import mpmath
import numpy as np
import pytest
from scipy import integrate

import gaussmax as gm
from gaussmax import estimate
from helpers import draw_gaussian, draw_mixture, exact_block_pair, fresh_gaussian

STANDARD2 = gm.GaussianModel(np.zeros(2), gm.build_covariance(np.eye(2)))
STANDARD1 = gm.GaussianModel(np.zeros(1), gm.build_covariance(np.eye(1)))


def mp_union(q, n):
    return 1 - (1 - mpmath.mpf(q)) ** n


def mp_block_pair(sigma_diag, corner, a_n, n):
    """High-precision mirror of the exact block formulas."""
    with mpmath.workdps(60):
        qs = [
            mpmath.ncdf(-mpmath.mpf(a_n) * mpmath.mpf(c) / mpmath.sqrt(mpmath.mpf(s)))
            for s, c in zip(sigma_diag, corner)
        ]
        cw = mpmath.mpf(1)
        for q in qs:
            cw *= 1 - (1 - q) ** n
        prod_q = mpmath.mpf(1)
        for q in qs:
            prod_q *= q
        alo = 1 - (1 - prod_q) ** n
        return cw, alo


def gauss_tail(t):
    """Upper tail of the standard normal by well-scaled quadrature."""
    factor, err = integrate.quad(
        lambda s: math.exp(-t * s - 0.5 * s * s), 0.0, np.inf, epsabs=1e-14, epsrel=1e-12
    )
    assert err < 1e-10 * factor
    return math.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi) * factor


class TestUnionCombine:
    def test_endpoints(self):
        assert gm.union_combine(0.0, 50) == 0.0
        assert gm.union_combine(1.0, 50) == 1.0
        assert gm.union_combine(0.37, 1) == pytest.approx(0.37, abs=1e-16)

    def test_known_value(self):
        assert gm.union_combine(1e-3, 1000) == pytest.approx(
            0.6323045752290359, rel=1e-14
        )

    def test_tiny_q_against_mpmath(self):
        with mpmath.workdps(60):
            for q, n in [(1e-10, 1000), (1e-15, 10**6), (1e-3, 10)]:
                ours = gm.union_combine(q, n)
                ref = float(mp_union(q, n))
                assert abs(ours - ref) <= 1e-12 * ref

    def test_monotone_in_q_and_n(self):
        qs = [0.0, 1e-8, 1e-4, 1e-2, 0.5, 0.9, 1.0]
        vals = [gm.union_combine(q, 100) for q in qs]
        assert all(a <= b for a, b in zip(vals, vals[1:]))
        ns = [1, 2, 10, 100, 10**6]
        vals = [gm.union_combine(1e-4, n) for n in ns]
        assert all(a <= b for a, b in zip(vals, vals[1:]))

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            gm.union_combine(-0.1, 10)
        with pytest.raises(ValueError):
            gm.union_combine(1.1, 10)
        with pytest.raises(ValueError):
            gm.union_combine(0.5, 0)


class TestExactBlockDiagonal:
    def test_worked_example(self):
        a_n = math.sqrt(2.0 * math.log(1e6))
        cw, alo = exact_block_pair([1.0, 1.0], [1.2, 1.2], a_n, 10**6)
        ref_cw, ref_alo = mp_block_pair([1.0, 1.0], [1.2, 1.2], a_n, 10**6)
        assert cw == pytest.approx(float(ref_cw), rel=1e-12)
        assert alo == pytest.approx(float(ref_alo), rel=1e-12)
        # The two event probabilities separate by a factor close to n.
        assert cw / alo == pytest.approx(1e6, rel=2e-2)

    def test_one_dimension_events_coincide(self):
        cw, alo = exact_block_pair([2.0], [1.5], 3.0, 500)
        assert cw == alo

    def test_single_draw_events_coincide(self):
        cw, alo = exact_block_pair([1.0, 0.5], [1.0, 0.7], 2.0, 1)
        assert cw == pytest.approx(alo, rel=1e-14)

    def test_log_path_below_double_range(self):
        # t = 40 puts the per-coordinate tail around exp(-804); the log
        # output must stay finite and match the asymptote log(n q).
        log_cw, log_alo = gm.exact_block_diagonal_log([1.0], [40.0], 1000)
        assert log_cw == log_alo
        assert math.isfinite(log_cw)
        with mpmath.workdps(60):
            log_q = float(mpmath.log(mpmath.ncdf(-mpmath.mpf(40))))
        assert log_cw == pytest.approx(math.log(1000) + log_q, rel=1e-10)

    def test_validation(self):
        with pytest.raises(ValueError):
            gm.exact_block_diagonal_log([1.0, -1.0], [1.0, 1.0], 10)
        with pytest.raises(ValueError):
            gm.exact_block_diagonal_log([1.0], [0.0], 10)
        with pytest.raises(ValueError):
            gm.exact_block_diagonal_log([1.0], [1.0], 0)
        with pytest.raises(ValueError):
            gm.exact_block_diagonal_log([1.0, 1.0], [1.0], 10)


class TestLogNdtr:
    """The stdlib ``log Phi`` against scipy's, which only the tests import."""

    def test_matches_scipy_on_a_grid(self):
        from scipy.special import log_ndtr

        # Branch points of this and scipy's implementations, and their neighbours.
        edges = [-20.0, -1.0, 6.0, 1.0, -1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0), 0.0]
        grid = np.concatenate(
            [
                -np.logspace(-3.0, 5.0, 4001),
                np.logspace(-3.0, math.log10(40.0), 2001),
                np.linspace(-40.0, 40.0, 8001),
                *[np.nextafter(e, [-np.inf, np.inf]) for e in edges],
                edges,
                [-1e5, 40.0, -0.0, np.inf, -np.inf, np.nan],
            ]
        )
        got = estimate._log_ndtr(grid)
        assert got.shape == grid.shape
        # Above a = 37.5 the values are subnormal: they carry fewer bits than
        # 1e-13 resolves, and scipy's erfc flushes some of them to -0.0.
        tiny = np.finfo(float).tiny
        np.testing.assert_allclose(got, log_ndtr(grid), rtol=1e-13, atol=tiny)
        assert np.isnan(got[-1]) and got[-2] == -np.inf and got[-3] == 0.0

    @pytest.mark.parametrize(
        "a", [-1e5, -20.0, -1.0, -0.7071067811865476, 0.0, 6.0, 40.0, np.inf, -np.inf, np.nan]
    )
    def test_scalar_input(self, a):
        from scipy.special import log_ndtr

        got = estimate._log_ndtr(a)
        assert np.shape(got) == ()
        np.testing.assert_allclose(float(got), float(log_ndtr(a)), rtol=1e-13, atol=0.0)


class TestCrudeMonteCarlo:
    def test_determinism(self):
        entry = gm.LadderEntry(5, np.ones(2), 1.0)
        target = gm.Block(np.array([1.0, 1.0]))
        stream = gm.RandomStream(321)
        a = gm.mc_crude(STANDARD2, target, entry, 4000, stream)
        b = gm.mc_crude(STANDARD2, target, entry, 4000, stream)
        assert a == b

    def test_componentwise_matches_exact_within_four_se(self):
        entry = gm.LadderEntry(5, np.ones(2), 1.0)
        report = gm.mc_crude(
            STANDARD2, gm.Block(np.array([1.0, 1.0])), entry, 20_000, gm.RandomStream(11)
        )[0]
        exact, _ = exact_block_pair([1.0, 1.0], [1.0, 1.0], 1.0, 5)
        assert abs(report.p_hat - exact) <= 4.0 * report.std_error
        assert report.method is gm.Method.CRUDE_COMPONENTWISE
        assert report.n == 5
        assert report.scaling_norm_sq == 1.0

    def test_at_least_one_matches_exact_within_four_se(self):
        entry = gm.LadderEntry(5, np.ones(2), 1.0)
        report = gm.mc_crude(
            STANDARD2, gm.Block(np.array([1.0, 1.0])), entry, 20_000, gm.RandomStream(12)
        )[1]
        _, exact = exact_block_pair([1.0, 1.0], [1.0, 1.0], 1.0, 5)
        assert abs(report.p_hat - exact) <= 4.0 * report.std_error
        assert report.method is gm.Method.CRUDE_AT_LEAST_ONE

    def test_event_inclusion_for_upward_closed_sets(self):
        target = gm.Block(np.array([0.8, 1.1]))
        for n, seed in [(3, 21), (8, 22), (20, 23)]:
            entry = gm.LadderEntry(n, np.ones(2), 1.0)
            cw = gm.mc_crude(STANDARD2, target, entry, 10_000, gm.RandomStream(seed))[0]
            alo = gm.mc_crude(STANDARD2, target, entry, 10_000, gm.RandomStream(seed + 100))[1]
            assert alo.p_hat <= cw.p_hat + 4.0 * (alo.std_error + cw.std_error)

    def test_single_draw_estimators_coincide_exactly(self):
        # With n = 1 both events reduce to the same single-vector event and
        # both counts come from the same draws, so they agree.
        entry = gm.LadderEntry(1, np.ones(2), 1.0)
        target = gm.Halfspace(np.array([1.0, 1.0]), 1.5)
        cw, alo = gm.mc_crude(STANDARD2, target, entry, 8000, gm.RandomStream(77))
        assert cw.p_hat == alo.p_hat

    def test_near_certain_event(self):
        entry = gm.LadderEntry(2, np.ones(2), 1.0)
        report = gm.mc_crude(
            STANDARD2, gm.Block(np.array([-10.0, -10.0])), entry, 2000, gm.RandomStream(9)
        )[0]
        assert report.p_hat == 1.0
        assert report.std_error == 0.0
        assert report.log_p_hat == 0.0

    def test_zero_hits_reports_neg_inf_log(self):
        entry = gm.LadderEntry(2, np.ones(2), 1.0)
        report = gm.mc_crude(
            STANDARD2, gm.Block(np.array([9.0, 9.0])), entry, 500, gm.RandomStream(10)
        )[0]
        assert report.p_hat == 0.0
        assert report.log_p_hat == -math.inf

    def test_trials_validation(self):
        entry = gm.LadderEntry(2, np.ones(2), 1.0)
        with pytest.raises(ValueError):
            gm.mc_crude(STANDARD2, gm.Block(np.array([1.0, 1.0])), entry, 0, gm.RandomStream(1))
        with pytest.raises(ValueError):
            gm.mc_crude(STANDARD2, gm.Block(np.array([1.0, 1.0])), entry, -5, gm.RandomStream(1))

    def test_mixture_model_supported(self):
        cov = gm.build_covariance(np.eye(2))
        mixture = gm.GaussianMixture(
            np.array([0.5, 0.5]),
            (gm.GaussianModel(np.zeros(2), cov), gm.GaussianModel(np.array([0.5, 0.5]), cov)),
        )
        report = gm.mc_crude(
            mixture, gm.Block(np.array([1.0, 1.0])), gm.LadderEntry(4, np.ones(2), 1.0), 4000,
            gm.RandomStream(31),
        )[0]
        assert 0.0 < report.p_hat < 1.0


class TestFusedCrude:
    # n = 10000 at d = 2 gives 200 trials per chunk, so 600 trials span
    # three chunks; the correlated model and lowered corner make both
    # events hit in a sizeable share of the trials.
    MODEL = gm.GaussianModel(np.zeros(2), gm.build_covariance(np.array([[1.0, 0.8], [0.8, 1.0]])))
    TARGET = gm.Block(np.array([0.85, 0.85]))
    ENTRY = gm.ScalingLadder(gm.ScalingLimit.identity(2), (10_000,)).entries()[0]
    TRIALS = 600

    def test_block_hits_split_into_union_and_conspiracies(self):
        # For an upward-closed set a vector inside puts the maximum inside,
        # so every componentwise hit is a union hit or a conspiracy (the
        # maximum inside, no vector inside).  The chunks are redrawn here:
        # 200 trials each, chunk i from substream i.
        n, chunk = self.ENTRY.n, 200
        stream = gm.RandomStream(6)
        scaled = self.TARGET.scale(self.ENTRY.scale_diag)
        union = conspiracies = 0
        for i in range(self.TRIALS // chunk):
            x = draw_gaussian(self.MODEL, chunk * n, stream.substream(i))
            top_in = scaled.contains_many(x.reshape(chunk, n, 2).max(axis=1))
            any_in = scaled.contains_many(x).reshape(chunk, n).any(axis=1)
            assert not (any_in & ~top_in).any()
            union += int(any_in.sum())
            conspiracies += int((top_in & ~any_in).sum())
        cw, alo = gm.mc_crude(self.MODEL, self.TARGET, self.ENTRY, self.TRIALS, stream)
        assert conspiracies > 0
        hits = [round(q * self.TRIALS) for q in (cw.p_hat, alo.p_hat)]
        assert hits == [union + conspiracies, union]

    def test_executor_does_not_change_reports(self, monkeypatch):
        monkeypatch.setattr(estimate, "CHUNK_SCALARS", 2_000)
        entry = gm.ScalingLadder(gm.ScalingLimit.identity(2), (20,)).entries()[0]
        stream = gm.RandomStream(7)
        inline = gm.mc_crude(self.MODEL, self.TARGET, entry, 3_000, stream)
        with ThreadPoolExecutor(3) as pool:
            pooled = gm.mc_crude(self.MODEL, self.TARGET, entry, 3_000, stream, pool)
        assert pooled == inline
        assert inline[1].p_hat > 0.0

    def test_mixture_chunks_match_unbuffered_draws_on_threads(self, monkeypatch):
        # 50 trials per chunk: 2010 trials are forty full chunks and a tail
        # of ten, so each thread's buffers serve chunks of both sizes.
        monkeypatch.setattr(estimate, "CHUNK_SCALARS", 2_000)
        mixture = gm.GaussianMixture(
            np.array([0.4, 0.6]),
            (
                gm.GaussianModel(np.array([0.5, 0.3]), gm.build_covariance(np.eye(2))),
                self.MODEL,
            ),
        )
        n, trials, chunk = 20, 2010, 50
        entry = gm.ScalingLadder(gm.ScalingLimit.identity(2), (n,)).entries()[0]
        stream = gm.RandomStream(12)
        scaled = self.TARGET.scale(entry.scale_diag)
        cw = alo = 0
        for i, start in enumerate(range(0, trials, chunk)):
            take = min(chunk, trials - start)
            x = draw_mixture(mixture, take * n, stream.substream(i))
            cw += int(scaled.contains_many(x.reshape(take, n, 2).max(axis=1)).sum())
            alo += int(scaled.contains_many(x).reshape(take, n).any(axis=1).sum())
        inline = gm.mc_crude(mixture, self.TARGET, entry, trials, stream)
        with ThreadPoolExecutor(3) as pool:
            pooled = gm.mc_crude(mixture, self.TARGET, entry, trials, stream, pool)
        assert pooled == inline
        assert [round(r.p_hat * trials) for r in inline] == [cw, alo]
        assert alo > 0


class TestPlanRung:
    ENTRY = gm.ScalingLadder(gm.ScalingLimit.identity(2), (1000,)).entries()[0]
    CRUDE = (gm.Method.CRUDE_COMPONENTWISE, gm.Method.CRUDE_AT_LEAST_ONE)
    IS = gm.Method.IMPORTANCE_SAMPLED_SINGLE

    def test_centred_diagonal_block_gets_exact_rows(self):
        model = gm.GaussianModel(np.zeros(2), gm.build_covariance(np.diag([1.0, 2.0])))
        plan = gm.plan_rung(model, gm.Block(np.array([1.0, 1.2])), self.ENTRY, 100)[0]
        assert plan == (gm.Method.EXACT_BLOCK_DIAGONAL, *self.CRUDE)

    @pytest.mark.parametrize(
        "model, target",
        [
            (
                gm.GaussianModel(np.zeros(2), gm.build_covariance(np.array([[1.0, 0.5], [0.5, 1.0]]))),
                gm.Block(np.array([1.0, 1.0])),
            ),
            (gm.GaussianModel(np.array([0.1, 0.0]), STANDARD2.covariance), gm.Block(np.array([1.0, 1.0]))),
            (STANDARD2, gm.Halfspace(np.array([1.0, 1.0]), 2.0)),
            (STANDARD2, gm.Polyhedron(np.array([[2.0, 1.0], [1.0, 2.0]]), np.array([3.0, 3.0]))),
            (STANDARD2, gm.Ellipsoid(np.array([2.0, 2.0]), np.eye(2), 0.5)),
        ],
        ids=["correlated-block", "nonzero-mean-block", "halfspace", "polyhedron", "ellipsoid"],
    )
    def test_other_gaussian_rungs_get_importance_sampling(self, model, target):
        assert gm.plan_rung(model, target, self.ENTRY, 100)[0] == (self.IS, *self.CRUDE)

    def test_mixture_gets_crude_rows_only(self):
        cov = STANDARD2.covariance
        mixture = gm.GaussianMixture(
            np.array([0.5, 0.5]),
            (gm.GaussianModel(np.zeros(2), cov), gm.GaussianModel(np.array([-1.0, -1.0]), cov)),
        )
        target = gm.Block(np.array([2.0, 2.0]))
        assert gm.plan_rung(mixture, target, self.ENTRY, 100)[0] == self.CRUDE
        assert gm.plan_rung(mixture, target, self.ENTRY, 10**6)[0] == ()

    def test_budget_boundary_is_inclusive(self):
        target = gm.Halfspace(np.array([1.0, 1.0]), 2.0)
        trials = estimate.CRUDE_SCALAR_BUDGET // (self.ENTRY.n * 2)
        assert self.ENTRY.n * trials * 2 == estimate.CRUDE_SCALAR_BUDGET
        assert gm.plan_rung(STANDARD2, target, self.ENTRY, trials)[0] == (self.IS, *self.CRUDE)
        assert gm.plan_rung(STANDARD2, target, self.ENTRY, trials + 1)[0] == (self.IS,)

    def test_exact_rung_skips_its_pair_at_few_expected_hits(self):
        target = gm.Block(np.array([1.2, 1.2]))
        corner = self.ENTRY.scale_diag * target.corner
        p_cw = math.exp(gm.exact_block_diagonal_log(np.ones(2), corner, self.ENTRY.n)[0])
        bound = estimate.CRUDE_MIN_EXPECTED_HITS
        under = math.floor(bound / p_cw)
        # 599 trials expect 0.00999 hits, 600 trials 0.01001.
        assert under * p_cw < bound * (1 - 1e-4) and (under + 1) * p_cw > bound * (1 + 1e-4)
        exact = gm.Method.EXACT_BLOCK_DIAGONAL
        assert gm.plan_rung(STANDARD2, target, self.ENTRY, under)[0] == (exact,)
        assert gm.plan_rung(STANDARD2, target, self.ENTRY, under + 1)[0] == (exact, *self.CRUDE)
        skip = gm.plan_rung(STANDARD2, target, self.ENTRY, under)[1]
        assert skip == {"n": 1000, "reason": "expected_hits", "expected_hits": under * p_cw}
        assert gm.plan_rung(STANDARD2, target, self.ENTRY, under + 1)[1] is None

    def test_skip_survives_underflow(self):
        # p_componentwise is about exp(-1.2e4), far below double range.
        target = gm.Block(np.array([30.0, 30.0]))
        skip = gm.plan_rung(STANDARD2, target, self.ENTRY, 100)[1]
        assert skip == {"n": 1000, "reason": "expected_hits", "expected_hits": 0.0}
        exact = gm.Method.EXACT_BLOCK_DIAGONAL
        assert gm.plan_rung(STANDARD2, target, self.ENTRY, 100)[0] == (exact,)

    def test_rungs_without_exact_rows_keep_their_pair(self):
        # Both single-vector probabilities are below 1e-300, but neither
        # rung has an exact componentwise bound.
        far = gm.Halfspace(np.array([1.0, 1.0]), 100.0)
        assert gm.exact_single_log(STANDARD2, far, self.ENTRY) < math.log(1e-300)
        assert gm.plan_rung(STANDARD2, far, self.ENTRY, 100)[0] == (self.IS, *self.CRUDE)
        assert gm.plan_rung(STANDARD2, far, self.ENTRY, 100)[1] is None
        cov = STANDARD2.covariance
        mixture = gm.GaussianMixture(
            np.array([0.5, 0.5]),
            (gm.GaussianModel(np.zeros(2), cov), gm.GaussianModel(np.array([-1.0, -1.0]), cov)),
        )
        block = gm.Block(np.array([30.0, 30.0]))
        assert gm.plan_rung(mixture, block, self.ENTRY, 100)[0] == self.CRUDE
        assert gm.plan_rung(mixture, block, self.ENTRY, 100)[1] is None

    def test_skip_reports_the_scalar_budget(self):
        trials = estimate.CRUDE_SCALAR_BUDGET // (self.ENTRY.n * 2) + 1
        want = {"n": 1000, "reason": "scalar_budget", "scalars": 1000 * trials * 2}
        halfspace = gm.Halfspace(np.array([1.0, 1.0]), 2.0)
        assert gm.plan_rung(STANDARD2, halfspace, self.ENTRY, trials)[1] == want
        block = gm.Block(np.array([0.1, 0.1]))
        assert gm.plan_rung(STANDARD2, block, self.ENTRY, trials)[1] == want
        assert gm.plan_rung(STANDARD2, halfspace, self.ENTRY, trials - 1)[1] is None

    def test_exact_single_log(self):
        from scipy.stats import norm

        a_n = self.ENTRY.scale_diag
        model = gm.GaussianModel(np.array([0.2, -0.1]), gm.build_covariance(np.diag([1.0, 4.0])))
        got = gm.exact_single_log(model, gm.Block(np.array([1.0, 1.5])), self.ENTRY)
        want = norm.logsf((a_n[0] - 0.2) / 1.0) + norm.logsf((1.5 * a_n[1] + 0.1) / 2.0)
        assert got == pytest.approx(want, rel=1e-12)
        got = gm.exact_single_log(STANDARD2, gm.Halfspace(np.array([1.0, 1.0]), 2.0), self.ENTRY)
        assert got == pytest.approx(norm.logsf(2.0 * a_n[0] / math.sqrt(2.0)), rel=1e-12)
        ellipsoid = gm.Ellipsoid(np.array([2.0, 2.0]), np.eye(2), 0.5)
        assert gm.exact_single_log(STANDARD2, ellipsoid, self.ENTRY) is None


class TestImportanceSampling:
    def test_zero_shift_weights_are_unit(self):
        target = gm.Halfspace(np.array([1.0, 1.0]), 1.0)
        report = gm.is_single(STANDARD2, target, np.zeros(2), 5000, gm.RandomStream(41))
        # Unit weights make the weighted sum an integer hit count.
        count = report.p_hat * 5000
        assert count == pytest.approx(round(count), abs=1e-9)
        assert report.method is gm.Method.IMPORTANCE_SAMPLED_SINGLE

    def test_zero_shift_agrees_with_independent_crude(self):
        target = gm.Halfspace(np.array([1.0, 1.0]), 1.0)
        is_report = gm.is_single(STANDARD2, target, np.zeros(2), 20_000, gm.RandomStream(42))
        entry = gm.LadderEntry(1, np.ones(2), 1.0)
        crude = gm.mc_crude(STANDARD2, target, entry, 20_000, gm.RandomStream(43))[0]
        combined = is_report.std_error + crude.std_error
        assert abs(is_report.p_hat - crude.p_hat) <= 4.0 * combined

    def test_shifted_estimate_matches_quadrature_oracle(self):
        # P(X1 + X2 >= 8) = upper tail at 8/sqrt(2); the dominating-point
        # shift (4, 4) makes half the proposals hit.
        target = gm.Halfspace(np.array([1.0, 1.0]), 8.0)
        report = gm.is_single(STANDARD2, target, np.array([4.0, 4.0]), 40_000, gm.RandomStream(44))
        truth = gauss_tail(8.0 / math.sqrt(2.0))
        assert abs(report.p_hat - truth) <= 3.0 * report.std_error
        assert report.std_error <= 0.05 * truth

    def test_degenerate_flag_instead_of_error(self):
        report = gm.is_single(
            STANDARD2, gm.Block(np.array([50.0, 50.0])), np.zeros(2), 200, gm.RandomStream(45)
        )
        assert report.degenerate_weights
        assert report.p_hat == 0.0
        assert report.std_error == 0.0
        assert report.log_p_hat == -math.inf

    def test_determinism(self):
        target = gm.Halfspace(np.array([1.0, 1.0]), 4.0)
        a = gm.is_single(STANDARD2, target, np.array([2.0, 2.0]), 3000, gm.RandomStream(46))
        b = gm.is_single(STANDARD2, target, np.array([2.0, 2.0]), 3000, gm.RandomStream(46))
        assert a == b

    def test_executor_does_not_change_report(self, monkeypatch):
        monkeypatch.setattr(estimate, "CHUNK_SCALARS", 1_000)
        target = gm.Halfspace(np.array([1.0, 1.0]), 4.0)
        args = (STANDARD2, target, np.array([2.0, 2.0]), 30_000, gm.RandomStream(47))
        inline = gm.is_single(*args, scaling_norm_sq=1.5)
        with ThreadPoolExecutor(3) as pool:
            pooled = gm.is_single(*args, scaling_norm_sq=1.5, executor=pool)
        assert pooled == inline
        assert not inline.degenerate_weights

    def test_validation(self):
        target = gm.Halfspace(np.array([1.0, 1.0]), 1.0)
        with pytest.raises(ValueError):
            gm.is_single(STANDARD2, target, np.zeros(2), 0, gm.RandomStream(1))
        with pytest.raises(ValueError):
            gm.is_single(STANDARD2, target, np.zeros(3), 10, gm.RandomStream(1))
        mixture = gm.GaussianMixture(np.array([1.0]), (STANDARD2,))
        with pytest.raises(TypeError):
            gm.is_single(mixture, target, np.zeros(2), 10, gm.RandomStream(1))


CORRELATED3 = gm.GaussianModel(
    np.array([0.4, -0.3, 0.2]),
    gm.build_covariance(np.array([[1.0, 0.5, 0.2], [0.5, 1.5, -0.3], [0.2, -0.3, 0.8]])),
)


def separate_is_pass(model, target, shift, samples, stream, chunk_rows):
    """``(p_hat, std_error, hits)`` of one shift's IS pass with a draw of its own.

    Chunk ``i`` comes fresh from ``Gaussian(mean + shift)`` on
    ``stream.substream(i)``; weights come from boolean-indexed hits.
    """
    shifted = gm.GaussianModel(model.mean + shift, model.covariance)
    theta = model.covariance.sigma_inv @ shift
    sums, squares, hits = [], [], 0
    for i, start in enumerate(range(0, samples, chunk_rows)):
        x = fresh_gaussian(shifted, min(chunk_rows, samples - start), stream.substream(i))
        hit = target.contains_many(x)
        w = np.exp(-(x[hit] - model.mean - 0.5 * shift) @ theta)
        sums.append(float(w.sum()))
        squares.append(float((w * w).sum()))
        hits += int(hit.sum())
    p = math.fsum(sums) / samples
    return p, math.sqrt(max(math.fsum(squares) / samples - p * p, 0.0) / samples), hits


class TestSharedShifts:
    TARGET = gm.Polyhedron(np.array([[1.0, 0.5, 0.0], [0.2, 1.0, 0.3]]), np.array([2.0, 1.5]))
    SHIFTS = (np.array([1.5, 0.8, 0.1]), np.zeros(3), np.array([-0.2, 0.3, 0.6]))

    @pytest.mark.parametrize("workers", [0, 3])
    def test_one_draw_equals_separate_passes(self, monkeypatch, workers):
        # 3000 samples of dimension 3 at 999 scalars a chunk: 10 chunks.
        monkeypatch.setattr(estimate, "CHUNK_SCALARS", 999)
        args = (CORRELATED3, self.TARGET)
        kwargs = {"scaling_norm_sq": 2.5}
        with ThreadPoolExecutor(workers) if workers else contextlib.nullcontext() as pool:
            shared, hits = estimate._is_single_shifts(
                *args, self.SHIFTS, 3000, gm.RandomStream(48), executor=pool, **kwargs
            )
            separate = tuple(
                gm.is_single(*args, shift, 3000, gm.RandomStream(48), executor=pool, **kwargs)
                for shift in self.SHIFTS
            )
        assert shared == separate
        for report, count, shift in zip(shared, hits, self.SHIFTS):
            oracle = separate_is_pass(*args, shift, 3000, gm.RandomStream(48), 333)
            assert (report.p_hat, report.std_error, count) == oracle
        assert all(h > 0 for h in hits)
        assert not any(r.degenerate_weights for r in shared)
        # The zero shift weighs crude hits: its weighted sum is the hit count.
        assert round(shared[1].p_hat * 3000) == hits[1]

    def test_zero_shift_pair_is_equal(self):
        zeros = (np.zeros(3), np.zeros(3))
        (a, b), (hits_a, hits_b) = estimate._is_single_shifts(
            CORRELATED3, self.TARGET, zeros, 2000, gm.RandomStream(49)
        )
        assert a == b
        assert hits_a == hits_b

    def test_underflowing_weights_are_degenerate(self):
        # About half the shifted samples hit, but every weight is below
        # exp(-800) and underflows: the report must not read as a zero.
        target = gm.Halfspace(np.array([1.0, 0.0]), 40.0)
        (report,), (hits,) = estimate._is_single_shifts(
            STANDARD2, target, (np.array([40.0, 0.0]),), 4000, gm.RandomStream(1)
        )
        assert 1800 < hits < 2200
        assert report.degenerate_weights
        assert report.p_hat == 0.0
        assert report.log_p_hat == -math.inf
        assert gm.exact_single_log(STANDARD2, target, gm.LadderEntry(1, np.ones(2), 1.0)) < -800.0
        single = gm.is_single(STANDARD2, target, np.array([40.0, 0.0]), 4000, gm.RandomStream(1))
        assert single == report


class TestUnionCombinedReport:
    def test_delta_method_standard_error(self):
        single = gm.EstimateReport(
            p_hat=0.01, std_error=0.001, log_p_hat=math.log(0.01), trials=1000,
            method=gm.Method.IMPORTANCE_SAMPLED_SINGLE, seed=7, n=1, scaling_norm_sq=2.0,
        )
        lifted = gm.union_combined_report(single, 10, 2.0)
        assert lifted.p_hat == pytest.approx(1.0 - 0.99**10, rel=1e-14)
        assert lifted.std_error == pytest.approx(10.0 * 0.99**9 * 0.001, rel=1e-12)
        assert lifted.log_p_hat == pytest.approx(math.log(lifted.p_hat), rel=1e-12)
        assert lifted.method is gm.Method.UNION_COMBINED
        assert lifted.n == 10
        assert lifted.trials == 1000

    def test_degenerate_input_passes_through(self):
        single = gm.EstimateReport(
            p_hat=0.0, std_error=0.0, log_p_hat=-math.inf, trials=100,
            method=gm.Method.IMPORTANCE_SAMPLED_SINGLE, seed=7, n=1,
            scaling_norm_sq=2.0, degenerate_weights=True,
        )
        lifted = gm.union_combined_report(single, 50, 2.0)
        assert lifted.p_hat == 0.0
        assert lifted.log_p_hat == -math.inf
        assert lifted.degenerate_weights


class TestExactBlockReports:
    def test_rows_match_direct_formula(self):
        limit = gm.ScalingLimit.identity(2)
        (entry,) = gm.ScalingLadder(limit, (1000,)).entries()
        cw_row, alo_row = gm.exact_block_reports([1.0, 1.0], [1.2, 1.2], entry, seed=5)
        a_n = math.sqrt(2.0 * math.log(1000.0))
        cw, alo = exact_block_pair([1.0, 1.0], [1.2, 1.2], a_n, 1000)
        assert cw_row.p_hat == pytest.approx(cw, rel=1e-12)
        assert alo_row.p_hat == pytest.approx(alo, rel=1e-12)
        assert cw_row.method is gm.Method.EXACT_BLOCK_DIAGONAL
        assert alo_row.method is gm.Method.UNION_COMBINED
        for row in (cw_row, alo_row):
            assert row.std_error == 0.0
            assert row.trials == 0
            assert row.seed == 5
            assert row.n == 1000
            assert row.scaling_norm_sq == pytest.approx(2.0 * math.log(1000.0))

    def test_anisotropic_limit_scales_corner(self):
        limit = gm.ScalingLimit(np.array([1.0, 0.5]))
        (entry,) = gm.ScalingLadder(limit, (100,)).entries()
        cw_row, _ = gm.exact_block_reports([1.0, 1.0], [1.0, 1.0], entry, seed=0)
        a_n = math.sqrt(2.0 * math.log(100.0))
        cw, _ = exact_block_pair([1.0, 1.0], [a_n, 0.5 * a_n], 1.0, 100)
        assert cw_row.p_hat == pytest.approx(cw, rel=1e-12)


class TestSlopeFit:
    def test_exact_line(self):
        fit = gm.slope_fit([(2.0, -1.9), (4.0, -3.7), (6.0, -5.5)], predicted_rate=-1.0)
        assert fit.slope == pytest.approx(-0.9, abs=1e-12)
        assert fit.intercept == pytest.approx(-0.1, abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
        assert fit.relative_gap == pytest.approx(0.1, abs=1e-12)
        assert fit.predicted_rate == -1.0
        assert fit.points == ((2.0, -1.9), (4.0, -3.7), (6.0, -5.5))

    def test_constant_data(self):
        fit = gm.slope_fit([(1.0, -2.0), (2.0, -2.0), (3.0, -2.0)], predicted_rate=-1.0)
        assert fit.slope == pytest.approx(0.0, abs=1e-12)
        assert fit.r_squared == 1.0

    def test_zero_predicted_rate_gap_is_nan(self):
        fit = gm.slope_fit([(1.0, -1.0), (2.0, -2.0), (3.0, -3.0)], predicted_rate=0.0)
        assert math.isnan(fit.relative_gap)

    def test_insufficient_points_message(self):
        with pytest.raises(ValueError, match="insufficient points"):
            gm.slope_fit([(1.0, -1.0), (2.0, -2.0)], predicted_rate=-1.0)
        with pytest.raises(ValueError, match="insufficient points"):
            gm.slope_fit([(1.0, -1.0), (1.0, -1.1), (1.0, -0.9)], predicted_rate=-1.0)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            gm.slope_fit([(1.0, -1.0), (2.0, -math.inf), (3.0, -3.0)], predicted_rate=-1.0)


class TestConspiracyRate:
    """The conspiracy rate: componentwise minus at-least-one hits of one ``mc_crude`` pass."""

    def test_impossible_in_one_dimension(self):
        cw, alo = gm.mc_crude(
            STANDARD1, gm.Block(np.array([1.5])), gm.LadderEntry(5, np.ones(1), 1.0), 5000,
            gm.RandomStream(61),
        )
        assert cw.p_hat > 0.0
        assert cw.p_hat == alo.p_hat

    def test_single_draw_is_conspiracy_free(self):
        cw, alo = gm.mc_crude(
            STANDARD2, gm.Block(np.array([1.0, 1.0])), gm.LadderEntry(1, np.ones(2), 1.0), 5000,
            gm.RandomStream(62),
        )
        assert cw.p_hat > 0.0
        assert cw.p_hat == alo.p_hat

    def test_matches_exact_difference(self):
        entry = gm.LadderEntry(5, np.ones(2), 1.0)
        trials = 40_000
        cw_row, alo_row = gm.mc_crude(
            STANDARD2, gm.Block(np.array([1.0, 1.0])), entry, trials, gm.RandomStream(63)
        )
        cw, alo = exact_block_pair([1.0, 1.0], [1.0, 1.0], 1.0, 5)
        exact_gap = cw - alo
        se = math.sqrt(exact_gap * (1.0 - exact_gap) / trials)
        assert abs(cw_row.p_hat - alo_row.p_hat - exact_gap) <= 3.0 * se
