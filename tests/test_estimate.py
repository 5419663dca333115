"""Monte Carlo, importance sampling, exact references, and slope fits."""

import math
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import mpmath
import numpy as np
import pytest
from scipy import integrate

import gaussmax as gm
from gaussmax import estimate
from gaussmax.config import load_config
from gaussmax.dominate import _kkt_fit
from helpers import draw_gaussian, exact_block_pair, fancy_index_mixture, fresh_gaussian

STANDARD2 = gm.GaussianModel(np.zeros(2), gm.build_covariance(np.eye(2)))
STANDARD1 = gm.GaussianModel(np.zeros(1), gm.build_covariance(np.eye(1)))
POLYHEDRON_IS = Path(__file__).resolve().parents[1] / "benchmarks/configs/polyhedron-is.yaml"


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


class TestLogNdtrInterval:
    """``log(Phi(hi) - Phi(lo))`` against mpmath at 60 digits."""

    @staticmethod
    def exact(lo, hi) -> float:
        with mpmath.workdps(60):
            lo, hi = mpmath.mpf(lo), mpmath.mpf(hi)
            # Differences of the tails away from 0, or of erf near 0, where
            # ends a subnormal apart would cancel in Phi.
            if lo >= 1:
                mass = mpmath.ncdf(-lo) - mpmath.ncdf(-hi)
            elif hi <= -1:
                mass = mpmath.ncdf(hi) - mpmath.ncdf(lo)
            else:
                mass = (mpmath.erf(hi / mpmath.sqrt(2)) - mpmath.erf(lo / mpmath.sqrt(2))) / 2
            return float(mpmath.log(mass))

    def test_matches_mpmath(self):
        inf = math.inf
        pairs = [
            # Deep upper and lower tails, past where Phi_bar underflows.
            (38.0, 39.0), (40.0, 40.5), (40.0, inf), (1e3, 1e3 + 1.0), (1e5, 1e5 + 1e-3),
            (-39.0, -38.0), (-40.5, -40.0), (-inf, -40.0), (-1e3 - 1.0, -1e3),
            # The borders of the narrow form, h = 1 and m h = 1, and near them.
            (0.0, 2.0), (0.0, np.nextafter(2.0, 3.0)), (0.5, 1.5), (1.9, 2.4),
            (np.sqrt(2.0) - 0.5, np.sqrt(2.0) + 0.5), (-0.99, 1.0), (-1.01, 1.0),
            # Straddling 0, and the whole line.
            (-0.5, 0.6), (-3.0, 0.2), (-1.5, 1.5), (-inf, inf), (-inf, 0.0), (0.0, inf),
            # Infinite ends.
            (-3.0, inf), (2.0, inf), (30.0, inf), (-inf, -30.0), (-inf, -2.0), (-inf, 3.0),
        ]
        # Ends one ulp apart, and a little further, on both sides of 0.
        for lo in (0.0, 0.3, 1.0, 5.0, 37.0, 300.0, -2.0, -40.0, -1e4):
            for gap in (1, 2, 1000):
                pairs.append((lo, lo + gap * (np.nextafter(lo, inf) - lo)))
        rng = np.random.default_rng(28)
        for _ in range(300):
            lo = rng.normal() * 10.0 ** rng.uniform(-3.0, 2.0)
            pairs.append((lo, lo + 10.0 ** rng.uniform(-15.0, 1.5) * (abs(lo) + 1e-3)))
        lo, hi = map(np.array, zip(*pairs))
        assert (lo < hi).all()
        got = estimate._log_ndtr_interval(lo, hi)
        want = np.array([self.exact(a, b) for a, b in pairs])
        eps = np.finfo(float).eps
        np.testing.assert_allclose(got, want, rtol=4.0 * eps, atol=4.0 * eps)
        assert got[pairs.index((-inf, inf))] == 0.0


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
    # n = 10000 at d = 2 gives the full draw 200 trials per chunk, so 600
    # trials span three chunks; the correlated model and lowered corner
    # make both events hit in a sizeable share of the trials.  The
    # polyhedron has no finite lower bounds, so it keeps the full draw.
    MODEL = gm.GaussianModel(np.zeros(2), gm.build_covariance(np.array([[1.0, 0.8], [0.8, 1.0]])))
    TARGET = gm.Block(np.array([0.85, 0.85]))
    POLYHEDRON = gm.Polyhedron(np.array([[1.0, 0.1], [0.1, 1.0]]), np.array([0.93, 0.93]))
    ENTRY = gm.ScalingLadder(gm.ScalingLimit.identity(2), (10_000,)).entries()[0]
    TRIALS = 600

    @staticmethod
    def split(top_in, any_in):
        """``(union, conspiracies)``: trials with a vector inside, and with only the maximum inside."""
        # For an upward-closed set a vector inside puts the maximum inside,
        # so every componentwise hit is a union hit or a conspiracy.
        assert not (any_in & ~top_in).any()
        return int(any_in.sum()), int((top_in & ~any_in).sum())

    def test_full_draw_hits_split_into_union_and_conspiracies(self):
        # The chunks are redrawn here: 200 trials each, chunk i from substream i.
        n, chunk = self.ENTRY.n, 200
        stream = gm.RandomStream(6)
        scaled = self.POLYHEDRON.scale(self.ENTRY.scale_diag)
        assert estimate._crude_pass(self.MODEL, scaled, n) == (n * 2, (None, (1.0,)))
        union = conspiracies = 0
        for i in range(self.TRIALS // chunk):
            x = draw_gaussian(self.MODEL, chunk * n, stream.substream(i))
            top_in = scaled.contains_many(x.reshape(chunk, n, 2).max(axis=1))
            any_in = scaled.contains_many(x).reshape(chunk, n).any(axis=1)
            u, c = self.split(top_in, any_in)
            union, conspiracies = union + u, conspiracies + c
        cw, alo = gm.mc_crude(self.MODEL, self.POLYHEDRON, self.ENTRY, self.TRIALS, stream)
        assert conspiracies > 0
        hits = [round(q * self.TRIALS) for q in (cw.p_hat, alo.p_hat)]
        assert hits == [union + conspiracies, union]

    def test_block_hits_split_into_union_and_conspiracies(self, monkeypatch):
        # The block takes the exceedance pass.  Its chunks are redrawn here,
        # chunk i from substream i, and each trial's kept vectors split its
        # hits as the full draw's vectors do.
        monkeypatch.setattr(estimate, "CHUNK_SCALARS", 20_000)
        n, trials = self.ENTRY.n, 6000
        stream = gm.RandomStream(6)
        scaled = self.TARGET.scale(self.ENTRY.scale_diag)
        per_trial, (t, q) = estimate._crude_pass(self.MODEL, scaled, n)
        chunk = int(20_000 // per_trial)
        assert trials > 2 * chunk
        union = conspiracies = 0
        for i, start in enumerate(range(0, trials, chunk)):
            take = min(chunk, trials - start)
            rng = stream.substream(i).generator()
            cells = list(estimate._draw_cells(self.MODEL, t, q, n, take, rng))
            x = np.concatenate([rows for rows, _ in cells])
            trial = np.concatenate([np.repeat(np.arange(take), c) for _, c in cells])
            assert (x >= t).any(axis=1).all()
            top_in, any_in = np.zeros(take, bool), np.zeros(take, bool)
            for b in np.unique(trial):
                rows = x[trial == b]
                top_in[b] = scaled.contains(rows.max(axis=0))
                any_in[b] = scaled.contains_many(rows).any()
            u, c = self.split(top_in, any_in)
            union, conspiracies = union + u, conspiracies + c
        cw, alo = gm.mc_crude(self.MODEL, self.TARGET, self.ENTRY, trials, stream)
        assert conspiracies > 0 and union > 0
        hits = [round(r.p_hat * trials) for r in (cw, alo)]
        assert hits == [union + conspiracies, union]

    def test_executor_does_not_change_reports(self, monkeypatch):
        # The block takes the exceedance pass, the polyhedron the full draw.
        monkeypatch.setattr(estimate, "CHUNK_SCALARS", 2_000)
        entry = gm.ScalingLadder(gm.ScalingLimit.identity(2), (20,)).entries()[0]
        stream = gm.RandomStream(7)
        for target in (self.TARGET, self.POLYHEDRON):
            inline = gm.mc_crude(self.MODEL, target, entry, 3_000, stream)
            with ThreadPoolExecutor(3) as pool:
                pooled = gm.mc_crude(self.MODEL, target, entry, 3_000, stream, pool)
            assert pooled == inline
            assert inline[1].p_hat > 0.0

    def test_mixture_chunks_match_unbuffered_draws_on_threads(self, monkeypatch):
        # The polyhedron takes the mixture's full draw, by cells.  50 trials
        # per chunk: 2010 trials are forty full chunks and a tail of ten,
        # each redrawn here by the fancy-index oracle.
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
        scaled = self.POLYHEDRON.scale(entry.scale_diag)
        assert estimate._crude_pass(mixture, scaled, n) == (n * 2, (None, mixture.weights))
        cw = alo = 0
        for i, start in enumerate(range(0, trials, chunk)):
            take = min(chunk, trials - start)
            x, _, owners = fancy_index_mixture(mixture, n, take, stream.substream(i))
            order = np.argsort(owners, kind="stable")
            blocks = x[order].reshape(take, n, 2)
            cw += int(scaled.contains_many(blocks.max(axis=1)).sum())
            alo += int(scaled.contains_many(x)[order].reshape(take, n).any(axis=1).sum())
        inline = gm.mc_crude(mixture, self.POLYHEDRON, entry, trials, stream)
        with ThreadPoolExecutor(3) as pool:
            pooled = gm.mc_crude(mixture, self.POLYHEDRON, entry, trials, stream, pool)
        assert pooled == inline
        assert [round(r.p_hat * trials) for r in inline] == [cw, alo]
        assert alo > 0


def _full_draw(model, scaled, n):
    """``estimate._crude_pass`` that always picks the full draw."""
    return n * model.dimension, (None, estimate._components(model)[0])


ELLIPSE_MIXTURE = gm.GaussianMixture(
    np.array([0.3, 0.7]),
    (
        gm.GaussianModel(np.array([-1.0, -1.0]), gm.build_covariance(np.eye(2))),
        gm.GaussianModel(np.zeros(2), gm.build_covariance(np.array([[1.0, 0.3], [0.3, 1.0]]))),
    ),
)
# The mixture-ellipsoid benchmark set, scaled by 0.45 so that both events are common.
ELLIPSE = gm.Ellipsoid(np.array([2.0, 2.2]), np.array([[1.0, 0.25], [0.25, 0.8]]), 0.7).scale(
    np.full(2, 0.45)
)
RHO6 = gm.GaussianModel(np.zeros(2), gm.build_covariance(np.array([[1.0, 0.6], [0.6, 1.0]])))


class TestExceedancePass:
    @pytest.mark.parametrize("n", [100, 1000])
    @pytest.mark.parametrize(
        "model, target",
        [(ELLIPSE_MIXTURE, ELLIPSE), (RHO6, gm.Block(np.array([0.9, 0.95])))],
        ids=["mixture-ellipse", "rho-block"],
    )
    def test_counts_match_full_draw(self, monkeypatch, model, target, n):
        entry = gm.ScalingLadder(gm.ScalingLimit.identity(2), (n,)).entries()[0]
        assert estimate._crude_pass(model, target.scale(entry.scale_diag), n)[1] is not None
        trials = 10_000
        fast = gm.mc_crude(model, target, entry, trials, gm.RandomStream(71))
        monkeypatch.setattr(estimate, "_crude_pass", _full_draw)
        full = gm.mc_crude(model, target, entry, trials, gm.RandomStream(72))
        for a, b in zip(fast, full):
            assert 0.01 < b.p_hat < 0.99
            assert abs(a.p_hat - b.p_hat) <= 4.0 * math.hypot(a.std_error, b.std_error)

    @pytest.mark.parametrize("a", [-1.5, 0.0, 6.0])
    def test_tail_sampler_matches_truncnorm(self, a):
        from scipy import stats

        z = estimate._normal_tail(a, 20_000, np.random.default_rng(73))
        assert len(z) == 20_000 and z.min() >= a
        assert stats.kstest(z, stats.truncnorm(a, np.inf).cdf).pvalue > 1e-3

    def test_bounded_shapes_take_the_pass_and_others_do_not(self):
        n = 1000
        entry = gm.ScalingLadder(gm.ScalingLimit.identity(2), (n,)).entries()[0]
        for target in (gm.Block(np.array([1.0, 1.2])), ELLIPSE):
            assert estimate._crude_pass(STANDARD2, target.scale(entry.scale_diag), n)[1] is not None
        # The corner lies 0.1 A_n below the origin: r = 2 P(X > -0.37) >= 1.
        negative = gm.Block(np.array([-0.1, -0.1]))
        others = (
            negative,
            gm.Halfspace(np.array([1.0, 1.0]), 9.0),
            gm.Polyhedron(np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([3.0, 3.0])),
        )
        for target in others:
            assert estimate._crude_pass(STANDARD2, target.scale(entry.scale_diag), n) == (
                2 * n, (None, (1.0,))
            )

    @pytest.mark.parametrize(
        "target, n, hits",
        [
            (gm.Block(np.array([-0.1, -0.1])), 2, (2548, 2021)),
            (gm.Halfspace(np.array([1.0, 1.0]), 1.5), 5, (1342, 527)),
            (gm.Polyhedron(np.array([[2.0, 1.0], [1.0, 2.0]]), np.array([3.0, 3.0])), 5, (234, 59)),
        ],
        ids=["negative-block", "halfspace", "polyhedron"],
    )
    def test_full_draw_rows_are_unchanged(self, target, n, hits):
        # Hit counts recorded from the full-draw-only implementation on the
        # same streams; the block's tails sum to r = 1.09 at n = 2.
        entry = gm.ScalingLadder(gm.ScalingLimit.identity(2), (n,)).entries()[0]
        cw, alo = gm.mc_crude(STANDARD2, target, entry, 4000, gm.RandomStream(808))
        assert (round(cw.p_hat * 4000), round(alo.p_hat * 4000)) == hits

    @pytest.mark.parametrize("workers", [2, 3])
    def test_workers_do_not_change_reports(self, monkeypatch, workers):
        monkeypatch.setattr(estimate, "CHUNK_SCALARS", 3_000)
        chunks = []
        draw = estimate._draw_cells

        def counting(model, t, q, n, trials, rng):
            chunks.append(trials)
            return draw(model, t, q, n, trials, rng)

        monkeypatch.setattr(estimate, "_draw_cells", counting)
        entry = gm.ScalingLadder(gm.ScalingLimit.identity(2), (1000,)).entries()[0]
        args = (ELLIPSE_MIXTURE, ELLIPSE, entry, 2000, gm.RandomStream(74))
        inline = gm.mc_crude(*args)
        inline_chunks, chunks[:] = list(chunks), []
        assert len(inline_chunks) >= 3
        with ThreadPoolExecutor(workers) as pool:
            pooled = gm.mc_crude(*args, pool)
        assert pooled == inline
        assert sorted(chunks) == sorted(inline_chunks)
        assert inline[1].p_hat > 0.0


class TestMixtureFullDraw:
    """A mixture on a set without lower bounds: one unconditioned cell per component."""

    def test_at_least_one_matches_the_halfspace_formula(self):
        # Draws are independent, so P(at least one) = 1 - (1 - sum_k w_k Phi_bar_k)^n.
        from scipy.stats import norm

        n, trials = 20, 20_000
        entry = gm.ScalingLadder(gm.ScalingLimit.identity(2), (n,)).entries()[0]
        target = gm.Halfspace(np.array([1.0, 1.0]), 1.35)
        scaled = target.scale(entry.scale_diag)
        assert estimate._crude_pass(ELLIPSE_MIXTURE, scaled, n)[1][0] is None
        q = sum(
            w * norm.sf((scaled.offset - scaled.normal @ c.mean)
                        / math.sqrt(scaled.normal @ c.covariance.sigma @ scaled.normal))
            for w, c in zip(ELLIPSE_MIXTURE.weights, ELLIPSE_MIXTURE.components)
        )
        exact = 1.0 - (1.0 - q) ** n
        alo = gm.mc_crude(ELLIPSE_MIXTURE, target, entry, trials, gm.RandomStream(75))[1]
        assert 0.1 < exact < 0.9
        assert abs(alo.p_hat - exact) <= 4.0 * alo.std_error

    @pytest.mark.parametrize("weights", [(0.0, 1.0), (0.5, 0.0, 0.5)], ids=["first", "middle"])
    def test_zero_weight_component_is_never_drawn(self, weights):
        # The zero-weight component sits deep inside the halfspace, so any
        # draw of it would hit; the others lie 7.6 standard deviations out.
        inside = gm.GaussianModel(np.array([50.0, 50.0]), gm.build_covariance(np.eye(2)))
        comps = tuple(inside if w == 0.0 else STANDARD2 for w in weights)
        mixture = gm.GaussianMixture(np.array(weights), comps)
        entry = gm.ScalingLadder(gm.ScalingLimit.identity(2), (5,)).entries()[0]
        target = gm.Halfspace(np.array([1.0, 1.0]), 6.0)
        reports = gm.mc_crude(mixture, target, entry, 5000, gm.RandomStream(76))
        assert [r.p_hat for r in reports] == [0.0, 0.0]


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
        target = gm.Halfspace(np.array([1.0, 1.0]), 4.0)
        assert gm.plan_rung(mixture, target, self.ENTRY, 100)[0] == self.CRUDE
        assert gm.plan_rung(mixture, target, self.ENTRY, 10**6)[0] == ()
        # The block's exceedance pass draws about 2 scalars a trial, not 2000.
        block = gm.Block(np.array([2.0, 2.0]))
        assert gm.plan_rung(mixture, block, self.ENTRY, 10**6) == (self.CRUDE, None)

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
        # r = 0.71, so the exceedance pass would draw more than the full draw.
        block = gm.Block(np.array([0.1, 0.1]))
        assert gm.plan_rung(STANDARD2, block, self.ENTRY, trials)[1] == want
        assert gm.plan_rung(STANDARD2, halfspace, self.ENTRY, trials - 1)[1] is None

    def test_exceedance_pass_counts_its_own_scalars(self):
        target = gm.Block(np.array([0.6, 0.6]))
        per_trial, (t, q) = estimate._crude_pass(STANDARD2, target.scale(self.ENTRY.scale_diag), 1000)
        assert per_trial == q.size + 1000 * q.sum() * 4 < 2000
        fits = math.floor(estimate.CRUDE_SCALAR_BUDGET / per_trial)
        assert gm.plan_rung(STANDARD2, target, self.ENTRY, fits)[1] is None
        skip = gm.plan_rung(STANDARD2, target, self.ENTRY, fits + 1)[1]
        assert skip == {"n": 1000, "reason": "scalar_budget", "scalars": math.ceil((fits + 1) * per_trial)}

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


def unit_row(model, target, active, cap, seed):
    """``(report, record)`` of the rung ``n = 1``, ``A_n = I`` alone, through ``is_cones``.

    The rung's scaled set is ``target`` itself; it draws from its active
    cone when ``active``, else from the plain draw.
    """
    d = model.dimension
    limit = gm.ScalingLimit.identity(d)
    x_star = gm.dominating_point(target, model.covariance, limit).x_star
    rung = (gm.LadderEntry(1, np.ones(d), 1.0), active)
    (report,), (record,) = gm.is_cones(
        model, target, limit, x_star, [rung], cap, gm.RandomStream(seed)
    )
    return report, record


class TestImportanceSampling:
    def test_zero_shift_weights_are_unit(self):
        target = gm.Halfspace(np.array([1.0, 1.0]), 1.0)
        report, record = unit_row(STANDARD2, target, False, 5000, 41)
        # Unit weights make the weighted sum an integer hit count.
        assert record["active_rows"] == 0 and report.trials == 5000
        count = report.p_hat * 5000
        assert count == pytest.approx(round(count), abs=1e-9)
        assert round(count) == record["hits"]
        assert record["effective_sample_size"] == pytest.approx(record["hits"], rel=1e-12)
        assert report.method is gm.Method.IMPORTANCE_SAMPLED_SINGLE

    def test_zero_shift_agrees_with_independent_crude(self):
        target = gm.Halfspace(np.array([1.0, 1.0]), 1.0)
        is_report, _ = unit_row(STANDARD2, target, False, 20_000, 42)
        entry = gm.LadderEntry(1, np.ones(2), 1.0)
        crude = gm.mc_crude(STANDARD2, target, entry, 20_000, gm.RandomStream(43))[0]
        combined = is_report.std_error + crude.std_error
        assert abs(is_report.p_hat - crude.p_hat) <= 4.0 * combined

    def test_shifted_estimate_matches_quadrature_oracle(self):
        # P(X1 + X2 >= 8) = upper tail at 8/sqrt(2); the cone of the one
        # active face is the halfspace itself, so every proposal hits.
        target = gm.Halfspace(np.array([1.0, 1.0]), 8.0)
        report, record = unit_row(STANDARD2, target, True, 40_000, 44)
        truth = gauss_tail(8.0 / math.sqrt(2.0))
        assert record["active_rows"] == 1 and record["hits"] == record["samples"]
        assert abs(report.p_hat - truth) <= 3.0 * report.std_error
        assert report.std_error <= 0.05 * truth

    def test_degenerate_flag_instead_of_error(self):
        report, record = unit_row(STANDARD2, gm.Block(np.array([50.0, 50.0])), False, 200, 45)
        assert record["hits"] == 0
        assert report.degenerate_weights
        assert report.p_hat == 0.0
        assert report.std_error == 0.0
        assert report.log_p_hat == -math.inf

    def test_determinism(self):
        target = gm.Halfspace(np.array([1.0, 1.0]), 4.0)
        a = unit_row(STANDARD2, target, True, 3000, 46)
        b = unit_row(STANDARD2, target, True, 3000, 46)
        assert a == b

    def test_ill_conditioned_ellipsoid(self):
        # With rho = 1 - 5e-12, X1 - X2 has sd 3e-6, so X = (t, t) with t
        # standard normal up to that spread: the ellipsoid holds t in
        # [2.50025, 3.49725], the roots of (t - 3)^2 + 1e-3 (t - 2)^2 = 0.25.
        # Mapped into the whitened frame, its shape C^T S C is too
        # ill-conditioned to build as an Ellipsoid.
        from scipy.stats import norm

        rho = 1.0 - 5e-12
        cov = gm.build_covariance(np.array([[1.0, rho], [rho, 1.0]]))
        model = gm.GaussianModel(np.zeros(2), cov)
        target = gm.Ellipsoid(np.array([3.0, 2.0]), np.diag([1.0, 1e-3]), 0.5)
        report, _ = unit_row(model, target, True, 1000, 1)
        roots = np.roots([1.001, -6.004, 8.754])
        truth = norm.sf(roots.min()) - norm.sf(roots.max())
        assert not report.degenerate_weights
        assert abs(report.p_hat - truth) <= 4.0 * report.std_error
        assert report.std_error <= 0.1 * truth

    def test_validation(self):
        target = gm.Halfspace(np.array([1.0, 1.0]), 1.0)
        for active in (True, False):
            with pytest.raises(ValueError, match="samples must be >= 1"):
                unit_row(STANDARD2, target, active, 0, 1)


CORRELATED3 = gm.GaussianModel(
    np.array([0.4, -0.3, 0.2]),
    gm.build_covariance(np.array([[1.0, 0.5, 0.2], [0.5, 1.5, -0.3], [0.2, -0.3, 0.8]])),
)


def separate_cone_pass(model, scaled, cone, samples, stream, chunk_rows):
    """``(p_hat, std_error, hits)`` of one cone pass, or the plain draw, in linear space.

    Chunk ``i`` takes ``x0 = mean + C z0`` from ``fresh_gaussian`` on
    ``stream.substream(i)``, and ``k`` rows of exponentials ``E`` from that
    substream past the same normals.  The proposal moves ``x0`` so that
    ``G z = u = h + E / mu``, ``z = L (x - mean)``, keeping ``z0``'s part
    in the null space of ``G``; a hit, tested against ``scaled`` in the
    frame of ``x``, weighs the ``N(0, S)`` density of ``u`` over its
    exponential density, ``S = G G^T``.  The plain draw (``k = 0``) weighs
    every hit 1.  The pass must integrate no chord.
    """
    g, h, mu = cone.rows, cone.offsets, cone.mu
    k, d = len(mu), model.dimension
    gram = g @ g.T
    back = model.covariance.chol_lower @ g.T @ np.linalg.inv(gram)
    sums, squares, hits = [], [], 0
    for i, start in enumerate(range(0, samples, chunk_rows)):
        size = min(chunk_rows, samples - start)
        x0 = fresh_gaussian(model, size, stream.substream(i))
        rng = stream.substream(i).generator()
        rng.standard_normal((size, d))
        e = rng.standard_exponential((k, size))
        u = h[:, None] + e / mu[:, None]
        x = x0 + (back @ (u - g @ model.covariance.whitener @ (x0 - model.mean).T)).T
        hit = scaled.contains_many(x)
        density = np.exp(-0.5 * np.einsum("is,is->s", u, np.linalg.solve(gram, u)))
        density /= math.sqrt(np.linalg.det(2.0 * math.pi * gram))
        w = (density / np.prod(mu[:, None] * np.exp(-e), axis=0))[hit]
        sums.append(float(w.sum()))
        squares.append(float((w * w).sum()))
        hits += int(hit.sum())
    p = math.fsum(sums) / samples
    return p, math.sqrt(max(math.fsum(squares) / samples - p * p, 0.0) / samples), hits


class TestSharedShifts:
    """Passes that each move one shared draw into their own proposal."""

    TARGET = gm.Polyhedron(np.array([[1.0, 0.5, 0.0], [0.2, 1.0, 0.3]]), np.array([2.0, 1.5]))
    OTHER = gm.Halfspace(np.array([0.3, 0.4, 1.0]), 1.0)

    @classmethod
    def jobs(cls):
        """``(set, cone)`` unscaled: TARGET's active cone and plain draw, OTHER's active cone."""
        limit = gm.ScalingLimit.identity(3)
        entry = gm.LadderEntry(1, np.ones(3), 1.0)
        jobs = []
        for target, active in ((cls.TARGET, True), (cls.TARGET, False), (cls.OTHER, True)):
            x_star = gm.dominating_point(target, CORRELATED3.covariance, limit).x_star
            cone = (
                estimate._active_cone(CORRELATED3, target, limit, entry, x_star)
                if active else estimate._plain_cone(3)
            )
            jobs.append((target, cone))
        return jobs

    @pytest.mark.parametrize("extra", [0, 3])
    def test_one_draw_equals_separate_passes(self, monkeypatch, extra):
        # 3000 + extra samples of dimension 3 at 999 scalars a chunk: 10
        # chunks, nine of 333 rows and a last one of 3 + extra, each pass
        # short of its target.  TARGET's cone holds both its rows and
        # OTHER's is the halfspace, so neither integrates a chord and every
        # proposal hits.
        samples = 3000 + extra
        monkeypatch.setattr(estimate, "CHUNK_SCALARS", 999)
        jobs = self.jobs()
        assert [len(c.mu) for _, c in jobs] == [2, 0, 1]
        assert all(estimate._chord(CORRELATED3, *job) is None for job in jobs)
        passes = [cone_pass(CORRELATED3, *job) for job in jobs]
        shared, records = estimate._importance_sample(
            CORRELATED3, passes, samples, gm.RandomStream(48)
        )
        for pass_, report, record in zip(passes, shared, records):
            alone = estimate._importance_sample(CORRELATED3, [pass_], samples, gm.RandomStream(48))
            assert alone == ((report,), (record,))
        assert [r["samples"] for r in records] == [samples] * 3
        hits = [r["hits"] for r in records]
        for report, count, job in zip(shared, hits, jobs):
            p, se, oracle_hits = separate_cone_pass(
                CORRELATED3, *job, samples, gm.RandomStream(48), 333
            )
            assert count == oracle_hits
            # Log-space sums and linear ones differ in the last bits only.
            assert report.p_hat == pytest.approx(p, rel=1e-12)
            assert report.std_error == pytest.approx(se, rel=1e-9)
        assert all(h > 0 for h in hits)
        assert hits[0] == hits[2] == samples
        assert not any(r.degenerate_weights for r in shared)
        # The plain draw weighs crude hits: its weighted sum is the hit count.
        assert round(shared[1].p_hat * samples) == hits[1]

    def test_zero_shift_pair_is_equal(self):
        zeros = [cone_pass(CORRELATED3, self.TARGET, estimate._plain_cone(3)) for _ in range(2)]
        (a, b), (record_a, record_b) = estimate._importance_sample(
            CORRELATED3, zeros, 2000, gm.RandomStream(49)
        )
        assert record_a["hits"] > 0
        assert a == b
        assert record_a == record_b

    def test_underflowing_weights_stay_in_log_space(self):
        # Every proposal of the halfspace's cone hits, and every weight is
        # below exp(-800): p_hat underflows, but log_p_hat stays an
        # estimate, and the record keeps its relative standard error.
        target = gm.Halfspace(np.array([1.0, 0.0]), 40.0)
        report, record = unit_row(STANDARD2, target, True, 4000, 1)
        assert record["hits"] == record["samples"] == 1024 and record["target_met"]
        assert not report.degenerate_weights
        assert report.p_hat == 0.0
        log_q = gm.exact_single_log(STANDARD2, target, gm.LadderEntry(1, np.ones(2), 1.0))
        assert log_q < -800.0
        assert 0.0 < record["relative_se"] <= estimate.IS_TARGET_RELATIVE_SE
        assert abs(report.log_p_hat - log_q) <= 4.0 * record["relative_se"]


def cone_pass(model, scaled, cone):
    """``_cone_pass`` of ``scaled`` inside ``cone``, with its chord, as ``is_cones`` builds it."""
    return estimate._cone_pass(model, scaled, cone, estimate._chord(model, scaled, cone))


def cone_row(model, target, limit, entry, x_star, cap, seed):
    """``(cone, report, record)`` of one rung's cone pass alone."""
    (report,), (record,) = gm.is_cones(
        model, target, limit, x_star, [(entry, True)], cap, gm.RandomStream(seed)
    )
    return estimate._active_cone(model, target, limit, entry, x_star), report, record


def reference_cone(model, target, limit, entry, x_star):
    """``(rows, offsets)`` of a centred model's active cone, by the plain loop.

    Each candidate row, largest multiplier first, is kept while
    ``matrix_rank`` finds the kept rows independent and ``np.linalg.solve``
    gives them a positive ``mu``.
    """
    assert not model.mean.any()
    fit = _kkt_fit(target, model.covariance, entry.scale_diag, np.zeros(model.dimension), x_star)
    g, z_star, values, multipliers = fit
    offsets = g @ z_star - values
    keep = []
    for i in sorted(np.flatnonzero(multipliers > 0.0), key=lambda i: -multipliers[i]):
        rows = g[keep + [i]]
        if np.linalg.matrix_rank(rows) == len(rows):
            if (np.linalg.solve(rows @ rows.T, offsets[keep + [i]]) > 0.0).all():
                keep.append(i)
    return g[keep], offsets[keep]


def assert_same_cone(cone, reference):
    """Rows and offsets bit for bit; ``mu``, ``S^-1`` and ``log det S`` to rounding."""
    rows, offsets = reference
    np.testing.assert_array_equal(cone.rows, rows)
    np.testing.assert_array_equal(cone.offsets, offsets)
    gram = rows @ rows.T
    inv = np.linalg.inv(gram)
    np.testing.assert_allclose(cone.mu, np.linalg.solve(gram, offsets), rtol=1e-12)
    np.testing.assert_allclose(cone.gram_inv, inv, rtol=1e-12, atol=1e-12 * np.abs(inv).max())
    assert cone.log_det == pytest.approx(np.linalg.slogdet(gram)[1], rel=1e-12, abs=1e-12)


def standard_error_gap(report, log_q) -> float:
    """``(q_hat / q - 1) / relative SE``, from the logs."""
    return math.expm1(report.log_p_hat - log_q) * report.p_hat / report.std_error


class TestConeSampling:
    """verify's importance sampler: proposals from each rung's active cone."""

    def test_halfspace_is_calibrated_over_seeds(self):
        # A non-centred model under a correlated covariance and an uneven
        # limit: over 200 seeds the standardised errors of the one-row cone
        # have mean 0 (SE 0.07) and SD 1 (SE 0.05).
        target = gm.Halfspace(np.array([1.0, 0.5, -0.4]), 2.0)
        limit = gm.ScalingLimit(np.array([1.0, 0.8, 0.6]))
        x_star = gm.dominating_point(target, CORRELATED3.covariance, limit).x_star
        for entry in gm.ScalingLadder(limit, (10, 1000)).entries():
            log_q = gm.exact_single_log(CORRELATED3, target, entry)
            gaps = []
            for seed in range(200):
                cone, report, _ = cone_row(CORRELATED3, target, limit, entry, x_star, 2000, seed)
                gaps.append(standard_error_gap(report, log_q))
            assert len(cone[1]) == 1
            assert abs(np.mean(gaps)) < 0.25
            assert 0.85 < np.std(gaps) < 1.15

    def test_ellipsoid_matches_a_one_dimensional_quadrature(self):
        # k = 1: the supporting halfspace at z*.  Under diag(1, 2) the
        # scaled ellipse's probability is one integral over x_1 of the x_2
        # interval's normal mass.
        from scipy.stats import norm

        model = gm.GaussianModel(np.zeros(2), gm.build_covariance(np.diag([1.0, 2.0])))
        target = gm.Ellipsoid(np.array([2.0, 1.0]), np.diag([1.0, 0.25]), 0.8)
        limit = gm.ScalingLimit.identity(2)
        x_star = gm.dominating_point(target, model.covariance, limit).x_star
        for entry in gm.ScalingLadder(limit, (10, 1000)).entries():
            scaled = target.scale(entry.scale_diag)
            c, s, r = scaled.center, np.diag(scaled.shape), scaled.radius

            def mass(x1, c=c, s=s, r=r):
                w = math.sqrt(max(r * r - s[0] * (x1 - c[0]) ** 2, 0.0) / s[1])
                upper, lower = (c[1] + w) / math.sqrt(2.0), (c[1] - w) / math.sqrt(2.0)
                return norm.pdf(x1) * (norm.cdf(upper) - norm.cdf(lower))

            half = r / math.sqrt(s[0])
            truth = integrate.quad(mass, c[0] - half, c[0] + half, epsabs=0.0, epsrel=1e-10)[0]
            cone, report, record = cone_row(model, target, limit, entry, x_star, 200_000, 5)
            assert len(cone[1]) == 1
            assert record["target_met"] and record["samples"] < 200_000
            assert abs(standard_error_gap(report, math.log(truth))) < 4.0

    def test_non_centred_nearest_point_has_its_own_active_set(self):
        # The orthant x >= A_n 1 under mean (0, 5): at n = 100 the point
        # nearest the mean is (3.03, 5), on one face, while A_n x* is the
        # corner; at n = 1e6 the corner (5.26, 5.26) is nearest, on both.
        sd = np.array([1.0, 1.5])
        model = gm.GaussianModel(np.array([0.0, 5.0]), gm.build_covariance(np.diag(sd**2)))
        target = gm.Polyhedron(np.eye(2), np.ones(2))
        limit = gm.ScalingLimit.identity(2)
        x_star = gm.dominating_point(target, model.covariance, limit).x_star
        centred = gm.GaussianModel(np.zeros(2), model.covariance)
        for entry, rows in zip(gm.ScalingLadder(limit, (100, 10**6)).entries(), (1, 2)):
            assert len(estimate._active_cone(centred, target, limit, entry, x_star)[1]) == 2
            cone, report, _ = cone_row(model, target, limit, entry, x_star, 100_000, 5)
            assert len(cone[1]) == rows
            # The one face at n = 100 is x_1's.
            assert cone[0][0, 0] > 0.0 and cone[0][0, 1] == 0.0
            log_q = float(np.sum(estimate._log_ndtr((model.mean - entry.scale_diag) / sd)))
            assert abs(standard_error_gap(report, log_q)) < 4.0

    def test_degenerate_vertex_keeps_independent_rows(self):
        # Three rows meet at the corner (1, 1) in 2-D; the third,
        # x_1 + x_2 >= 2, is implied by the other two.
        rows = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        target = gm.Polyhedron(rows, np.array([1.0, 1.0, 2.0]))
        limit = gm.ScalingLimit.identity(2)
        x_star = gm.dominating_point(target, STANDARD2.covariance, limit).x_star
        for entry in gm.ScalingLadder(limit, (10, 1000)).entries():
            cone, report, _ = cone_row(STANDARD2, target, limit, entry, x_star, 10**5, 6)
            kept, offsets = cone.rows, cone.offsets
            assert 1 <= len(offsets) <= 2
            assert np.linalg.matrix_rank(kept) == len(offsets)
            assert (np.linalg.solve(kept @ kept.T, offsets) > 0.0).all()
            assert_same_cone(cone, reference_cone(STANDARD2, target, limit, entry, x_star))
            log_q = 2.0 * float(estimate._log_ndtr(-entry.scale_diag[0]))
            assert abs(standard_error_gap(report, log_q)) < 4.0

    def test_cones_match_the_plain_loop_on_polyhedron_is(self):
        # _cone borders the kept rows' Gram matrix in plain floats; the
        # plain loop, a matrix_rank and a solve a candidate, keeps the same rows.
        config = load_config(POLYHEDRON_IS)
        model, target, limit = config.build_model(), config.build_set(), config.build_limit()
        x_star = gm.dominating_point(target, model.covariance, limit).x_star
        for entry in config.build_ladder().entries():
            cone = estimate._active_cone(model, target, limit, entry, x_star)
            assert len(cone.offsets) == 2
            assert_same_cone(cone, reference_cone(model, target, limit, entry, x_star))

    def test_chunks_double_to_the_cap(self):
        # No row stops on fewer than IS_MIN_HITS samples, so the first chunk
        # is the smallest power of two that holds them.  Chunks double up to
        # IS_LARGEST_CHUNK and then repeat it: the checkpoints up to 15360
        # samples are the doubling ones, and past them a stop comes every
        # 8192 samples.
        assert estimate.IS_MIN_HITS <= estimate.IS_FIRST_CHUNK == 1024 < 2 * estimate.IS_MIN_HITS
        assert estimate.IS_LARGEST_CHUNK == 8192
        assert estimate._doubling_chunks(30_000, 10) == [1024, 2048, 4096, 8192, 8192, 6448]
        assert estimate._doubling_chunks(1000, 10) == [1000]
        sizes = estimate._doubling_chunks(2_000_000, 10)
        assert sum(sizes) == 2_000_000
        assert len(sizes) == 247
        assert np.cumsum(sizes[:4]).tolist() == [1024, 3072, 7168, 15360]
        assert set(sizes[3:-1]) == {8192} and sizes[-1] == 2176
        # In a dimension above CHUNK_SCALARS // 8192, chunks stop at
        # CHUNK_SCALARS // d scalars' worth.
        assert estimate._doubling_chunks(10_000, 1000) == [1024, 2048, 4000, 2928]

    def test_validation(self):
        target = gm.Halfspace(np.array([1.0, 1.0]), 1.0)
        cone = estimate._cone(np.array([[1.0, 1.0]]), np.array([1.0]))
        passes = [cone_pass(STANDARD2, target, cone)]
        with pytest.raises(ValueError):
            estimate._importance_sample(STANDARD2, passes, 0, gm.RandomStream(1))
        with pytest.raises(ValueError, match="positive mu"):
            estimate._cone_pass(STANDARD2, target, cone._replace(mu=-cone.mu), None)


class TestChordSampling:
    """A cone pass on a linear set integrates the chord of its nearest inactive face."""

    @staticmethod
    def assert_calibrated(model, target, entry, x_star, log_q, chord_row):
        # Over 200 seeds the standardised errors have mean 0 (SE 0.07) and
        # SD 1 (SE 0.05).  A cap of 2000 samples is reached before the
        # target on the vertex, so most runs are of a fixed size.
        limit = gm.ScalingLimit.identity(model.dimension)
        gaps = []
        for seed in range(200):
            cone, report, record = cone_row(model, target, limit, entry, x_star, 2000, seed)
            assert record["chord_row"] == chord_row
            assert record["hits"] == record["samples"]
            gaps.append(standard_error_gap(report, log_q))
        assert len(cone.offsets) == 1
        assert abs(np.mean(gaps)) <= 0.2
        assert 0.8 <= np.std(gaps) <= 1.2

    @pytest.mark.parametrize("n", [10, 1000])
    def test_degenerate_vertex_is_unbiased(self, n):
        # x_1 >= 1, x_2 >= 1 and the implied x_1 + x_2 >= 2: the cone keeps
        # the implied row alone, and the pass integrates along x_1 - x_2,
        # across which the two axis rows bound every sample's chord, so
        # every draw hits.  The exact value is a product of two tails.
        rows = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        target = gm.Polyhedron(rows, np.array([1.0, 1.0, 2.0]))
        limit = gm.ScalingLimit.identity(2)
        entry = gm.ScalingLadder(limit, (n,)).entries()[0]
        x_star = gm.dominating_point(target, STANDARD2.covariance, limit).x_star
        log_q = 2.0 * float(estimate._log_ndtr(-entry.scale_diag[0]))
        self.assert_calibrated(STANDARD2, target, entry, x_star, log_q, 0)

    def test_halfspace_cut_by_a_parallel_face_is_unbiased(self):
        # {x_1 >= 1} and {-x_2 >= -0.5} under diag(1, 2): the cone is x_1's
        # face, and the chord runs along x_2 up to the other face, so the
        # exact value is Phi_bar(a_1) Phi(c_2).
        sd = np.array([1.0, math.sqrt(2.0)])
        model = gm.GaussianModel(np.zeros(2), gm.build_covariance(np.diag(sd**2)))
        target = gm.Polyhedron(np.array([[1.0, 0.0], [0.0, -1.0]]), np.array([1.0, -0.5]))
        limit = gm.ScalingLimit.identity(2)
        entry = gm.ScalingLadder(limit, (100,)).entries()[0]
        x_star = gm.dominating_point(target, model.covariance, limit).x_star
        a_n = entry.scale_diag[0]
        log_q = float(estimate._log_ndtr(-a_n / sd[0]) + estimate._log_ndtr(0.5 * a_n / sd[1]))
        self.assert_calibrated(model, target, entry, x_star, log_q, 1)

    @pytest.mark.parametrize("others", [1, 2])
    def test_a_chord_pass_alone_equals_it_on_a_shared_draw(self, others):
        # The n = 1000 cone of TestSharedShifts.TARGET has one row and
        # integrates the other's chord; it shares a draw with the n = 10
        # cone, which holds both rows, and then also with the plain draw.
        target = TestSharedShifts.TARGET
        limit = gm.ScalingLimit.identity(3)
        low, high = gm.ScalingLadder(limit, (10, 1000)).entries()
        x_star = gm.dominating_point(target, CORRELATED3.covariance, limit).x_star
        passes = [
            cone_pass(CORRELATED3, target.scale(e.scale_diag), cone)
            for e, cone in [
                (high, estimate._active_cone(CORRELATED3, target, limit, high, x_star)),
                (low, estimate._active_cone(CORRELATED3, target, limit, low, x_star)),
                (low, estimate._plain_cone(3)),
            ][: 1 + others]
        ]
        stream = gm.RandomStream(52)
        shared, records = estimate._importance_sample(CORRELATED3, passes, 20_000, stream)
        assert [r["samples"] for r in records] == [1024, 20_000, 20_000][: 1 + others]
        alone = estimate._importance_sample(CORRELATED3, passes[:1], 20_000, stream)
        assert alone == (shared[:1], records[:1])


class TestImportanceSampleDriver:
    """One draw weighs every proposal; a pass reads the draw and never writes it."""

    def test_a_pass_alone_and_on_a_shared_draw_agree_across_chunk_sizes(self):
        # 10000 samples are chunks of 1024, 2048, 4096 and 2832, which
        # every pass weighs whole: the plain draw's, a cone's of two rows,
        # and a third, which never hits and so never stops and keeps a copy
        # of each chunk it is shown.
        target = TestSharedShifts.TARGET
        limit = gm.ScalingLimit.identity(3)
        entry = gm.ScalingLadder(limit, (10,)).entries()[0]
        x_star = gm.dominating_point(target, CORRELATED3.covariance, limit).x_star
        cone = estimate._active_cone(CORRELATED3, target, limit, entry, x_star)
        scaled = target.scale(entry.scale_diag)
        seen = []

        def keep(z0, exps):
            seen.append((z0.copy(), exps.copy()))
            return np.empty(0)

        passes = [
            cone_pass(CORRELATED3, scaled, estimate._plain_cone(3)),
            cone_pass(CORRELATED3, scaled, cone),
            (0, keep),
        ]
        stream = gm.RandomStream(50)
        shared, records = estimate._importance_sample(CORRELATED3, passes, 10_000, stream)
        assert [r["samples"] for r in records] == [10_000] * 3
        for pass_, report, record in zip(passes[:2], shared, records):
            alone = estimate._importance_sample(CORRELATED3, [pass_], 10_000, stream)
            assert alone == ((report,), (record,))
            assert record["hits"] > 0
        k = len(cone[1])
        assert k == 2
        assert [len(z0) for z0, _ in seen] == [1024, 2048, 4096, 2832]
        z0s = np.concatenate([z0 for z0, _ in seen])
        exps = np.concatenate([e for _, e in seen], axis=1)
        start = 0
        for i, size in enumerate([1024, 2048, 4096, 2832]):
            rng = stream.substream(i).generator()
            chunk = slice(start, start + size)
            np.testing.assert_array_equal(z0s[chunk], rng.standard_normal((size, 3)))
            np.testing.assert_array_equal(exps[:, chunk], rng.standard_exponential((k, size)))
            start += size

    def test_running_sums_equal_the_rescaled_sum_of_every_chunk(self, monkeypatch):
        # A cone pass capped at 225 chunks of 16 samples, with no precision
        # target: after every chunk, its report equals the one that rescales
        # every chunk so far by the largest maximum and sums them afresh,
        # bit for bit, while that maximum moves several times.
        monkeypatch.setattr(estimate, "IS_TARGET_RELATIVE_SE", 0.0)
        monkeypatch.setattr(estimate, "IS_FIRST_CHUNK", 16)
        monkeypatch.setattr(estimate, "IS_LARGEST_CHUNK", 16)
        seen, reduce = [], estimate._log_weight_sums
        reported, weighed = [], estimate._weighed_report

        def sums(lw):
            seen.append(reduce(lw))
            return seen[-1]

        def report(running, samples, *args):
            reported.append((samples, weighed(running, samples, *args)))
            return reported[-1][1]

        monkeypatch.setattr(estimate, "_log_weight_sums", sums)
        monkeypatch.setattr(estimate, "_weighed_report", report)
        target = gm.Halfspace(np.array([1.0, 0.5]), 3.0)
        limit = gm.ScalingLimit.identity(2)
        x_star = gm.dominating_point(target, STANDARD2.covariance, limit).x_star
        entry = gm.LadderEntry(1, np.ones(2), 1.0)
        cone = estimate._active_cone(STANDARD2, target, limit, entry, x_star)
        passes = [cone_pass(STANDARD2, target, cone)]
        (final,), (record,) = estimate._importance_sample(STANDARD2, passes, 3600, gm.RandomStream(9))
        assert len(seen) == len(reported) == 225 and not record["target_met"]
        assert reported[-1][1][0] == final
        tops = [t for t, *_ in seen]
        assert sum(t > max(tops[:i], default=-math.inf) for i, t in enumerate(tops)) >= 5
        for i, (samples, (got, relative_se, ess)) in enumerate(reported):
            chunks = seen[: i + 1]
            top = max(t for t, *_ in chunks)
            s1 = math.fsum(s * math.exp(t - top) for t, s, _, _ in chunks)
            s2 = math.fsum(sq * math.exp(2.0 * (t - top)) for t, _, sq, _ in chunks)
            log_p = top + math.log(s1 / samples)
            assert samples == 16 * (i + 1)
            assert got.log_p_hat == log_p and got.p_hat == math.exp(log_p)
            assert relative_se == math.sqrt(max(s2 * samples / (s1 * s1) - 1.0, 0.0) / samples)
            assert ess == s1 * s1 / s2

    @staticmethod
    def traced_top_rung_peak(cap: int) -> tuple[dict, int]:
        """``(record, peak)``: polyhedron-is's top-rung cone pass capped at ``cap``.

        ``peak`` is the traced memory peak of building and running the pass
        (traced from a first run of 1024 samples, which warms up what numpy
        sets up once).
        """
        config = load_config(POLYHEDRON_IS)
        model, target, limit = config.build_model(), config.build_set(), config.build_limit()
        entry = config.build_ladder().entries()[-1]
        x_star = gm.dominating_point(target, model.covariance, limit).x_star
        cone = estimate._active_cone(model, target, limit, entry, x_star)
        scaled = target.scale(entry.scale_diag)
        warm = [cone_pass(model, scaled, cone)]
        estimate._importance_sample(model, warm, 1024, gm.RandomStream(7))
        tracemalloc.start()
        try:
            pass_ = cone_pass(model, scaled, cone)
            _, (record,) = estimate._importance_sample(model, [pass_], cap, gm.RandomStream(7))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return record, peak

    def test_a_chunk_is_weighed_in_small_buffers(self):
        # polyhedron-is's top rung under a 2,000,000-sample cap: its chord
        # pass meets its target in the first chunk, of 1024 samples, so the
        # traced peak stays under 2 MB (a buffer of the whole 400,000-sample
        # chunk would take 32 MB).  The next test runs it to its cap.
        record, peak = self.traced_top_rung_peak(2_000_000)
        assert record["target_met"]
        assert peak < 2 * 2**20

    def test_a_pass_run_to_its_cap_is_weighed_in_small_chunks(self, monkeypatch):
        # The same pass with no precision target runs to its 200,000-sample
        # cap, through 27 chunks of at most IS_LARGEST_CHUNK = 8192 samples,
        # each weighed whole: the traced peak measured 3.6 MB at d = 10.  A
        # chunk twice as large would take about 7 MB, and chunks that kept
        # doubling, up to 69,952 samples here, about 30 MB.
        monkeypatch.setattr(estimate, "IS_TARGET_RELATIVE_SE", 0.0)
        record, peak = self.traced_top_rung_peak(200_000)
        assert record["samples"] == 200_000 and not record["target_met"]
        assert peak < 5 * 2**20


class TestIsCones:
    """Both commands' cone sampler: each rung from its own cone, all on one draw."""

    def test_each_rung_is_itself_weighed_alone(self):
        # Two cone rungs with a plain rung between them, on a non-centred
        # model: the n = 1000 cone has one row, the n = 10 cone two.  The
        # n = 1000 pass integrates the other row's chord, so every sample
        # hits and it stops in its first chunk, at 1024 samples; the n = 10
        # cone holds both rows and integrates none, and stops at 97280,
        # while the plain draw runs to the cap, short of its target.
        target = TestSharedShifts.TARGET
        limit = gm.ScalingLimit.identity(3)
        low, high = gm.ScalingLadder(limit, (10, 1000)).entries()
        x_star = gm.dominating_point(target, CORRELATED3.covariance, limit).x_star
        rungs = [(high, True), (low, False), (low, True)]
        stream = gm.RandomStream(51)
        reports, records = gm.is_cones(CORRELATED3, target, limit, x_star, rungs, 100_000, stream)
        for rung, report, record in zip(rungs, reports, records):
            alone = gm.is_cones(CORRELATED3, target, limit, x_star, [rung], 100_000, stream)
            assert alone == ([report], [record])
            assert report.scaling_norm_sq == rung[0].speed
            assert record["hits"] > 0
        assert [r["active_rows"] for r in records] == [1, 0, 2]
        assert [r["chord_row"] for r in records] == [1, None, None]
        assert [r["target_met"] for r in records] == [True, False, True]
        assert [r["samples"] for r in records] == [1024, 100_000, 97280]

    def test_each_rung_computes_its_chord_once(self, monkeypatch):
        # polyhedron-is's three rungs each integrate a chord: is_cones
        # computes it once a rung, for the pass and its record alike.
        calls, chord = [], estimate._chord

        def counted(*args):
            calls.append(args)
            return chord(*args)

        monkeypatch.setattr(estimate, "_chord", counted)
        config = load_config(POLYHEDRON_IS)
        model, target, limit = config.build_model(), config.build_set(), config.build_limit()
        x_star = gm.dominating_point(target, model.covariance, limit).x_star
        rungs = [(e, True) for e in config.build_ladder().entries()]
        _, records = gm.is_cones(model, target, limit, x_star, rungs, 1024, gm.RandomStream(7))
        assert all(r["chord_row"] is not None for r in records)
        assert len(calls) == len(rungs) == 3

    @pytest.mark.parametrize("active", [True, False])
    def test_a_mixture_raises_type_error(self, monkeypatch, active):
        # Raised before any cone is built, on an active rung and a plain one;
        # without rungs (verify on a mixture) there is nothing to sample.
        built = []
        monkeypatch.setattr(estimate, "_cone", lambda *args: built.append(args))
        mixture = gm.GaussianMixture(np.array([1.0]), (STANDARD2,))
        target = gm.Halfspace(np.array([1.0, 1.0]), 2.0)
        limit = gm.ScalingLimit.identity(2)
        rung = (gm.LadderEntry(1, np.ones(2), 1.0), active)
        with pytest.raises(TypeError, match="single Gaussian model"):
            gm.is_cones(mixture, target, limit, np.ones(2), [rung], 100, gm.RandomStream(1))
        assert built == []
        nothing = gm.is_cones(mixture, target, limit, np.ones(2), [], 100, gm.RandomStream(1))
        assert nothing == ([], [])


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

    def test_equal_values_fit_exactly(self):
        # Three crude rows with the same hit count: polyfit alone gives a
        # slope of -7.2e-18 on these points.
        log_p = math.log(43 / 400)
        speeds = [2.0 * math.log(n) for n in (10, 100, 1000)]
        fit = gm.slope_fit([(s, log_p) for s in speeds], predicted_rate=-0.5)
        assert fit.slope == 0.0
        assert fit.intercept == log_p
        assert fit.r_squared == 1.0
        assert fit.relative_gap == 1.0

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
