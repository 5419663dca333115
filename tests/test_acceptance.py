"""End-to-end acceptance battery.

Each test evaluates one acceptance criterion at its stated tolerance and
prints a single verdict line of the form

    [acceptance] C3: PASS (slope -1.0247, gap 2.5%, 1.8s)

directly to the terminal (bypassing capture) before asserting, so any
test log shows a per-criterion outcome even on failure.
"""

import json
import math
import time

import numpy as np
import pytest
from mpmath import mp, mpf
from scipy.optimize import brentq
from scipy.special import ndtri

import gaussmax as gm
from gaussmax import cli
from helpers import exact_block_pair, random_spd


def _verdict(capsys, number: int, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"[acceptance] C{number}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"C{number} failed: {detail}"


def _refined_lattice_minimum(target, weight, center, width, stages=3, points=400):
    """Solver-independent quadratic minimum over the set.

    Each stage lays a points x points lattice over the current window,
    keeps the best feasible node, and shrinks the window around it.  Only
    membership tests and quadratic evaluations are used, so the value is
    an upper bound on the true minimum that tightens geometrically.
    """
    weight = np.asarray(weight, dtype=float)
    center = np.asarray(center, dtype=float)
    best_val = math.inf
    best_pt = None
    for _ in range(stages):
        xs = np.linspace(center[0] - width / 2, center[0] + width / 2, points)
        ys = np.linspace(center[1] - width / 2, center[1] + width / 2, points)
        xx, yy = np.meshgrid(xs, ys)
        pts = np.column_stack([xx.ravel(), yy.ravel()])
        mask = target.contains_many(pts)
        if not mask.any():
            width *= 0.5
            continue
        feas = pts[mask]
        vals = np.einsum("ij,jk,ik->i", feas, weight, feas)
        k = int(np.argmin(vals))
        if vals[k] < best_val:
            best_val = float(vals[k])
            best_pt = feas[k]
        center = best_pt
        width *= 20.0 / points
    return best_val


C1_SETS = (
    gm.Block((2.0, 1.5)),
    gm.Halfspace((2.0, 1.0), 3.0),
    gm.Polyhedron([[2.0, 1.0], [1.0, 1.0], [1.0, 2.0]], (4.0, 3.0, 4.0)),
    gm.Ellipsoid((3.0, 2.5), [[1.0, 0.2], [0.2, 1.5]], 1.0),
)
C1_SIGMAS = (
    np.eye(2),
    np.array([[1.0, 0.5], [0.5, 1.0]]),
    np.array([[2.0, -0.6], [-0.6, 1.0]]),
)


def test_c01_dominating_point_matches_grid_oracle(capsys):
    limit = gm.ScalingLimit.identity(2)
    start = time.perf_counter()
    worst_rel = 0.0
    certificates = []
    for target in C1_SETS:
        for sigma in C1_SIGMAS:
            cov = gm.build_covariance(sigma)
            point = gm.dominating_point(target, cov, limit)
            grid = _refined_lattice_minimum(target, cov.sigma_inv, (2.0, 2.0), 6.0)
            # The lattice minimum can only sit above the true one.
            assert point.quad_value <= grid + 1e-9
            worst_rel = max(worst_rel, abs(point.quad_value - grid) / abs(grid))
            certificates.append(
                gm.verify_optimality(point, target, cov, limit)
            )
    elapsed = time.perf_counter() - start
    ok = worst_rel <= 1e-3 and all(certificates) and elapsed < 10.0
    _verdict(
        capsys, 1,
        ok,
        f"12 configs, worst grid gap {worst_rel:.2e}, "
        f"certificates {sum(certificates)}/12, {elapsed:.1f}s",
    )


def test_c02_closed_forms_match_general_solver(capsys):
    stream = gm.RandomStream(20260823)
    rng = stream.generator()
    worst_half = 0.0
    for _ in range(50):
        d = int(rng.integers(2, 5))
        sigma = random_spd(rng, d)
        b = rng.normal(size=d)
        b /= np.linalg.norm(b)
        c = float(rng.uniform(0.5, 3.0))
        closed = c * sigma @ b / float(b @ sigma @ b)
        point = gm.dominating_point(
            gm.Halfspace(b, c), gm.build_covariance(sigma), gm.ScalingLimit.identity(d)
        )
        worst_half = max(worst_half, float(np.abs(point.x_star - closed).max()))
    _verdict(capsys, 2, worst_half <= 1e-6, f"halfspace max gap {worst_half:.1e} over 50 instances")


def test_c03_importance_sampling_slope_single_vector(capsys):
    model = gm.GaussianModel(mean=np.zeros(2), covariance=gm.build_covariance(np.eye(2)))
    stream = gm.RandomStream(3001)
    start = time.perf_counter()
    points = []
    for k, a in enumerate((3.0, 4.0, 5.0, 6.0)):
        scaled = gm.Halfspace((1.0, 1.0), 2.0 * a)
        report = gm.is_single(
            model, scaled, (a, a), 100_000, stream.substream(k),
            n=1, scaling_norm_sq=a * a,
        )
        assert not report.degenerate_weights
        points.append((a * a, report.log_p_hat))
    fit = gm.slope_fit(points, predicted_rate=-1.0)
    elapsed = time.perf_counter() - start
    ok = fit.relative_gap <= 0.1 and elapsed < 30.0
    _verdict(
        capsys, 3,
        ok,
        f"slope {fit.slope:.4f} vs -1, gap {100 * fit.relative_gap:.1f}%, "
        f"r2 {fit.r_squared:.4f}, {elapsed:.1f}s",
    )


def test_c04_exact_ladder_slope_at_least_one(capsys):
    start = time.perf_counter()
    points = []
    for n in (10**6, 10**8, 10**10, 10**12):
        speed = 2.0 * math.log(n)
        _, log_alo = gm.exact_block_diagonal_log(
            [1.0, 1.0], (1.2, 1.2), math.sqrt(speed), n
        )
        points.append((speed, log_alo))
    fit = gm.slope_fit(points, predicted_rate=-0.94)
    elapsed = time.perf_counter() - start
    ok = fit.relative_gap <= 0.1 and elapsed < 1.0
    _verdict(
        capsys, 4,
        ok,
        f"slope {fit.slope:.4f} vs -0.94, gap {100 * fit.relative_gap:.1f}%, {elapsed:.2f}s",
    )


def test_c05_monte_carlo_within_four_standard_errors(capsys):
    trials = 100_000
    stream = gm.RandomStream(7012)
    start = time.perf_counter()
    cw_hits = 0
    alo_hits = 0
    for i in range(20):
        sub = stream.substream(i)
        rng = sub.generator()
        d = 2 if i % 2 == 0 else 3
        n = int(rng.integers(5, 31)) if d == 2 else int(rng.integers(2, 7))
        a_n = math.sqrt(2.0 * math.log(n))
        sigma_diag = rng.uniform(0.5, 2.0, size=d)
        base = rng.uniform(0.8, 1.2, size=d)
        target_cw = float(10.0 ** rng.uniform(-1.3, -1.0))
        scale = brentq(
            lambda s: exact_block_pair(sigma_diag, s * base, a_n, n)[0] - target_cw,
            1e-3, 5.0, xtol=1e-12,
        )
        corner = scale * base
        p_cw, p_alo = exact_block_pair(sigma_diag, corner, a_n, n)
        assert 1e-3 <= p_alo <= p_cw <= 1e-1
        model = gm.GaussianModel(
            mean=np.zeros(d), covariance=gm.build_covariance(np.diag(sigma_diag))
        )
        target = gm.Block(corner)
        entry = gm.LadderEntry(n, a_n * np.ones(d), a_n * a_n)
        cw = gm.mc_crude(model, target, entry, trials, sub.substream(1))[0]
        alo = gm.mc_crude(model, target, entry, trials, sub.substream(2))[1]
        se_cw = math.sqrt(p_cw * (1.0 - p_cw) / trials)
        se_alo = math.sqrt(p_alo * (1.0 - p_alo) / trials)
        cw_hits += abs(cw.p_hat - p_cw) <= 4.0 * se_cw
        alo_hits += abs(alo.p_hat - p_alo) <= 4.0 * se_alo
    elapsed = time.perf_counter() - start
    ok = cw_hits >= 19 and alo_hits >= 19 and elapsed < 120.0
    _verdict(
        capsys, 5,
        ok,
        f"componentwise {cw_hits}/20, at-least-one {alo_hits}/20 within 4 SE "
        f"of exact, {elapsed:.0f}s",
    )


C6_YAML = """\
model:
  kind: gaussian
  mean: [0.0, 0.0]
  sigma: [[1.0, 0.0], [0.0, 1.0]]
set:
  kind: block
  corner: [1.2, 1.2]
limit: [1.0, 1.0]
ladder: [1000000, 1000000000, 1000000000000]
trials: 200
is_samples: 100
seed: 606
"""


def test_c06_componentwise_union_gap_on_log_scale(capsys, tmp_path):
    start = time.perf_counter()
    ratios = []
    for n in (10**6, 10**9, 10**12):
        log_cw, log_alo = gm.exact_block_diagonal_log(
            [1.0, 1.0], (1.2, 1.2), math.sqrt(2.0 * math.log(n)), n
        )
        ratios.append((log_cw - log_alo) / math.log(n))
    cfg = tmp_path / "config.yaml"
    cfg.write_text(C6_YAML, encoding="utf-8")
    out = tmp_path / "artifacts"
    assert cli.main(["verify", "--config", str(cfg), "--out", str(out)]) == 0
    summary = json.loads((out / "verify_summary.json").read_text())
    gap = summary["equivalence_gap"]
    flagged = gap["gap_detected"] and any(
        "differ on the log n scale" in w for w in summary["warnings"]
    )
    elapsed = time.perf_counter() - start
    ok = all(abs(r - 1.0) <= 0.1 for r in ratios) and flagged and elapsed < 1.0
    _verdict(
        capsys, 6,
        ok,
        f"log-ratio/log n in [{min(ratios):.4f}, {max(ratios):.4f}] vs 1, "
        f"verify flags gap, {elapsed:.2f}s",
    )


def test_c07_mixture_rate_largest_term(capsys):
    eye = [[1.0, 0.0], [0.0, 1.0]]
    mixture = gm.GaussianMixture(
        weights=np.array([0.5, 0.5]),
        components=(
            gm.GaussianModel(mean=np.zeros(2), covariance=gm.build_covariance(np.array(eye))),
            gm.GaussianModel(mean=np.ones(2), covariance=gm.build_covariance(np.array(eye))),
        ),
    )
    target = gm.Block((3.0, 3.0))
    mix = gm.rate_mixture(target, mixture, gm.ScalingLimit.identity(2))
    worst_rel = 0.0
    for comp, model in zip(mix.per_component, mixture.components):
        grid = _refined_lattice_minimum(
            gm.Block((3.0, 3.0) - model.mean), np.eye(2), (3.5, 3.5), 6.0
        )
        worst_rel = max(worst_rel, abs(comp.quad_value - grid) / abs(grid))
    brute = 0.5 - 0.5 * min(c.quad_value for c in mix.per_component)
    ok = (
        mix.rate_componentwise == pytest.approx(-3.5, abs=1e-8)
        and mix.argmin_component == 2
        and worst_rel <= 1e-3
        and mix.rate_componentwise == brute
    )
    _verdict(
        capsys, 7,
        ok,
        f"rate {mix.rate_componentwise:.6f} vs -3.5, argmin component {mix.argmin_component}, "
        f"worst per-component grid gap {worst_rel:.2e}, largest-term min exact",
    )


def test_c08_importance_sampling_variance_reduction(capsys):
    a = 5.0
    samples = 100_000
    model = gm.GaussianModel(mean=np.zeros(2), covariance=gm.build_covariance(np.eye(2)))
    scaled = gm.Halfspace((1.0, 1.0), 2.0 * a)
    stream = gm.RandomStream(8061)
    crude = gm.is_single(model, scaled, np.zeros(2), samples, stream.substream(0))
    shifted = gm.is_single(model, scaled, (a, a), samples, stream.substream(1))
    rel_se = shifted.std_error / shifted.p_hat
    if crude.p_hat == 0.0:
        ok = rel_se <= 0.05
        detail = (
            f"crude resolved nothing at p ~ {shifted.p_hat:.2e}; "
            f"importance sampling relative SE {100 * rel_se:.2f}%"
        )
    else:
        ratio = (crude.std_error / shifted.std_error) ** 2
        ok = ratio >= 10.0
        detail = f"variance ratio {ratio:.1f}x, relative SE {100 * rel_se:.2f}%"
    _verdict(capsys, 8, ok, detail)


def test_c09_tail_combination_extended_precision(capsys):
    n = 1000
    t_fixed = float(-ndtri(1e-3))
    worst = 0.0
    for q in (1e-3, 1e-15, 1e-100, 1e-300):
        t = float(-ndtri(q))
        ours_union = gm.union_combine(q, n)
        p_cw, p_alo = exact_block_pair([1.0, 1.0], (t, t_fixed), 1.0, n)
        with mp.workdps(400):
            ref_union = 1 - (1 - mpf(q)) ** n
            q1 = mp.ncdf(-mpf(t))
            q2 = mp.ncdf(-mpf(t_fixed))
            ref_cw = (1 - (1 - q1) ** n) * (1 - (1 - q2) ** n)
            ref_alo = 1 - (1 - q1 * q2) ** n
            worst = max(
                worst,
                float(abs(ours_union - ref_union) / ref_union),
                float(abs(p_cw - ref_cw) / ref_cw),
                float(abs(p_alo - ref_alo) / ref_alo),
            )
    ok = worst <= 1e-10
    _verdict(
        capsys, 9,
        ok,
        f"worst relative error {worst:.2e} vs 400-digit reference, "
        "q from 1e-3 down to 1e-300",
    )


C10_YAML = """\
model:
  kind: gaussian
  mean: [0.0, 0.0]
  sigma: [[1.0, 0.0], [0.0, 1.0]]
set:
  kind: halfspace
  normal: [1.0, 1.0]
  offset: 2.4
limit: [1.0, 1.0]
ladder: [100, 1000, 10000]
trials: 2000
is_samples: 5000
seed: 910
"""


def test_c10_verify_byte_identical_determinism(capsys, tmp_path):
    cfg = tmp_path / "config.yaml"
    cfg.write_text(C10_YAML, encoding="utf-8")
    outs = {}
    for name, args in {
        "first": [],
        "second": [],
        "workers3": ["--workers", "3"],
    }.items():
        out = tmp_path / name
        assert cli.main(["verify", "--config", str(cfg), "--out", str(out)] + args) == 0
        outs[name] = out
    csv_first = (outs["first"] / "verify_ladder.csv").read_bytes()
    rerun_same = csv_first == (outs["second"] / "verify_ladder.csv").read_bytes()
    summary_same = (outs["first"] / "verify_summary.json").read_bytes() == (
        outs["second"] / "verify_summary.json"
    ).read_bytes()
    workers_same = csv_first == (outs["workers3"] / "verify_ladder.csv").read_bytes()
    sum_a = json.loads((outs["first"] / "verify_summary.json").read_text())
    sum_b = json.loads((outs["workers3"] / "verify_summary.json").read_text())
    assert sum_a.pop("workers") == 1 and sum_b.pop("workers") == 3
    ok = rerun_same and summary_same and workers_same and sum_a == sum_b
    _verdict(
        capsys, 10,
        ok,
        "rerun CSV and summary byte-identical; 3-worker run matches "
        "single-worker output",
    )
