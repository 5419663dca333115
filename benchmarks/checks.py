"""Correctness checks on the artifacts a benchmark run wrote.

The references are computed here, independently of gaussmax: the exact
block rows from ``scipy.special.log_ndtr``, polyhedron dominating points
as a least-distance program solved by ``scipy.optimize.nnls`` (Lawson and
Hanson, ch. 23), and ellipsoid dominating points from the root of the
secular equation found by ``scipy.optimize.brentq``.  Only the sampled
first-order certificate, ``verify_optimality``, comes from the package:
what is checked there is that the package's own certificate passes.

Each check returns a list of ``(name, ok, detail)`` tuples.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np
import yaml
from scipy.optimize import brentq, nnls
from scipy.special import log_ndtr

EXACT_RTOL = 1e-12
QUAD_RTOL = 1e-6
# Projections stop at a residual of 1e-8, so x* may sit that far outside.
FEASIBILITY_TOL = 1e-7


def read_rows(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


def load_spec(path: Path) -> dict:
    spec = yaml.safe_load(Path(path).read_text(encoding="utf-8"))
    limit = spec["limit"]["diagonal"] if isinstance(spec["limit"], dict) else spec["limit"]
    limit = np.asarray(limit, dtype=float)
    spec["limit"] = limit / limit.max()
    return spec


def _log_union(log_q: float, n: int) -> float:
    """log(1 - (1 - q)^n) for q = exp(log_q)."""
    return math.log(-math.expm1(n * math.log1p(-math.exp(log_q))))


def exact_block_rows(spec: dict, rows: list[dict]) -> list[tuple]:
    """Exact block rows against log_ndtr of the scaled corner, per rung."""
    sd = np.sqrt(np.diag(np.asarray(spec["model"]["sigma"], dtype=float)))
    corner = np.asarray(spec["set"]["corner"], dtype=float)
    out = []
    for n in spec["ladder"]:
        log_q = log_ndtr(-math.sqrt(2.0 * math.log(n)) * spec["limit"] * corner / sd)
        expected = {
            "exact_block_diagonal": sum(_log_union(float(v), n) for v in log_q),
            "union_combined": _log_union(float(log_q.sum()), n),
        }
        for method, want in expected.items():
            got = [float(r["log_p_hat"]) for r in rows if int(r["n"]) == n and r["method"] == method]
            ok = len(got) == 1 and abs(got[0] - want) <= EXACT_RTOL * abs(want)
            out.append((f"exact.{method}.n{n}", ok, f"got {got}, want {want!r}"))
    return out


def answered_rows(spec: dict, rows: list[dict], methods) -> list[tuple]:
    """Each rung has one row of each method, and its log_p_hat is finite."""
    out = []
    for n in spec["ladder"]:
        for method in methods:
            got = [float(r["log_p_hat"]) for r in rows if int(r["n"]) == n and r["method"] == method]
            ok = len(got) == 1 and math.isfinite(got[0])
            out.append((f"answered.{method}.n{n}", ok, f"got {got}"))
    return out


def _weight(sigma, limit) -> np.ndarray:
    w = limit[:, None] * np.linalg.inv(np.asarray(sigma, dtype=float)) * limit[None, :]
    return 0.5 * (w + w.T)


def polyhedron_quad(weight, rows, offsets) -> float:
    """min x'Wx subject to rows @ x >= offsets, as a least-distance program.

    With W = R'R and y = R x the problem is min |y|^2 subject to G y >= h,
    G = rows R^-1.  NNLS on E = [G'; h'] against e_{d+1} gives the residual
    r, and the minimizer is y = -r[:d] / r[d].
    """
    r_upper = np.linalg.cholesky(weight).T
    g = np.linalg.solve(r_upper.T, np.asarray(rows, dtype=float).T).T
    h = np.asarray(offsets, dtype=float)
    d = g.shape[1]
    e = np.vstack([g.T, h[None, :]])
    f = np.zeros(d + 1)
    f[-1] = 1.0
    u, _ = nnls(e, f, maxiter=50 * e.shape[1])
    resid = e @ u - f
    y = -resid[:d] / resid[d]
    return float(y @ y)


def ellipsoid_quad(weight, mean, center, shape, radius) -> float:
    """min (x-m)'W(x-m) subject to (x-c)'S(x-c) <= r^2, with m outside.

    The constraint is active, x(lam) = (W + lam S)^-1 (W m + lam S c), and
    g(lam) = (x(lam)-c)'S(x(lam)-c) - r^2 falls strictly from g(0) > 0.
    """
    m = np.asarray(mean, dtype=float)
    c = np.asarray(center, dtype=float)
    s = np.asarray(shape, dtype=float)

    def point(lam):
        return np.linalg.solve(weight + lam * s, weight @ m + lam * (s @ c))

    def g(lam):
        diff = point(lam) - c
        return float(diff @ s @ diff) - radius**2

    hi = 1.0
    while g(hi) > 0.0:
        hi *= 2.0
    lam = brentq(g, 0.0, hi, xtol=1e-300, rtol=4 * np.finfo(float).eps, maxiter=500)
    diff = point(lam) - m
    return float(diff @ weight @ diff)


def _close(got: float, want: float) -> bool:
    return abs(got - want) <= QUAD_RTOL * abs(want)


def dominating_points(spec: dict, dominate_json: Path) -> list[tuple]:
    """x* feasible, verify_optimality passes, Q_A(x*) equals the reference."""
    import gaussmax as gm

    payload = json.loads(Path(dominate_json).read_text(encoding="utf-8"))
    limit = spec["limit"]
    gm_limit = gm.ScalingLimit(limit)
    s = spec["set"]
    out = []
    if spec["model"]["kind"] == "gaussian":
        sigma = spec["model"]["sigma"]
        x = np.asarray(payload["x_star"], dtype=float)
        rows = np.asarray(s["constraints"], dtype=float)
        offsets = np.asarray(s["offsets"], dtype=float)
        slack = float((rows @ x - offsets).min())
        out.append(("dominate.feasible", slack >= -FEASIBILITY_TOL, f"min slack {slack!r}"))
        target = gm.Polyhedron(rows, offsets)
        ok = gm.verify_optimality(x, target, gm.build_covariance(sigma), gm_limit)
        out.append(("dominate.verify_optimality", bool(ok), ""))
        want = polyhedron_quad(_weight(sigma, limit), rows, offsets)
        got = payload["quad_value"]
        out.append(("dominate.quad_value", _close(got, want), f"got {got!r}, want {want!r}"))
        return out
    center = np.asarray(s["center"], dtype=float)
    shape = np.asarray(s["shape"], dtype=float)
    radius = float(s["radius"])
    for comp, solved in zip(spec["model"]["components"], payload["per_component"]):
        tag = f"dominate.component{solved['component']}"
        mean = np.asarray(comp["mean"], dtype=float)
        x = np.asarray(solved["x_star"], dtype=float)
        quad = float((x - center) @ shape @ (x - center))
        feasible = quad <= radius**2 * (1.0 + FEASIBILITY_TOL)
        out.append((f"{tag}.feasible", feasible, f"quad {quad!r}, radius^2 {radius**2!r}"))
        # The recentered problem is the plain one for the set shifted by -mean.
        shifted = gm.Ellipsoid(center - mean, shape, radius)
        ok = gm.verify_optimality(x - mean, shifted, gm.build_covariance(comp["sigma"]), gm_limit)
        out.append((f"{tag}.verify_optimality", bool(ok), ""))
        want = ellipsoid_quad(_weight(comp["sigma"], limit), mean, center, shape, radius)
        got = solved["quad_value"]
        out.append((f"{tag}.quad_value", _close(got, want), f"got {got!r}, want {want!r}"))
    return out


def _without_workers(text: str) -> list[str]:
    return [line for line in text.splitlines() if not line.strip().startswith('"workers":')]


def same_outputs(dir_a: Path, dir_b: Path, label: str, workers=None) -> list[tuple]:
    """verify_ladder.csv byte-identical, verify_summary.json too.

    The summary records the worker count on purpose, so when ``workers``
    gives the two counts that one line is compared by value and the rest
    byte for byte.
    """
    csv_same = (dir_a / "verify_ladder.csv").read_bytes() == (dir_b / "verify_ladder.csv").read_bytes()
    text_a = (dir_a / "verify_summary.json").read_text(encoding="utf-8")
    text_b = (dir_b / "verify_summary.json").read_text(encoding="utf-8")
    if workers is None:
        summary_same = text_a == text_b
    else:
        counts = (json.loads(text_a)["workers"], json.loads(text_b)["workers"])
        summary_same = counts == tuple(workers) and _without_workers(text_a) == _without_workers(text_b)
    return [(f"{label}.verify_ladder.csv", csv_same, ""), (f"{label}.verify_summary.json", summary_same, "")]


def resolved_rows(verify_dir: Path) -> int:
    """Rows of verify's output that carry an answer.

    A ladder row counts when its log_p_hat is finite; the summary's
    predicted-rate row counts when margin_alpha > 1, the condition under
    which the rate is an answer and not a warning.
    """
    rows = read_rows(verify_dir / "verify_ladder.csv")
    summary = json.loads((verify_dir / "verify_summary.json").read_text(encoding="utf-8"))
    finite = sum(1 for r in rows if math.isfinite(float(r["log_p_hat"])))
    return finite + int(summary["margin_alpha"] > 1.0)
