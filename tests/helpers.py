"""Shared test utilities: independent oracles and random problem factories.

Feasible-point generators here are deliberately shape-specific
constructions (rejection or direct parameterization), so they do not
reuse the projection code they help to test.
"""

from __future__ import annotations

import math

import numpy as np

import gaussmax as gm


def random_spd(rng: np.random.Generator, d: int, low: float = 0.3, high: float = 2.5) -> np.ndarray:
    """Random symmetric positive definite matrix with eigenvalues in [low, high]."""
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    evals = rng.uniform(low, high, size=d)
    return (q * evals) @ q.T


def feasible_samples(target: gm.ConvexSet, count: int, rng: np.random.Generator) -> np.ndarray:
    """In-set points built without the package projection routines."""
    d = target.dimension
    if isinstance(target, gm.Block):
        return target.corner + np.abs(rng.standard_normal((count, d))) * rng.uniform(
            0.0, 3.0, size=(count, 1)
        )
    if isinstance(target, gm.Halfspace):
        b = target.normal
        nrm2 = float(b @ b)
        base = (target.offset / nrm2) * b
        tangential = rng.standard_normal((count, d))
        tangential -= np.outer(tangential @ b / nrm2, b)
        along = np.abs(rng.standard_normal(count)) * rng.uniform(0.0, 3.0, size=count)
        return base + tangential + along[:, None] * (b / np.sqrt(nrm2))
    if isinstance(target, gm.Ellipsoid):
        evals, evecs = np.linalg.eigh(np.asarray(target.shape))
        half_inv = evecs @ np.diag(1.0 / np.sqrt(evals)) @ evecs.T
        w = rng.standard_normal((count, d))
        w /= np.linalg.norm(w, axis=1, keepdims=True)
        radii = target.radius * rng.uniform(0.0, 1.0, size=count) ** (1.0 / d)
        return target.center + (radii[:, None] * w) @ half_inv.T
    if isinstance(target, gm.Polyhedron):
        # Rejection from a generous box; membership is a direct linear test.
        anchor = target.interior_point()
        width = 6.0 * (1.0 + np.abs(anchor).max())
        out = []
        attempts = 0
        while sum(len(o) for o in out) < count and attempts < 2000:
            batch = anchor + rng.uniform(-width, width, size=(4 * count, d))
            keep = batch[target.contains_many(batch)]
            if len(keep):
                out.append(keep)
            attempts += 1
        pts = np.concatenate(out)[:count]
        if len(pts) < count:
            raise RuntimeError("rejection sampling failed to fill the quota")
        return pts
    raise TypeError(f"unsupported set type {type(target)!r}")


def grid_quadratic_minimum(
    target: gm.ConvexSet,
    weight: np.ndarray,
    low: np.ndarray,
    high: np.ndarray,
    points: int = 400,
    center: np.ndarray | None = None,
) -> float:
    """Minimum of ``(x - center)^T weight (x - center)`` over feasible lattice points."""
    d = target.dimension
    if center is None:
        center = np.zeros(d)
    axes = [np.linspace(low[j], high[j], points) for j in range(d)]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=1)
    keep = target.contains_many(pts)
    if not np.any(keep):
        raise RuntimeError("grid does not intersect the target set")
    diff = pts[keep] - center
    vals = np.einsum("ij,jk,ik->i", diff, weight, diff)
    return float(vals.min())


def least_distance_argmin(weight, rows, offsets, center) -> np.ndarray:
    """Minimizer of ``(x - center)^T weight (x - center)`` over ``rows @ x >= offsets``.

    With ``weight = R^T R`` and ``y = R (x - center)`` the problem is the
    least-distance program ``min |y|^2 s.t. G y >= h``, solved by
    ``scipy.optimize.nnls`` on ``[G^T; h^T]`` against ``e_{d+1}``
    (Lawson and Hanson, ch. 23): ``y = -r[:d] / r[d]`` for the residual r.
    """
    from scipy.optimize import nnls

    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    r_upper = np.linalg.cholesky(weight).T
    g = np.linalg.solve(r_upper.T, rows.T).T
    h = np.atleast_1d(np.asarray(offsets, dtype=float)) - rows @ center
    d = g.shape[1]
    e = np.vstack([g.T, h[None, :]])
    f = np.zeros(d + 1)
    f[-1] = 1.0
    u, _ = nnls(e, f, maxiter=50 * e.shape[1])
    resid = e @ u - f
    return center + np.linalg.solve(r_upper, -resid[:d] / resid[d])


def secular_argmin(weight, center, ellipsoid: gm.Ellipsoid) -> np.ndarray:
    """Minimizer of ``(x - center)^T weight (x - center)`` over an ellipsoid, center outside.

    The constraint is active: ``x(lam) = (W + lam S)^-1 (W m + lam S c)``
    and ``(x(lam) - c)^T S (x(lam) - c) - r^2`` falls strictly from a
    positive value at 0; ``scipy.optimize.brentq`` finds its root.
    """
    from scipy.optimize import brentq

    s = np.asarray(ellipsoid.shape, dtype=float)
    c = ellipsoid.center

    def point(lam):
        return np.linalg.solve(weight + lam * s, weight @ center + lam * (s @ c))

    def excess(lam):
        diff = point(lam) - c
        return float(diff @ s @ diff) - ellipsoid.radius**2

    hi = 1.0
    while excess(hi) > 0.0:
        hi *= 2.0
    return point(brentq(excess, 0.0, hi, xtol=1e-300, rtol=4 * np.finfo(float).eps, maxiter=500))


def exact_block_pair(sigma_diag, corner, a_n: float, n: int) -> tuple[float, float]:
    """Exact ``(p_componentwise, p_at_least_one)`` for a diagonal block, in linear space."""
    log_cw, log_alo = gm.exact_block_diagonal_log(sigma_diag, corner, a_n, n)
    return math.exp(log_cw), math.exp(log_alo)


def fresh_gaussian(model: gm.GaussianModel, count: int, stream: gm.RandomStream) -> np.ndarray:
    """``mean + z @ C.T`` with ``z`` freshly allocated from ``stream``'s generator."""
    z = stream.generator().standard_normal((count, model.dimension))
    return model.mean + z @ model.covariance.chol_lower.T


def fancy_index_mixture(
    mixture: gm.GaussianMixture, count: int, stream: gm.RandomStream
) -> tuple[np.ndarray, np.ndarray]:
    """Mixture draws by inverse-CDF picks and fancy-indexed transforms; returns ``(draws, picks)``.

    The uniforms from ``stream.substream(0)`` pick components with
    ``searchsorted``; the normals from ``stream.substream(1)`` of the picked
    rows are transformed per component and scattered back.
    """
    u = stream.substream(0).generator().random(count)
    edges = np.cumsum(mixture.weights)
    edges[-1] = 1.0
    picks = np.minimum(np.searchsorted(edges, u, side="right"), len(mixture.components) - 1)
    z = stream.substream(1).generator().standard_normal((count, mixture.dimension))
    out = np.empty_like(z)
    for j, comp in enumerate(mixture.components):
        mask = picks == j
        if np.any(mask):
            out[mask] = comp.mean + z[mask] @ comp.covariance.chol_lower.T
    return out, picks
