"""Shared test utilities: independent oracles and random problem factories."""

from __future__ import annotations

import math

import numpy as np

import gaussmax as gm


def random_spd(rng: np.random.Generator, d: int, low: float = 0.3, high: float = 2.5) -> np.ndarray:
    """Random symmetric positive definite matrix with eigenvalues in [low, high]."""
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    evals = rng.uniform(low, high, size=d)
    return (q * evals) @ q.T


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
    log_cw, log_alo = gm.exact_block_diagonal_log(sigma_diag, a_n * np.asarray(corner), n)
    return math.exp(log_cw), math.exp(log_alo)


def draw_gaussian(model: gm.GaussianModel, count: int, stream: gm.RandomStream) -> np.ndarray:
    """``gm.sample_gaussian`` of ``count`` rows into freshly allocated buffers."""
    out = np.empty((count, model.dimension))
    return gm.sample_gaussian(model, stream, out, np.empty_like(out))


def draw_mixture(mixture: gm.GaussianMixture, count: int, stream: gm.RandomStream) -> np.ndarray:
    """``gm.sample_mixture`` of ``count`` rows into freshly allocated buffers."""
    out = np.empty((count, mixture.dimension))
    masks = np.empty((len(mixture.components) - 1, count, mixture.dimension), dtype=bool)
    return gm.sample_mixture(mixture, stream, out, np.empty_like(out), np.empty_like(out), masks)


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
