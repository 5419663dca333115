"""Dominating points and the decay rates they determine.

The central object is the minimizer of the scaled quadratic
``Q_A(x) = <A x, sigma_inv A x>`` over a closed convex target set, with
``A`` the positive diagonal limit of the per-coordinate scaling.  From
the minimizer everything else follows, and ``DominatingPoint`` carries
it as fields: the single-vector decay rate ``rate_single = -Q_I(x*) / 2``,
the margin ``margin_alpha = Q_A(x*) / 2`` that must exceed 1 for the
maximum statistic to concentrate, and the componentwise-maximum rate
``rate_componentwise = 1/2 - alpha``.

The minimizer is computed exactly, one method per shape:

* linear sets (blocks, halfspaces, polyhedra) ``B x >= c`` become a
  least-distance program ``min |y|^2 s.t. G y >= h`` under ``y = R x``
  with ``R^T R`` the quadratic's weight, solved exactly by
  ``sets.least_distance`` (Lawson & Hanson 1974, ch. 23);
* ellipsoids have one active quadratic constraint whose multiplier is
  the root of a strictly decreasing secular function in the generalized
  eigenbasis of (weight, shape) (More & Sorensen 1983), found by
  bisection.

Both solves return KKT multipliers, and the optimality certificate
checks dual sign, primal slack, stationarity and complementary slackness
against stated scales.  ``verify_optimality`` keeps an independent,
sampled first-order check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh

from .errors import (
    DimensionMismatch,
    EmptyInterior,
    MeanInsideSet,
    NotAtypical,
    RankDeficient,
    SingularPair,
)
from .model import CovarianceModel, GaussianMixture, RandomStream
from .sets import ConvexSet, Ellipsoid, _readonly, least_distance, secular_root

__all__ = [
    "ScalingLimit",
    "ScalingLadder",
    "LadderEntry",
    "DominatingPoint",
    "MixtureRate",
    "ComponentSolution",
    "dominating_point",
    "corner_full_rank",
    "corner_pairwise",
    "rate_mixture",
    "verify_optimality",
    "closest_point_equivalence",
]

# Largest scaled KKT violation the certificate accepts; the exact solves
# land near 1e-15.
KKT_TOL = 1e-9

KKT_DIRECTION_TOL = 1e-8
# Cloud points closer to the candidate than this (relative to its size)
# are re-projections of the candidate itself; normalizing them would
# turn projection noise into arbitrary directions.
DIRECTION_NORM_FLOOR = 1e-8

# Fixed streams so certificates and probes are reproducible library
# behavior, not dependent on caller-provided seeds.
_CERT_STREAM = RandomStream(927022841)
_PROBE_STREAM = RandomStream(404811253)


@dataclass(frozen=True, eq=False)
class ScalingLimit:
    """Positive diagonal limit matrix ``A`` with max entry equal to 1."""

    diagonal: np.ndarray

    def __post_init__(self):
        diag = _readonly(np.atleast_1d(self.diagonal))
        if diag.ndim != 1:
            raise DimensionMismatch("scaling limit diagonal must be a vector")
        if np.any(diag <= 0.0):
            raise ValueError("scaling limit entries must be positive")
        if abs(float(diag.max()) - 1.0) > 1e-12:
            raise ValueError(
                f"scaling limit max entry must equal 1, got {diag.max()!r}"
            )
        object.__setattr__(self, "diagonal", diag)

    @classmethod
    def identity(cls, dimension: int) -> "ScalingLimit":
        return cls(np.ones(dimension))

    @property
    def dimension(self) -> int:
        return self.diagonal.shape[0]


@dataclass(frozen=True, eq=False)
class LadderEntry:
    """One rung: block size ``n`` and the diagonal of the scaling matrix ``A_n``."""

    n: int
    scale_diag: np.ndarray
    speed: float


@dataclass(frozen=True, eq=False)
class ScalingLadder:
    """Scaling sequence ``A_n = sqrt(2 log n) A`` over given block sizes.

    ``speed`` of each rung is the squared spectral norm of ``A_n``,
    which equals ``2 log n`` exactly because the limit has max entry 1.
    """

    limit: ScalingLimit
    sample_sizes: tuple

    def __post_init__(self):
        sizes = tuple(int(n) for n in self.sample_sizes)
        if len(sizes) == 0:
            raise ValueError("ladder needs at least one block size")
        if any(n < 2 for n in sizes):
            raise ValueError("ladder block sizes must be >= 2")
        if any(b <= a for a, b in zip(sizes, sizes[1:])):
            raise ValueError("ladder block sizes must be strictly increasing")
        object.__setattr__(self, "sample_sizes", sizes)

    def entries(self) -> tuple:
        out = []
        for n in self.sample_sizes:
            speed = 2.0 * math.log(n)
            a_n = math.sqrt(speed)
            out.append(LadderEntry(n=n, scale_diag=_readonly(a_n * self.limit.diagonal), speed=speed))
        return tuple(out)


@dataclass(frozen=True, eq=False)
class DominatingPoint:
    """Solver output bundle for one (set, covariance, limit) problem."""

    x_star: np.ndarray
    quad_value: float
    margin_alpha: float
    rate_single: float
    rate_componentwise: float
    optimality_certificate: bool
    solver_iterations: int
    kkt_residual: float


@dataclass(frozen=True, eq=False)
class ComponentSolution:
    """Recentered solution for one mixture component (1-based ``component``)."""

    component: int
    x_star: np.ndarray
    quad_value: float
    iterations: int
    optimality_certificate: bool
    kkt_residual: float


@dataclass(frozen=True, eq=False)
class MixtureRate:
    """Largest-term mixture rate: ``x_star`` and ``margin_alpha`` are the argmin component's."""

    rate_componentwise: float
    argmin_component: int
    per_component: tuple
    x_star: np.ndarray
    margin_alpha: float


def _weight_matrix(covariance: CovarianceModel, limit: ScalingLimit) -> np.ndarray:
    if limit.dimension != covariance.dimension:
        raise DimensionMismatch("scaling limit and covariance dimensions differ")
    a = limit.diagonal
    m = a[:, None] * covariance.sigma_inv * a[None, :]
    return 0.5 * (m + m.T)


def _ellipsoid_argmin(target: Ellipsoid, weight, center):
    """Exact minimizer of ``(x - center)^T W (x - center)`` over the ellipsoid.

    With ``V^T S V = I`` and ``V^T W V = diag(omega)`` the minimizer is
    ``target.center + V s``, ``s = s0 / (1 + lam / omega)``, where ``lam``
    makes ``|s| = radius``; the center lies outside, so ``lam > 0``.
    """
    omega, basis = eigh(weight, target.shape)
    s0 = basis.T @ target.shape @ (center - target.center)
    rates = 1.0 / omega
    lam, steps = secular_root((s0**2)[None, :], rates, target.radius**2)
    x = target.center + basis @ (s0 / (1.0 + lam[0] * rates))
    return x, lam, steps


def _argmin(target: ConvexSet, covariance, limit, weight, center):
    """Minimizer, KKT multipliers and solver steps for the set's shape."""
    if isinstance(target, Ellipsoid):
        return _ellipsoid_argmin(target, weight, center)
    rows, offsets = target.inequalities()
    a = limit.diagonal
    # W = R^T R with R = L^-1 A (sigma = L L^T), so R^-1 = A^-1 L and W^-1 = A^-1 sigma A^-1.
    w_inv = covariance.sigma / np.outer(a, a)
    return least_distance(rows, offsets, (rows / a) @ covariance.chol_lower, w_inv, center)


def _constraints(target: ConvexSet, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Jacobian rows and values of the constraints ``g(x) >= 0`` defining the set."""
    if isinstance(target, Ellipsoid):
        u = x - target.center
        su = target.shape @ u
        return -2.0 * su[None, :], np.array([target.radius**2 - u @ su])
    rows, offsets = target.inequalities()
    return rows, rows @ x - offsets


def _kkt_residual(target: ConvexSet, weight, center, x, multipliers) -> float:
    """Largest scaled KKT violation at ``x`` for the given multipliers.

    Four conditions, each made dimensionless: multiplier forces
    ``lam_i |J_i|`` against the gradient norm ``|2 W (x - center)|`` (dual
    sign), constraint values ``g_i / |J_i|`` against ``|x - center|``
    (primal slack), the stationarity residual ``|2 W (x - center) - J^T lam|``
    against the gradient norm, and complementary slackness as the product
    of the two scaled terms.
    """
    jac, values = _constraints(target, x)
    grad = 2.0 * weight @ (x - center)
    scale = math.sqrt(grad @ grad)
    row = np.linalg.norm(jac, axis=1)
    force = multipliers * row / scale
    slack = values / row / math.sqrt((x - center) @ (x - center))
    stationarity = grad - jac.T @ multipliers
    return float(
        max(
            0.0,
            -force.min(),
            -slack.min(),
            math.sqrt(stationarity @ stationarity) / scale,
            np.abs(force * slack).max(),
        )
    )


def _solve(target, covariance, limit, center):
    """Exact minimizer, its weighted quadratic, KKT residual and solver steps."""
    weight = _weight_matrix(covariance, limit)
    x, multipliers, steps = _argmin(target, covariance, limit, weight, center)
    diff = x - center
    if not diff.any():
        raise NotAtypical("the origin lies on the target set's boundary to working precision")
    residual = _kkt_residual(target, weight, center, x, multipliers)
    return x, float(diff @ weight @ diff), residual, steps


def _feasible_cloud(target: ConvexSet, x_star: np.ndarray, count: int, rng) -> np.ndarray:
    """Random in-set points: jittered anchors pushed through the projection."""
    d = target.dimension
    anchors = [np.asarray(x_star, dtype=float)]
    try:
        anchors.append(target.interior_point())
    except EmptyInterior:
        pass
    bases = np.stack(anchors)[np.arange(count) % len(anchors)]
    spread = np.array([0.25, 1.0, 4.0, 16.0])[np.arange(count) % 4]
    return target.project_many(bases + rng.standard_normal((count, d)) * spread[:, None])


def _directions_pass(x: np.ndarray, grad: np.ndarray, cloud: np.ndarray) -> bool:
    dirs = cloud - x
    norms = np.linalg.norm(dirs, axis=1)
    keep = norms > DIRECTION_NORM_FLOOR * (1.0 + float(np.linalg.norm(x)))
    if not np.any(keep):
        return True
    return bool(np.all(dirs[keep] @ grad >= -KKT_DIRECTION_TOL * norms[keep]))


def dominating_point(
    target: ConvexSet, covariance: CovarianceModel, limit: ScalingLimit
) -> DominatingPoint:
    """Minimize ``Q_A`` over the set and package the rates it implies.

    ``solver_iterations`` counts active-set least-squares solves for
    linear sets and bracketing plus bisection steps for ellipsoids.

    Raises
    ------
    NotAtypical
        If the origin lies in the set, or on its boundary to working
        precision (no rare event to dominate).
    DimensionMismatch
        If the limit and the covariance disagree on the dimension.
    EmptyInterior
        If a linear set is infeasible (no point meets every inequality).
    ConvergenceFailure
        If rounding makes the active-set solve cycle.
    """
    if not target.is_atypical():
        raise NotAtypical("atypical set required: the origin lies inside the target set")
    x, quad, residual, iterations = _solve(target, covariance, limit, np.zeros(target.dimension))
    alpha = 0.5 * quad
    return DominatingPoint(
        x_star=_readonly(x),
        quad_value=quad,
        margin_alpha=alpha,
        rate_single=-0.5 * covariance.quad_inv(x),
        rate_componentwise=0.5 - alpha,
        optimality_certificate=residual <= KKT_TOL,
        solver_iterations=iterations,
        kkt_residual=residual,
    )


def verify_optimality(
    point,
    target: ConvexSet,
    covariance: CovarianceModel,
    limit: ScalingLimit,
    direction_samples: int = 10_000,
) -> bool:
    """First-order check ``<A sigma_inv A x, y - x> >= -tol |y - x|``.

    ``point`` may be a DominatingPoint or a bare vector; directions run
    to random in-set points, so a pass certifies the KKT inequality on
    the sampled cone.
    """
    x = point.x_star if isinstance(point, DominatingPoint) else np.asarray(point, dtype=float)
    weight = _weight_matrix(covariance, limit)
    cloud = _feasible_cloud(target, x, direction_samples, _CERT_STREAM.generator())
    return _directions_pass(x, weight @ x, cloud)


def corner_full_rank(rows, offsets) -> np.ndarray:
    """Least-squares corner ``(B^T B)^-1 B^T c`` for full-column-rank B."""
    b = np.atleast_2d(np.asarray(rows, dtype=float))
    c = np.atleast_1d(np.asarray(offsets, dtype=float))
    if c.shape != (b.shape[0],):
        raise DimensionMismatch("one offset per row required")
    singular = np.linalg.svd(b, compute_uv=False)
    if singular.min() <= 1e-10 * singular.max():
        raise RankDeficient(
            f"constraint matrix is rank deficient (singular values {singular})"
        )
    z, *_ = np.linalg.lstsq(b, c, rcond=None)
    return z


def corner_pairwise(rows, offsets) -> np.ndarray:
    """Componentwise minimum of consecutive-row pair intersections (d = 2).

    Each adjacent pair of constraint rows is solved as a 2x2 system and
    the candidate corners are combined by coordinatewise minimum.  This
    is a reported diagnostic, not a substitute for the solver: the
    combined point can differ from the true quadratic minimizer.
    """
    b = np.atleast_2d(np.asarray(rows, dtype=float))
    c = np.atleast_1d(np.asarray(offsets, dtype=float))
    if b.shape[1] != 2:
        raise DimensionMismatch("pairwise corner formula is defined for dimension 2")
    if b.shape[0] < 2:
        raise ValueError("need at least two constraint rows")
    if c.shape != (b.shape[0],):
        raise DimensionMismatch("one offset per row required")
    corners = []
    for i in range(b.shape[0] - 1):
        pair = b[i : i + 2]
        det = pair[0, 0] * pair[1, 1] - pair[0, 1] * pair[1, 0]
        if abs(det) < 1e-12:
            raise SingularPair(f"constraint rows {i} and {i + 1} are parallel")
        corners.append(np.linalg.solve(pair, c[i : i + 2]))
    return np.stack(corners).min(axis=0)


def rate_mixture(
    target: ConvexSet, mixture: GaussianMixture, limit: ScalingLimit
) -> MixtureRate:
    """Mixture rate by recentering the quadratic at each component mean.

    Solves one exact problem per component, each with its own KKT
    certificate, and keeps the smallest recentered value; weights do not
    enter the rate.  Component indices are 1-based in the result.

    Raises
    ------
    MeanInsideSet
        If any component mean lies inside the target set, or on its
        boundary to working precision.
    EmptyInterior
        If a linear set is infeasible.
    """
    solutions = []
    for j, comp in enumerate(mixture.components, start=1):
        if target.contains(comp.mean):
            raise MeanInsideSet(j)
        try:
            x, val, residual, iterations = _solve(target, comp.covariance, limit, comp.mean)
        except NotAtypical:
            raise MeanInsideSet(j) from None
        solutions.append(
            ComponentSolution(
                component=j,
                x_star=_readonly(x),
                quad_value=val,
                iterations=iterations,
                optimality_certificate=residual <= KKT_TOL,
                kkt_residual=residual,
            )
        )
    best = min(solutions, key=lambda c: c.quad_value)
    alpha = 0.5 * best.quad_value
    return MixtureRate(
        rate_componentwise=0.5 - alpha,
        argmin_component=best.component,
        per_component=tuple(solutions),
        x_star=best.x_star,
        margin_alpha=alpha,
    )


def closest_point_equivalence(
    target: ConvexSet, covariance: CovarianceModel, probe_points: int = 512
) -> tuple[bool, bool]:
    """Sampled check of the shortcut "dominating point = closest point".

    Probes random in-set points ``z``, plus the solved minimizer itself,
    for ``sigma_inv z > 0`` (strictly, componentwise).  Returns
    ``(hypothesis_holds, points_agree)`` where ``points_agree`` compares
    the identity-limit minimizer with the Euclidean projection of the
    origin.

    For upper orthants with a nonnegative corner a probe pass forces
    agreement: strict positivity at the minimizer pins every coordinate
    to the corner, which is also the closest point.  For curved or
    rotated sets a probe pass is sampled evidence only; the shortcut can
    fail even when positivity holds everywhere on the set (an off-axis
    ball deep in the positive orthant is the canonical example), so
    treat the flag as a diagnostic there.  A failed probe predicts
    nothing either way.
    """
    limit = ScalingLimit.identity(target.dimension)
    point = dominating_point(target, covariance, limit)
    cloud = _feasible_cloud(target, point.x_star, probe_points, _PROBE_STREAM.generator())
    probes = np.vstack([cloud, point.x_star[None, :]])
    hypothesis = bool(np.all(probes @ covariance.sigma_inv.T > 0.0))
    closest = target.project(np.zeros(target.dimension))
    agree = bool(np.linalg.norm(point.x_star - closest) <= 1e-6)
    return hypothesis, agree
