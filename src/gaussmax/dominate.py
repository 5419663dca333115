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
  ``least_distance`` (Lawson & Hanson 1974, ch. 23);
* ellipsoids have one active quadratic constraint whose multiplier is
  the root of a strictly decreasing secular function in the generalized
  eigenbasis of (weight, shape) (More & Sorensen 1983), found by
  bisection.

Both solves return KKT multipliers, and the optimality certificate
checks dual sign, primal slack, stationarity and complementary slackness
against stated scales.  ``verify_optimality`` applies the same check to
any point, with multipliers it fits at that point alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConvergenceFailure,
    DimensionMismatch,
    EmptyInterior,
    MeanInsideSet,
    NotAtypical,
    SingularPair,
)
from .model import CovarianceModel, GaussianMixture, _readonly
from .sets import ConvexSet, Ellipsoid

__all__ = [
    "ScalingLimit",
    "ScalingLadder",
    "LadderEntry",
    "DominatingPoint",
    "MixtureRate",
    "ComponentSolution",
    "dominating_point",
    "corner_pairwise",
    "rate_mixture",
    "verify_optimality",
]

# Largest scaled KKT violation the certificate accepts; the exact solves
# land near 1e-15.
KKT_TOL = 1e-9

# A re-solved least-distance point violating a row by more than this, scaled
# as the KKT certificate scales primal slack, proves the set empty.
INFEASIBLE_SLACK = 1e-9


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


def _pencil_eigh(weight, shape):
    """``omega, V`` with ``W V = S V diag(omega)`` and ``V^T S V = I``, omega ascending.

    ``S = C C^T`` turns the pencil into the symmetric ``C^-1 W C^-T``, whose
    eigenvectors ``U`` map back as ``V = C^-T U`` (the reduction LAPACK's
    sygv makes).
    """
    chol_inv = np.linalg.inv(np.linalg.cholesky(shape))
    omega, u = np.linalg.eigh(chol_inv @ weight @ chol_inv.T)
    return omega, chol_inv.T @ u


def secular_root(weights, rates, level: float) -> tuple[np.ndarray, int]:
    """Root ``lam >= 0`` of ``sum(weights / (1 + lam * rates)**2) = level``.

    ``weights`` is nonnegative, ``rates`` is positive, and the sum must
    exceed ``level`` at ``lam = 0``.  The sum falls strictly in ``lam``, so
    doubling brackets the root and bisection runs until the bracket holds
    two adjacent floats.  Returns the root as a one-element multiplier
    array and the number of bracketing and bisection steps.
    """

    def over(lam):
        return float((weights / (1.0 + lam * rates) ** 2).sum()) > level

    lo, hi, steps = 0.0, 1.0, 0
    while over(hi):
        hi *= 2.0
        steps += 1
    while True:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return np.array([mid]), steps
        if over(mid):
            lo = mid
        else:
            hi = mid
        steps += 1


def _ellipsoid_argmin(target: Ellipsoid, weight, center):
    """Exact minimizer of ``(x - center)^T W (x - center)`` over the ellipsoid.

    With ``V^T S V = I`` and ``V^T W V = diag(omega)`` the minimizer is
    ``target.center + V s``, ``s = s0 / (1 + lam / omega)``, where ``lam``
    makes ``|s| = radius``; the center lies outside, so ``lam > 0``.
    """
    omega, basis = _pencil_eigh(weight, target.shape)
    s0 = basis.T @ target.shape @ (center - target.center)
    rates = 1.0 / omega
    lam, steps = secular_root(s0**2, rates, target.radius**2)
    x = target.center + basis @ (s0 / (1.0 + lam * rates))
    return x, lam, steps


_EPS = np.finfo(float).eps


def _nnls(e: np.ndarray, f: np.ndarray) -> tuple[np.ndarray, int]:
    """Lawson-Hanson active set for ``min |e u - f|`` subject to ``u >= 0``.

    Returns the solution and the number of least-squares solves.
    """
    n = e.shape[1]
    u = np.zeros(n)
    passive = np.zeros(n, dtype=bool)
    tol = 10.0 * _EPS * max(e.shape) * float(np.abs(e).sum(axis=0).max())
    steps = 0
    # Each pass adds one index and the residual falls strictly, so no
    # passive set repeats and the loop ends; a repeat is a rounding cycle.
    seen = set()
    while True:
        gain = e.T @ (f - e @ u)
        if not (~passive & (gain > tol)).any():
            return u, steps
        if passive.tobytes() in seen:
            raise ConvergenceFailure("active-set least squares is cycling under rounding")
        seen.add(passive.tobytes())
        passive[np.argmax(np.where(passive, -np.inf, gain))] = True
        while True:
            steps += 1
            trial = np.zeros(n)
            trial[passive] = np.linalg.lstsq(e[:, passive], f, rcond=None)[0]
            if trial[passive].min() > 0.0:
                u = trial
                break
            # Step back to the first passive entry that reaches zero and drop it.
            cut = passive & (trial <= 0.0)
            ratios = u[cut] / (u[cut] - trial[cut])
            u = u + ratios.min() * (trial - u)
            u[np.flatnonzero(cut)[np.argmin(ratios)]] = 0.0
            passive &= u > 0.0
            u[~passive] = 0.0


def least_distance(rows, offsets, g, w_inv, center) -> tuple[np.ndarray, np.ndarray, int]:
    """Exact minimizer of ``(x - center)^T W (x - center)`` over ``rows @ x >= offsets``.

    ``g = rows @ R^-1`` for ``W = R^T R``, and ``w_inv = W^-1``.  NNLS solves
    the least-distance program in ``y = R (x - center)`` (Lawson & Hanson
    1974, ch. 23), then ``x`` is re-solved on the passive rows.  Returns
    ``x``, the row multipliers and the least-squares solve count; ``x`` is
    ``center`` when no row is passive (``center`` in the set to rounding).
    Raises ``EmptyInterior`` if no point meets every row, and
    ``ConvergenceFailure`` if a least-squares SVD fails or the active set
    cycles.
    """
    norms = np.linalg.norm(g, axis=1)
    shifted = offsets - rows @ center
    h = shifted / norms
    # NNLS of [g^T; h^T / s] (rows normalized) against e_{d+1}, residual r,
    # y = -s r[:d] / r[d].  r[d] = -1 / (1 + |y / s|^2) and the NNLS gains
    # drown in rounding for far sets, so s is a power of two (exact) that
    # takes every |h / s| below 16.
    scale = 2.0 ** max(0, math.frexp(float(np.abs(h).max()))[1] - 4)
    e = np.vstack([(g / norms[:, None]).T, h / scale])
    f = np.zeros(e.shape[0])
    f[-1] = 1.0
    try:
        u, steps = _nnls(e, f)
        passive = u > 0.0
        if not passive.any():
            return center.copy(), u, steps
        # x* = center + W^-1 B_P^T (B_P W^-1 B_P^T)^-1 (c_P - B_P center) on the
        # passive rows P; lstsq because dependent active rows make it singular.
        active = rows[passive]
        gram = active @ w_inv @ active.T
        x = center + w_inv @ active.T @ np.linalg.lstsq(gram, shifted[passive], rcond=None)[0]
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"active-set least squares failed: {exc}") from None
    # On an empty set NNLS finds a Farkas certificate, whose rows x cannot meet.
    violation = float(((offsets - rows @ x) / np.linalg.norm(rows, axis=1)).max())
    if violation > INFEASIBLE_SLACK * float(np.linalg.norm(x - center)):
        raise EmptyInterior(f"target set is infeasible: a row is violated by {violation:.3e}")
    # The least-distance multipliers 2 u / (1 - h^T u), with 1 - h^T u = |r|^2,
    # mapped back through the row normalization and the scale.
    resid = e @ u - f
    return x, 2.0 * scale * u / (float(resid @ resid) * norms), steps


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
        If rounding makes the active-set solve cycle, or one of its
        least-squares SVDs fails.
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
    point, target: ConvexSet, covariance: CovarianceModel, limit: ScalingLimit
) -> bool:
    """Exact first-order (KKT) check that ``x`` minimizes ``Q_A`` over the set.

    ``point`` may be a DominatingPoint or a bare vector.  Rows whose scaled
    slack ``g_i / |J_i|`` is at most ``KKT_TOL |x|`` count as active; their
    multipliers are the nonnegative least-squares fit of
    ``J_active^T lam = 2 A sigma_inv A x`` and the others are zero.  The
    problem is convex, so a scaled KKT residual of at most ``KKT_TOL``
    certifies ``x`` against every feasible direction; an infeasible ``x``
    fails on primal slack, and a point with no active row (an interior
    point, where the gradient is nonzero) fails outright.
    """
    x = point.x_star if isinstance(point, DominatingPoint) else np.asarray(point, dtype=float)
    weight = _weight_matrix(covariance, limit)
    jac, values = _constraints(target, x)
    # Multiplied out, since an ellipsoid's gradient vanishes at its center.
    active = values <= KKT_TOL * math.sqrt(x @ x) * np.linalg.norm(jac, axis=1)
    if not active.any():
        return False
    multipliers = np.zeros(len(values))
    multipliers[active] = _nnls(jac[active].T, 2.0 * weight @ x)[0]
    return _kkt_residual(target, weight, np.zeros_like(x), x, multipliers) <= KKT_TOL


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
        # Relative to the row norms, so the test does not depend on their scale.
        if abs(det) <= 1e-12 * np.linalg.norm(pair[0]) * np.linalg.norm(pair[1]):
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
