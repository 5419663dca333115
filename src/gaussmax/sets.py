"""Closed convex target sets: membership, projection, scaling, interior points.

Four shapes cover the battery: upper orthants anchored at a corner,
halfspaces, finite intersections of halfspaces, and ellipsoids.  All are
closed, so boundary points count as inside.  Each shape knows how to

* report a signed slack (nonnegative inside, negative outside), which
  ``contains`` reads as a plain ``bool``,
* project points onto itself in the Euclidean metric,
* rescale itself by a positive diagonal matrix so that membership of a
  scaled point in the scaled set matches the original pair,
* produce a strictly interior point.

The linear shapes (blocks, halfspaces, polyhedra) also list their
inequalities ``rows @ x >= offsets`` for the dominating-point solver.

Projection is exact, through the two solves the dominating-point solver
shares: polyhedra solve a least-distance program (``least_distance``)
and ellipsoids bisect on the multiplier of the boundary-projection
problem (``secular_root``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import get_lapack_funcs

from .errors import (
    ConvergenceFailure,
    DimensionMismatch,
    EmptyInterior,
    NotPositiveDefinite,
)

__all__ = [
    "ConvexSet",
    "Block",
    "Halfspace",
    "Polyhedron",
    "Ellipsoid",
]

# A re-solved least-distance point violating a row by more than this, scaled
# as the KKT certificate scales primal slack, proves the set empty.
INFEASIBLE_SLACK = 1e-9

# Chebyshev-centre radius (normalized slack) at or below which the
# interior counts as empty.
INTERIOR_RADIUS_FLOOR = 1e-9


def _readonly(a) -> np.ndarray:
    out = np.array(a, dtype=float, copy=True)
    out.setflags(write=False)
    return out


def secular_root(weights, rates, level: float) -> tuple[np.ndarray, int]:
    """Roots ``lam >= 0`` of ``sum(weights / (1 + lam * rates)**2) = level``, row-wise.

    ``weights`` is (k, d) and nonnegative, ``rates`` broadcasts against it
    and is positive, and every row must exceed ``level`` at ``lam = 0``.
    Each left side falls strictly in ``lam``, so doubling brackets the
    root and bisection runs until the bracket holds two adjacent floats.
    Returns the roots and the number of bracketing and bisection steps.
    """

    def over(lam):
        return (weights / (1.0 + lam[:, None] * rates) ** 2).sum(axis=1) > level

    lo = np.zeros(weights.shape[0])
    hi = np.ones(weights.shape[0])
    steps = 0
    while np.any(grow := over(hi)):
        hi[grow] *= 2.0
        steps += 1
    while True:
        mid = 0.5 * (lo + hi)
        if np.all((mid == lo) | (mid == hi)):
            return mid, steps
        high = over(mid)
        lo = np.where(high, mid, lo)
        hi = np.where(high, hi, mid)
        steps += 1


_EPS = np.finfo(float).eps
_GELSD, _GELSD_LWORK = get_lapack_funcs(("gelsd", "gelsd_lwork"), (np.zeros(1),))


def _lstsq(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.linalg.lstsq(a, b, rcond=None)[0]`` for a vector ``b``.

    Calls the same LAPACK driver (gelsd) with the same cutoff directly:
    at the solver's sizes numpy's wrapper costs about 60 us a call, the
    solve itself under 10.
    """
    m, n = a.shape
    rhs = np.zeros(max(m, n))
    rhs[:m] = b
    rcond = _EPS * max(m, n)
    work, iwork, _ = _GELSD_LWORK(m, n, 1, rcond)
    x, _, _, info = _GELSD(a, rhs, int(work), iwork, rcond)
    if info != 0:
        raise ConvergenceFailure(f"least-squares SVD did not converge (gelsd info {info})")
    return x[:n]


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
            trial[passive] = _lstsq(e[:, passive], f)
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
    Raises ``EmptyInterior`` if no point meets every row.
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
    u, steps = _nnls(e, f)
    passive = u > 0.0
    if not passive.any():
        return center.copy(), u, steps
    # x* = center + W^-1 B_P^T (B_P W^-1 B_P^T)^-1 (c_P - B_P center) on the
    # passive rows P; lstsq because dependent active rows make it singular.
    active = rows[passive]
    x = center + w_inv @ active.T @ _lstsq(active @ w_inv @ active.T, shifted[passive])
    # On an empty set NNLS finds a Farkas certificate, whose rows x cannot meet.
    violation = float(((offsets - rows @ x) / np.linalg.norm(rows, axis=1)).max())
    if violation > INFEASIBLE_SLACK * float(np.linalg.norm(x - center)):
        raise EmptyInterior(f"target set is infeasible: a row is violated by {violation:.3e}")
    # The least-distance multipliers 2 u / (1 - h^T u), with 1 - h^T u = |r|^2,
    # mapped back through the row normalization and the scale.
    resid = e @ u - f
    return x, 2.0 * scale * u / (float(resid @ resid) * norms), steps


def _diag_entries(diag, dimension: int) -> np.ndarray:
    """Normalize a positive diagonal matrix argument to its entries."""
    d = np.asarray(diag, dtype=float)
    if d.ndim == 2:
        if d.shape != (dimension, dimension):
            raise DimensionMismatch(f"diagonal matrix must be {dimension}x{dimension}")
        off = d - np.diag(np.diag(d))
        if np.abs(off).max(initial=0.0) != 0.0:
            raise ValueError("scaling matrix must be diagonal")
        d = np.diag(d)
    if d.shape != (dimension,):
        raise DimensionMismatch(f"diagonal must have {dimension} entries, got shape {d.shape}")
    if np.any(d <= 0.0):
        raise ValueError("diagonal scaling entries must be positive")
    return d


class ConvexSet:
    """Common behavior for the concrete set shapes."""

    dimension: int

    # Per-shape: signed slack for a batch of points, shape (m, d) -> (m,).
    def slack_many(self, points: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def project_many(self, points: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def scale(self, diag) -> "ConvexSet":
        raise NotImplementedError

    def interior_point(self) -> np.ndarray:
        raise NotImplementedError

    def _check_points(self, points) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.shape[1] != self.dimension:
            raise DimensionMismatch(
                f"points have dimension {pts.shape[1]}, set has {self.dimension}"
            )
        return pts

    def min_slack(self, x) -> float:
        """Signed slack of a single point; >= 0 exactly when inside."""
        return float(self.slack_many(self._check_points(x))[0])

    def contains(self, x) -> bool:
        """Closed membership test (boundary counts as inside)."""
        return self.min_slack(x) >= 0.0

    def contains_many(self, points) -> np.ndarray:
        """Boolean membership for an (m, d) batch."""
        return self.slack_many(self._check_points(points)) >= 0.0

    def project(self, x) -> np.ndarray:
        """Euclidean projection of a single point onto the set."""
        return self.project_many(self._check_points(x))[0]

    def is_atypical(self) -> bool:
        """True when the origin lies outside the set."""
        return not self.contains(np.zeros(self.dimension))


@dataclass(frozen=True, eq=False)
class Block(ConvexSet):
    """Upper orthant ``{x : x >= corner componentwise}``."""

    corner: np.ndarray

    def __post_init__(self):
        corner = _readonly(np.atleast_1d(self.corner))
        if corner.ndim != 1:
            raise DimensionMismatch("block corner must be a vector")
        object.__setattr__(self, "corner", corner)

    @property
    def dimension(self) -> int:
        return self.corner.shape[0]

    def slack_many(self, points):
        # Column by column: the strided minimum is about ten times faster
        # than a reduction along the short axis, and bit-identical.
        slack = points[:, 0] - self.corner[0]
        for j in range(1, self.dimension):
            np.minimum(slack, points[:, j] - self.corner[j], out=slack)
        return slack

    def inequalities(self):
        return np.eye(self.dimension), self.corner

    def project_many(self, points):
        return np.maximum(points, self.corner)

    def scale(self, diag):
        d = _diag_entries(diag, self.dimension)
        return Block(d * self.corner)

    def interior_point(self):
        return self.corner + 1.0


@dataclass(frozen=True, eq=False)
class Halfspace(ConvexSet):
    """Halfspace ``{x : <normal, x> >= offset}``."""

    normal: np.ndarray
    offset: float

    def __post_init__(self):
        normal = _readonly(np.atleast_1d(self.normal))
        if normal.ndim != 1:
            raise DimensionMismatch("halfspace normal must be a vector")
        if float(normal @ normal) == 0.0:
            raise ValueError("halfspace normal must be nonzero")
        object.__setattr__(self, "normal", normal)
        object.__setattr__(self, "offset", float(self.offset))

    @property
    def dimension(self) -> int:
        return self.normal.shape[0]

    def slack_many(self, points):
        return points @ self.normal - self.offset

    def inequalities(self):
        return self.normal[None, :], np.array([self.offset])

    def project_many(self, points):
        b = self.normal
        deficit = np.maximum(self.offset - points @ b, 0.0)
        return points + (deficit / float(b @ b))[:, None] * b

    def scale(self, diag):
        d = _diag_entries(diag, self.dimension)
        return Halfspace(self.normal / d, self.offset)

    def interior_point(self):
        b = self.normal
        nrm = math.sqrt(float(b @ b))
        return (self.offset / (nrm * nrm)) * b + b / nrm


@dataclass(frozen=True, eq=False)
class Polyhedron(ConvexSet):
    """Intersection of halfspaces ``{x : constraints @ x >= offsets}``."""

    constraints: np.ndarray
    offsets: np.ndarray

    def __post_init__(self):
        rows = _readonly(np.atleast_2d(self.constraints))
        offs = _readonly(np.atleast_1d(self.offsets))
        if rows.ndim != 2:
            raise DimensionMismatch("constraint matrix must be 2-D")
        if offs.shape != (rows.shape[0],):
            raise DimensionMismatch("one offset per constraint row required")
        row_norms = np.sqrt((rows**2).sum(axis=1))
        if np.any(row_norms == 0.0):
            raise ValueError("constraint rows must be nonzero")
        object.__setattr__(self, "constraints", rows)
        object.__setattr__(self, "offsets", offs)

    @property
    def dimension(self) -> int:
        return self.constraints.shape[1]

    def slack_many(self, points):
        # Constraint-major: the reduction runs over contiguous rows of points.
        slack = self.constraints @ points.T
        slack -= self.offsets[:, None]
        return np.minimum.reduce(slack, axis=0)

    def inequalities(self):
        return self.constraints, self.offsets

    def project_many(self, points):
        """Exact projection of each outside point: a least-distance solve."""
        pts = np.array(points, dtype=float, copy=True)
        rows, eye = self.constraints, np.eye(self.dimension)
        for k in np.flatnonzero(self.slack_many(pts) < 0.0):
            pts[k] = least_distance(rows, self.offsets, rows, eye, pts[k])[0]
        return pts

    def scale(self, diag):
        d = _diag_entries(diag, self.dimension)
        return Polyhedron(self.constraints / d, self.offsets)

    def interior_point(self):
        """Chebyshev centre (Boyd & Vandenberghe 2004, sec. 8.5.1) within a box.

        Maximizes ``r`` with every normalized row slack and every face slack
        of the box ``anchor +- 4 (1 + |anchor|)``, ``anchor`` the projection
        of the origin, at least ``r``.  ``scipy.optimize`` loads only here.
        """
        from scipy.optimize import linprog

        d = self.dimension
        anchor = self.project(np.zeros(d))
        radius = 4.0 * (1.0 + float(np.linalg.norm(anchor)))
        norms = np.linalg.norm(self.constraints, axis=1)
        # Variables (x, r): -b x / |b| + r <= -c / |b| per row, -+x + r <= radius -+ anchor.
        a_ub = np.vstack([-self.constraints / norms[:, None], -np.eye(d), np.eye(d)])
        b_ub = np.concatenate([-self.offsets / norms, radius - anchor, radius + anchor])
        a_ub = np.hstack([a_ub, np.ones((len(b_ub), 1))])
        result = linprog(np.r_[np.zeros(d), -1.0], a_ub, b_ub, bounds=(None, None), method="highs")
        if result.status != 0:
            raise EmptyInterior(f"Chebyshev-centre program failed: {result.message}")
        # Judge the point returned, not the solver's r, which carries its tolerance.
        x = result.x[:d]
        r = float(((self.constraints @ x - self.offsets) / norms).min())
        if r <= INTERIOR_RADIUS_FLOOR:
            raise EmptyInterior(f"no interior point (best normalized slack {r:.3e})")
        return x


@dataclass(frozen=True, eq=False)
class Ellipsoid(ConvexSet):
    """Solid ellipsoid ``{x : <x-center, shape (x-center)> <= radius**2}``."""

    center: np.ndarray
    shape: np.ndarray
    radius: float

    def __post_init__(self):
        center = _readonly(np.atleast_1d(self.center))
        shape = _readonly(np.atleast_2d(self.shape))
        if center.ndim != 1:
            raise DimensionMismatch("ellipsoid center must be a vector")
        d = center.shape[0]
        if shape.shape != (d, d):
            raise DimensionMismatch("ellipsoid shape matrix must be d x d")
        scale = np.abs(shape).max()
        if scale == 0.0 or np.abs(shape - shape.T).max() > 1e-12 * scale:
            raise NotPositiveDefinite("ellipsoid shape matrix must be symmetric")
        evals, evecs = np.linalg.eigh(0.5 * (shape + shape.T))
        if evals.min() <= 1e-12 * evals.max():
            raise NotPositiveDefinite("ellipsoid shape matrix must be positive definite")
        if not float(self.radius) > 0.0:
            raise ValueError("ellipsoid radius must be positive")
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "radius", float(self.radius))
        object.__setattr__(self, "_evals", _readonly(evals))
        object.__setattr__(self, "_evecs", _readonly(evecs))

    @property
    def dimension(self) -> int:
        return self.center.shape[0]

    def _quad(self, points):
        """Eigenbasis coordinates ``w`` of ``points - center`` and the shape quadratic."""
        w = (points - self.center) @ self._evecs
        # Column by column, as in Block.slack_many: about twice as fast as
        # summing the short axis, and for d < 8 the same sequential order.
        quad = w[:, 0] ** 2 * self._evals[0]
        for j in range(1, self.dimension):
            quad += w[:, j] ** 2 * self._evals[j]
        return w, quad

    def slack_many(self, points):
        return self.radius**2 - self._quad(points)[1]

    def project_many(self, points):
        """Boundary projection via bisection on the multiplier.

        For an outside point the projection is
        ``center + (I + lam * shape)^-1 (x - center)`` with ``lam > 0``
        chosen so the image lands on the boundary; the boundary quadratic
        is strictly decreasing in ``lam``, so bisection is safe.
        """
        pts = np.array(points, dtype=float, copy=True)
        evals = self._evals
        r2 = self.radius**2
        w, quad = self._quad(pts)
        outside = quad > r2
        if not np.any(outside):
            return pts
        wo = w[outside]
        lam, _ = secular_root(evals * wo**2, evals, r2)
        mapped = (wo / (1.0 + lam[:, None] * evals)) @ self._evecs.T
        pts[outside] = self.center + mapped
        return pts

    def scale(self, diag):
        d = _diag_entries(diag, self.dimension)
        inv = 1.0 / d
        return Ellipsoid(d * self.center, inv[:, None] * self.shape * inv[None, :], self.radius)

    def interior_point(self):
        return self.center.copy()
