"""Closed convex target sets: membership, projection, scaling, interior points.

Four shapes cover the battery: upper orthants anchored at a corner,
halfspaces, finite intersections of halfspaces, and ellipsoids.  All are
closed, so boundary points count as inside.  Each shape knows how to

* report a signed slack (nonnegative inside, negative outside),
* project points onto itself in the Euclidean metric,
* rescale itself by a positive diagonal matrix so that membership of a
  scaled point in the scaled set matches the original pair,
* produce a strictly interior point.

The linear shapes (blocks, halfspaces, polyhedra) also list their
inequalities ``rows @ x >= offsets`` for the dominating-point solver.

Projection is closed-form where possible; polyhedra use Dykstra's
alternating projections and ellipsoids a monotone bisection on the
Lagrange multiplier of the boundary-projection problem
(``secular_root``, which the ellipsoid dominating-point solve shares).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConvergenceFailure,
    DimensionMismatch,
    EmptyInterior,
    NotPositiveDefinite,
)

__all__ = [
    "Membership",
    "ConvexSet",
    "Block",
    "Halfspace",
    "Polyhedron",
    "Ellipsoid",
]

# Dykstra projection controls for polyhedra.
DYKSTRA_SWEEP_CAP = 10_000
DYKSTRA_RESIDUAL_TOL = 1e-8
DYKSTRA_STEP_TOL = 1e-12

# Interior-point search: a normalized slack radius at or below this is
# treated as an empty interior.
INTERIOR_RADIUS_FLOOR = 1e-9


class Membership(enum.Enum):
    """Two-state membership flag with a numeric indicator view.

    ``indicator`` is 0 inside the set and ``-inf`` outside, matching the
    extended-value convention used by the rate functions.
    """

    INSIDE = "inside"
    OUTSIDE = "outside"

    @property
    def indicator(self) -> float:
        return 0.0 if self is Membership.INSIDE else -math.inf

    def __bool__(self) -> bool:
        return self is Membership.INSIDE


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

    def contains(self, x) -> Membership:
        """Closed membership test (boundary counts as inside)."""
        return Membership.INSIDE if self.min_slack(x) >= 0.0 else Membership.OUTSIDE

    def contains_many(self, points) -> np.ndarray:
        """Boolean membership for an (m, d) batch."""
        return self.slack_many(self._check_points(points)) >= 0.0

    def project(self, x) -> np.ndarray:
        """Euclidean projection of a single point onto the set."""
        return self.project_many(self._check_points(x))[0]

    def is_atypical(self) -> bool:
        """True when the origin lies outside the set."""
        return not bool(self.contains(np.zeros(self.dimension)))


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
        return (points @ self.constraints.T - self.offsets).min(axis=1)

    def inequalities(self):
        return self.constraints, self.offsets

    def project_many(self, points):
        """Dykstra's alternating projections over the constraint rows."""
        pts = np.array(points, dtype=float, copy=True)
        rows = self.constraints
        offs = self.offsets
        m = rows.shape[0]
        norms2 = (rows**2).sum(axis=1)
        corrections = np.zeros((m,) + pts.shape)
        viol = np.inf
        for _ in range(DYKSTRA_SWEEP_CAP):
            prev = pts.copy()
            for i in range(m):
                y = pts + corrections[i]
                shortfall = np.minimum(y @ rows[i] - offs[i], 0.0) / norms2[i]
                pts = y - shortfall[:, None] * rows[i]
                corrections[i] = y - pts
            delta = np.abs(pts - prev).max()
            viol = np.maximum(offs - pts @ rows.T, 0.0).max()
            if delta <= DYKSTRA_STEP_TOL and viol <= DYKSTRA_RESIDUAL_TOL:
                return pts
        if viol > DYKSTRA_RESIDUAL_TOL:
            raise ConvergenceFailure(
                f"polyhedron projection residual {viol:.3e} after "
                f"{DYKSTRA_SWEEP_CAP} sweeps (infeasible or degenerate set)"
            )
        return pts

    def scale(self, diag):
        d = _diag_entries(diag, self.dimension)
        return Polyhedron(self.constraints / d, self.offsets)

    def interior_point(self):
        """Point of (locally) maximal normalized slack, strictly inside.

        Maximizes the minimum normalized row slack over a bounding box
        anchored at the projection of the origin: coarse-to-fine grid
        search in up to three dimensions, projected subgradient ascent
        above that.  The box faces take part in the objective so the
        maximizer stays interior.
        """
        d = self.dimension
        try:
            anchor = self.project(np.zeros(d))
        except ConvergenceFailure:
            raise EmptyInterior("polyhedron appears infeasible") from None
        radius = 4.0 * (1.0 + float(np.linalg.norm(anchor)))
        low = anchor - radius
        high = anchor + radius
        row_norms = np.sqrt((self.constraints**2).sum(axis=1))
        rows_n = self.constraints / row_norms[:, None]
        offs_n = self.offsets / row_norms

        def score(pts):
            slack = (pts @ rows_n.T - offs_n).min(axis=1)
            box = np.minimum((pts - low).min(axis=1), (high - pts).min(axis=1))
            return np.minimum(slack, box)

        if d <= 3:
            best, best_val = self._grid_ascent(score, low, high)
        else:
            best, best_val = self._subgradient_ascent(rows_n, offs_n, low, high, anchor)
        if best_val <= INTERIOR_RADIUS_FLOOR:
            raise EmptyInterior(
                f"no interior point found (best slack radius {best_val:.3e})"
            )
        return best

    @staticmethod
    def _grid_ascent(score, low, high, levels: int = 6, per_axis: int = 17):
        lo = low.copy()
        hi = high.copy()
        best = None
        best_val = -np.inf
        for _ in range(levels):
            axes = [np.linspace(lo[j], hi[j], per_axis) for j in range(lo.shape[0])]
            mesh = np.meshgrid(*axes, indexing="ij")
            pts = np.stack([m.ravel() for m in mesh], axis=1)
            vals = score(pts)
            k = int(np.argmax(vals))
            if vals[k] > best_val:
                best_val = float(vals[k])
                best = pts[k]
            half = 0.2 * (hi - lo)
            lo = np.maximum(best - half, low)
            hi = np.minimum(best + half, high)
        return best, best_val

    def _subgradient_ascent(self, rows_n, offs_n, low, high, start, iters: int = 4000):
        x = np.clip(start + 0.5, low, high)
        best = x.copy()
        best_val = -np.inf
        step0 = float((high - low).max()) / 4.0
        for k in range(1, iters + 1):
            slack = rows_n @ x - offs_n
            box_lo = x - low
            box_hi = high - x
            candidates = np.concatenate([slack, box_lo, box_hi])
            j = int(np.argmin(candidates))
            val = float(candidates[j])
            if val > best_val:
                best_val = val
                best = x.copy()
            m = rows_n.shape[0]
            d = x.shape[0]
            if j < m:
                g = rows_n[j]
            elif j < m + d:
                g = np.eye(d)[j - m]
            else:
                g = -np.eye(d)[j - m - d]
            x = np.clip(x + (step0 / k) * g, low, high)
        return best, best_val


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
