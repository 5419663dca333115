"""Closed convex target sets: membership and scaling.

Four shapes cover the battery: upper orthants anchored at a corner,
halfspaces, finite intersections of halfspaces, and ellipsoids.  All are
closed, so boundary points count as inside.  Each shape knows how to

* report a signed slack (nonnegative inside, negative outside), which
  ``contains`` reads as a plain ``bool``,
* rescale itself by a positive diagonal matrix so that membership of a
  scaled point in the scaled set matches the original pair,
* give a finite lower bound ``b`` with the set inside ``{x >= b}``, where
  the shape has one without solving a program (blocks and ellipsoids),
* fold an affine map ``x = centre + C z`` into its membership test, so
  that standard normal ``z`` can be tested without forming ``x``.

The linear shapes (blocks, halfspaces, polyhedra) also list their
inequalities ``rows @ x >= offsets`` for the dominating-point solver.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NotPositiveDefinite
from .model import _readonly

__all__ = [
    "ConvexSet",
    "Block",
    "Halfspace",
    "Polyhedron",
    "Ellipsoid",
]


def _diag_entries(diag, dimension: int) -> np.ndarray:
    """Check the entries of a positive diagonal scaling."""
    d = np.asarray(diag, dtype=float)
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

    def scale(self, diag) -> "ConvexSet":
        raise NotImplementedError

    def lower_bound(self) -> np.ndarray | None:
        """Finite ``b`` with the set inside ``{x >= b}``, or None (halfspaces, polyhedra)."""
        return None

    def _check_points(self, points) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.shape[1] != self.dimension:
            raise DimensionMismatch(
                f"points have dimension {pts.shape[1]}, set has {self.dimension}"
            )
        return pts

    def contains(self, x) -> bool:
        """Closed membership test (boundary counts as inside)."""
        return bool(self.slack_many(self._check_points(x))[0] >= 0.0)

    def contains_many(self, points) -> np.ndarray:
        """Boolean membership for an (m, d) batch."""
        return self.slack_many(self._check_points(points)) >= 0.0

    def is_atypical(self) -> bool:
        """True when the origin lies outside the set."""
        return not self.contains(np.zeros(self.dimension))

    def whitened(self, centre, chol):
        """Membership of ``centre + z @ chol.T`` as a test on ``z``, shape (m, d) -> (m,).

        A linear set becomes the polyhedron ``{z : rows @ chol @ z >= offsets
        - rows @ centre}``; its test agrees with ``contains_many`` of the
        mapped points except within rounding of the boundary.
        """
        rows, offsets = self.inequalities()
        return Polyhedron(rows @ chol, offsets - rows @ centre).contains_many


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

    def lower_bound(self):
        return self.corner

    def scale(self, diag):
        d = _diag_entries(diag, self.dimension)
        return Block(d * self.corner)


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

    def scale(self, diag):
        d = _diag_entries(diag, self.dimension)
        return Halfspace(self.normal / d, self.offset)


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

    def scale(self, diag):
        d = _diag_entries(diag, self.dimension)
        return Polyhedron(self.constraints / d, self.offsets)


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
        """The shape quadratic of ``points - center``, summed in the eigenbasis."""
        w = (points - self.center) @ self._evecs
        # Column by column, as in Block.slack_many: about twice as fast as
        # summing the short axis, and for d < 8 the same sequential order.
        quad = w[:, 0] ** 2 * self._evals[0]
        for j in range(1, self.dimension):
            quad += w[:, j] ** 2 * self._evals[j]
        return quad

    def slack_many(self, points):
        return self.radius**2 - self._quad(points)

    def whitened(self, centre, chol):
        # The eigenbasis is mapped through chol.T, never re-diagonalised: the
        # mapped shape chol.T @ shape @ chol may be too ill-conditioned for
        # __post_init__ to accept.
        basis = chol.T @ self._evecs
        offset = (centre - self.center) @ self._evecs
        bound = self.radius**2

        def contains_many(z):
            w = z @ basis
            w += offset
            return np.square(w, out=w) @ self._evals <= bound

        return contains_many

    def lower_bound(self):
        # min x_j over the ellipsoid is center_j - radius * sqrt((shape^-1)_jj).
        inv_diag = (self._evecs**2 / self._evals).sum(axis=1)
        return self.center - self.radius * np.sqrt(inv_diag)

    def scale(self, diag):
        d = _diag_entries(diag, self.dimension)
        inv = 1.0 / d
        return Ellipsoid(d * self.center, inv[:, None] * self.shape * inv[None, :], self.radius)
