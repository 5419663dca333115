"""Gaussian and Gaussian-mixture models with reproducible sampling.

The covariance container carries the pieces every downstream computation
needs (inverse, whitening factor, Cholesky factor) so they are computed
once, validated once, and shared.  Sampling goes through counter-based
Philox streams addressed by a ``(seed, stream_index)`` pair: equal pairs
replay identical draws, distinct pairs give statistically independent
streams, and substreams can be derived without coordination.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NotPositiveDefinite, NotSymmetric

__all__ = [
    "RandomStream",
    "CovarianceModel",
    "GaussianModel",
    "GaussianMixture",
    "build_covariance",
    "sample_gaussian",
    "sample_mixture",
]

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

# Relative tolerance for the symmetry check in build_covariance.
SYMMETRY_RTOL = 1e-12
# A Cholesky pivot at or below this value counts as numerically singular.
PIVOT_FLOOR = 1e-12


def _mix64(value: int) -> int:
    """SplitMix64 finalizer; bijective mixing on 64-bit words."""
    z = value & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


@dataclass(frozen=True)
class RandomStream:
    """Value-type handle on a counter-based random stream.

    Parameters
    ----------
    seed : int
        64-bit experiment seed.  Shared by all streams of one run.
    stream_index : int
        Substream selector.  Streams with distinct indices use distinct
        Philox keys and are independent by construction.
    """

    seed: int
    stream_index: int = 0

    def generator(self) -> np.random.Generator:
        """Fresh generator positioned at the start of this stream."""
        key = (self.seed & _MASK64) | ((self.stream_index & _MASK64) << 64)
        return np.random.Generator(np.random.Philox(key=key))

    def substream(self, index: int) -> "RandomStream":
        """Derive a child stream; children of distinct indices differ."""
        child = _mix64((self.stream_index + (index + 1) * _GOLDEN) & _MASK64)
        return RandomStream(self.seed, child)


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float, copy=True)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class CovarianceModel:
    """Validated covariance with its inverse and whitening factor.

    Attributes
    ----------
    dimension : int
    sigma : ndarray, shape (d, d)
        The covariance matrix.
    sigma_inv : ndarray, shape (d, d)
        Its inverse, assembled from the whitener.
    whitener : ndarray, shape (d, d)
        Lower-triangular ``L`` with ``L.T @ L = sigma_inv``; the squared
        whitened norm ``|L x|^2`` equals ``x.T @ sigma_inv @ x``.
    chol_lower : ndarray, shape (d, d)
        Cholesky factor ``C`` with ``C @ C.T = sigma``; used for sampling.
    """

    dimension: int
    sigma: np.ndarray
    sigma_inv: np.ndarray
    whitener: np.ndarray
    chol_lower: np.ndarray

    def quad_inv(self, x: np.ndarray) -> float:
        """Quadratic form ``x.T @ sigma_inv @ x``."""
        x = np.asarray(x, dtype=float)
        u = self.whitener @ x
        return float(u @ u)


def build_covariance(sigma) -> CovarianceModel:
    """Validate a covariance matrix and precompute its factorizations.

    Raises
    ------
    NotSymmetric
        If ``|sigma - sigma.T|`` exceeds ``1e-12 * max|sigma|`` anywhere.
    NotPositiveDefinite
        If the Cholesky factorization fails or any pivot is <= 1e-12.
    """
    s = np.asarray(sigma, dtype=float)
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise DimensionMismatch(f"covariance must be square, got shape {s.shape}")
    scale = np.abs(s).max()
    if scale == 0.0:
        raise NotPositiveDefinite("covariance is identically zero")
    if np.abs(s - s.T).max() > SYMMETRY_RTOL * scale:
        raise NotSymmetric("covariance is not symmetric within tolerance")
    s = 0.5 * (s + s.T)
    try:
        chol = np.linalg.cholesky(s)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(f"covariance is not positive definite: {exc}") from None
    pivots = np.diag(chol) ** 2
    if np.any(pivots <= PIVOT_FLOOR):
        raise NotPositiveDefinite(
            f"covariance has a Cholesky pivot <= {PIVOT_FLOOR:g} (min {pivots.min():.3e})"
        )
    d = s.shape[0]
    # The LU solve behind inv can leave rounding above the diagonal when it
    # pivots; tril keeps C^-1 triangular.  Column-major, the layout a LAPACK
    # triangular solve returns, so products with it keep the rounding the
    # recorded artifacts carry.
    whitener = np.asfortranarray(np.tril(np.linalg.inv(chol)))
    sigma_inv = whitener.T @ whitener
    sigma_inv = 0.5 * (sigma_inv + sigma_inv.T)
    return CovarianceModel(
        dimension=d,
        sigma=_readonly(s),
        sigma_inv=_readonly(sigma_inv),
        whitener=_readonly(whitener),
        chol_lower=_readonly(chol),
    )


@dataclass(frozen=True)
class GaussianModel:
    """Multivariate Gaussian given by mean vector and covariance."""

    mean: np.ndarray
    covariance: CovarianceModel

    def __post_init__(self):
        mean = _readonly(np.atleast_1d(self.mean))
        if mean.ndim != 1:
            raise DimensionMismatch("mean must be a vector")
        if mean.shape[0] != self.covariance.dimension:
            raise DimensionMismatch(
                f"mean has dimension {mean.shape[0]}, covariance {self.covariance.dimension}"
            )
        object.__setattr__(self, "mean", mean)

    @property
    def dimension(self) -> int:
        return self.covariance.dimension


@dataclass(frozen=True)
class GaussianMixture:
    """Finite Gaussian mixture with weights summing to one.

    Components share an ambient dimension; weights must be nonnegative
    and sum to 1 within 1e-12.
    """

    weights: np.ndarray
    components: tuple

    def __post_init__(self):
        w = _readonly(np.atleast_1d(self.weights))
        comps = tuple(self.components)
        if len(comps) == 0:
            raise ValueError("mixture needs at least one component")
        if w.shape != (len(comps),):
            raise DimensionMismatch("one weight per component required")
        if np.any(w < 0.0):
            raise ValueError("mixture weights must be nonnegative")
        if abs(float(w.sum()) - 1.0) > 1e-12:
            raise ValueError(f"mixture weights sum to {w.sum()!r}, expected 1")
        d = comps[0].dimension
        for c in comps:
            if c.dimension != d:
                raise DimensionMismatch("mixture components disagree on dimension")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "components", comps)

    @property
    def dimension(self) -> int:
        return self.components[0].dimension


def sample_gaussian(
    model: GaussianModel, stream: RandomStream, out: np.ndarray, z: np.ndarray
) -> np.ndarray:
    """Draw ``len(out)`` vectors from the model into ``out``, shape ``(count, d)``.

    The draw is ``mean + C z`` with ``C`` the Cholesky factor of the
    covariance and ``z`` standard normal, so the whitened residual
    ``L (x - mean)`` is standard normal again.  ``z`` is a C-contiguous
    scratch array shaped like ``out``.
    """
    stream.generator().standard_normal(out=z)
    np.matmul(z, model.covariance.chol_lower.T, out=out)
    out += model.mean
    return out


def sample_mixture(
    mixture: GaussianMixture,
    stream: RandomStream,
    out: np.ndarray,
    z: np.ndarray,
    y: np.ndarray,
    masks: np.ndarray,
) -> np.ndarray:
    """Draw ``len(out)`` vectors from the mixture into ``out``, shape ``(count, d)``.

    Component selection uses inverse-CDF lookup on a dedicated
    substream, and the Gaussian noise comes from a second substream.
    The selection draws therefore stay aligned with sample indices even
    when weights change, keeping runs comparable across configurations.

    ``z`` and ``y`` are C-contiguous scratch arrays shaped like ``out``,
    ``masks`` a boolean ``(components - 1, *out.shape)`` scratch array.
    The selection uniforms are drawn into ``y``'s storage and become one
    mask per component after the first (``edges[j-1] <= u < edges[j]``,
    the inverse-CDF pick).  ``out`` then takes the first component's
    transform of every row, and ``y`` each later picked component's,
    which ``out`` takes where its mask is set.
    """
    count = len(out)
    u = y.reshape(-1)[:count]
    stream.substream(0).generator().random(out=u)
    # masks[j] is first u >= edges[j], then the picks of component j + 1.
    edges = np.cumsum(mixture.weights)
    for mask, edge in zip(masks, edges):
        np.greater_equal(u[:, None], edge, out=mask)
    for j in range(len(masks) - 1):
        masks[j] ^= masks[j + 1]
    stream.substream(1).generator().standard_normal(out=z)
    first, *rest = mixture.components
    np.matmul(z, first.covariance.chol_lower.T, out=out)
    out += first.mean
    for comp, mask in zip(rest, masks):
        if mask.any():
            np.matmul(z, comp.covariance.chol_lower.T, out=y)
            y += comp.mean
            np.copyto(out, y, where=mask)
    return out
