"""Exception types raised across the package.

Every contract failure gets a named class so callers (and the command
line front end) can map failures onto exit codes without string
matching.  Validation-style failures double as ValueError, iteration
failures as RuntimeError.
"""

from __future__ import annotations

__all__ = [
    "GaussMaxError",
    "NotSymmetric",
    "NotPositiveDefinite",
    "DimensionMismatch",
    "ConvergenceFailure",
    "EmptyInterior",
    "NotAtypical",
    "SingularPair",
    "MeanInsideSet",
    "ConfigError",
]


class GaussMaxError(Exception):
    """Base class for all package-specific failures."""


class NotSymmetric(GaussMaxError, ValueError):
    """Covariance input is not symmetric within tolerance."""


class NotPositiveDefinite(GaussMaxError, ValueError):
    """Covariance input has a nonpositive (or tiny) Cholesky pivot."""


class DimensionMismatch(GaussMaxError, ValueError):
    """Operands disagree on the ambient dimension."""


class ConvergenceFailure(GaussMaxError, RuntimeError):
    """An active-set least-squares solve failed: its SVD diverged or rounding made it cycle."""


class EmptyInterior(GaussMaxError, ValueError):
    """The target set is empty: no point meets every inequality."""


class NotAtypical(GaussMaxError, ValueError):
    """The set contains the origin, so the rare-event scaling is void."""


class SingularPair(GaussMaxError, ValueError):
    """No consecutive constraint-row pair is regular: fewer than two rows, or parallel ones."""


class MeanInsideSet(GaussMaxError, ValueError):
    """A mixture component mean lies inside the target set.

    Carries the 1-based index of the offending component.
    """

    def __init__(self, component: int, message: str | None = None):
        self.component = component
        if message is None:
            message = f"mixture mean inside set (component {component})"
        super().__init__(message)


class ConfigError(GaussMaxError, ValueError):
    """Experiment configuration failed parsing or validation."""
