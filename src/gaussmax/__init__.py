"""Dominating points and decay rates for scaled Gaussian maxima on convex sets.

The package answers three related questions about a centered Gaussian
(or Gaussian-mixture) sample of growing size n, rescaled by
``A_n = sqrt(2 log n) A``:

* where does the componentwise maximum most likely enter a closed
  convex target set (the dominating point),
* at what exponential rate in ``2 log n`` does that probability decay,
* and do simulations reproduce the predicted rate.

``model`` holds distributions and reproducible sampling, ``sets`` the
target shapes, ``dominate`` the solver and the rates it implies,
``estimate`` the Monte Carlo and exact estimators, and ``cli`` a
config-driven command line wrapper around all of it.
"""

__version__ = "0.1.0"

from .errors import (
    ConfigError,
    ConvergenceFailure,
    DimensionMismatch,
    EmptyInterior,
    GaussMaxError,
    MeanInsideSet,
    NotAtypical,
    NotPositiveDefinite,
    NotSymmetric,
    SingularPair,
)
from .model import (
    CovarianceModel,
    GaussianMixture,
    GaussianModel,
    RandomStream,
    build_covariance,
    gaussian_log_density,
    sample_gaussian,
    sample_mixture,
)
from .sets import Block, ConvexSet, Ellipsoid, Halfspace, Polyhedron
from .dominate import (
    ComponentSolution,
    DominatingPoint,
    LadderEntry,
    MixtureRate,
    ScalingLadder,
    ScalingLimit,
    corner_pairwise,
    dominating_point,
    rate_mixture,
    verify_optimality,
)
from .estimate import (
    EstimateReport,
    Method,
    SlopeFit,
    conspiracy_rate,
    exact_block_diagonal_log,
    exact_block_reports,
    exact_single_log,
    is_single,
    mc_crude,
    plan_rung,
    slope_fit,
    union_combine,
    union_combined_report,
)
from .config import ExperimentConfig, load_config, parse_config, serialize_config

__all__ = [
    "__version__",
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
    "RandomStream",
    "CovarianceModel",
    "GaussianModel",
    "GaussianMixture",
    "build_covariance",
    "sample_gaussian",
    "sample_mixture",
    "gaussian_log_density",
    "ConvexSet",
    "Block",
    "Halfspace",
    "Polyhedron",
    "Ellipsoid",
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
    "Method",
    "EstimateReport",
    "SlopeFit",
    "plan_rung",
    "mc_crude",
    "is_single",
    "union_combine",
    "union_combined_report",
    "exact_block_diagonal_log",
    "exact_block_reports",
    "exact_single_log",
    "slope_fit",
    "conspiracy_rate",
    "ExperimentConfig",
    "parse_config",
    "serialize_config",
    "load_config",
]
