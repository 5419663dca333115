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
``estimate`` the Monte Carlo and exact estimators, ``config`` the
experiment configuration, ``errors`` the exception types, and ``cli`` a
config-driven command line wrapper around all of it.  Every name in a
module's ``__all__`` can be imported as ``gaussmax.<name>``; ``cli`` is
not imported by ``import gaussmax``.
"""

__version__ = "0.1.0"

from .errors import *
from .model import *
from .sets import *
from .dominate import *
from .estimate import *
from .config import *

__all__ = [
    "__version__",
    *errors.__all__,
    *model.__all__,
    *sets.__all__,
    *dominate.__all__,
    *estimate.__all__,
    *config.__all__,
]
