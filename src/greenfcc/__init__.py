"""FCC lattice Green function by binomial-expansion series.

Evaluates G(t, l, m, n; gamma), the lattice Green function of the
(anisotropic) face-centered-cubic structure function
gamma*cos x cos y + cos y cos z + cos z cos x, for t on or above the
spectral band edge 2+gamma.  Two independent series arrangements and a
quadrature of the defining integral (its z integral taken in closed
form, then a periodic trapezoid rule, a tanh-sinh product rule next
to the band edge) cross-validate each other; Wynn and Aitken
sequence transforms extend usable accuracy to the band edge itself.
"""

# numpy first: imported from inside a submodule it leaves a heap that glibc
# trims and regrows around quadrature calls (1.0-8.4 minor page faults per
# operation on the benchmark's quadrature_oracle pool, by the checkout path;
# 0.0 in this order, counted by scripts/heap_faults.py). The series pools
# read 0.0 in either order.
import numpy  # noqa: F401

from .acceleration import (
    PartialSumSequence,
    aitken_delta2,
    wynn_epsilon_with_estimate,
)
from .basic_integrals import j_integral
from .errors import DomainError
from .green_series import (
    HARD_ORDER_CAP,
    convergence_rows,
    evaluate_series5,
    evaluate_series6,
    moment_coefficient,
)
from .params import GreenParams, SeriesEvaluation
from .quadrature import QuadratureSpec, green_by_quadrature

__version__ = "0.1.0"

__all__ = [
    "DomainError",
    "GreenParams",
    "HARD_ORDER_CAP",
    "PartialSumSequence",
    "QuadratureSpec",
    "SeriesEvaluation",
    "aitken_delta2",
    "convergence_rows",
    "evaluate_series5",
    "evaluate_series6",
    "green_by_quadrature",
    "j_integral",
    "moment_coefficient",
    "wynn_epsilon_with_estimate",
    "__version__",
]
