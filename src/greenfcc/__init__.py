"""FCC lattice Green function by binomial-expansion series.

Evaluates G(t, l, m, n; gamma), the lattice Green function of the
(anisotropic) face-centered-cubic structure function
gamma*cos x cos y + cos y cos z + cos z cos x, for t on or above the
spectral band edge 2+gamma.  Two independent series arrangements and a
Gauss-Legendre quadrature of the defining integral (its z integral
taken in closed form) cross-validate each other; Wynn and Aitken
sequence transforms extend usable accuracy to the band edge itself.
"""

from .acceleration import (
    PartialSumSequence,
    aitken_delta2,
    wynn_epsilon,
    wynn_epsilon_with_estimate,
)
from .basic_integrals import (
    IntegralTable,
    cosine_power_integral,
    cosine_product_integral,
    j_integral,
    shared_table,
)
from .combinatorics import (
    HARD_ORDER_CAP,
    binomial_general,
    binomial_integer,
    binomial_table,
    summation_limit,
)
from .errors import DegenerateDifference, DomainError
from .green_series import (
    convergence_rows,
    evaluate_series5,
    evaluate_series6,
    moment_coefficient,
    outer_term_series5,
)
from .params import GreenParams, SeriesEvaluation
from .quadrature import QuadratureSpec, green_by_quadrature

__version__ = "0.1.0"

__all__ = [
    "DegenerateDifference",
    "DomainError",
    "GreenParams",
    "HARD_ORDER_CAP",
    "IntegralTable",
    "PartialSumSequence",
    "QuadratureSpec",
    "SeriesEvaluation",
    "aitken_delta2",
    "binomial_general",
    "binomial_integer",
    "binomial_table",
    "convergence_rows",
    "cosine_power_integral",
    "cosine_product_integral",
    "evaluate_series5",
    "evaluate_series6",
    "green_by_quadrature",
    "j_integral",
    "moment_coefficient",
    "outer_term_series5",
    "shared_table",
    "summation_limit",
    "wynn_epsilon",
    "wynn_epsilon_with_estimate",
    "__version__",
]
