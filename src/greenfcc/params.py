"""Evaluation-point and result records."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError


@dataclass(frozen=True)
class GreenParams:
    """A Green-function evaluation point.

    ``t`` is the spectral parameter, ``gamma`` the anisotropy weight of
    the cos(x)cos(y) bond, and (l, m, n) the lattice site.  The structure
    function gamma*cx*cy + cy*cz + cz*cx only reaches sites with even
    l+m+n, so odd parity is rejected outright.  t and gamma must be
    positive and finite; the rest of the t domain depends on the
    evaluation method and is checked there (the spectral band edge sits
    at t = 2 + gamma).
    """

    t: float
    gamma: float = 1.0
    l: int = 0
    m: int = 0
    n: int = 0

    def __post_init__(self) -> None:
        for name in ("l", "m", "n"):
            value = getattr(self, name)
            if not isinstance(value, (int,)) or isinstance(value, bool):
                raise DomainError(f"lattice index {name} must be an integer")
            if value < 0:
                raise DomainError(f"lattice index {name} must be non-negative")
        if (self.l + self.m + self.n) % 2:
            raise DomainError("l+m+n must be even")
        if not self.gamma > 0.0:
            raise DomainError("gamma must be positive")
        if not math.isfinite(self.gamma):
            raise DomainError("gamma must be finite")
        if not self.t > 0.0:
            raise DomainError("t must be positive")
        if not math.isfinite(self.t):
            raise DomainError("t must be finite")

    @property
    def band_edge(self) -> float:
        """Largest value of the structure function, 2 + gamma."""
        return 2.0 + self.gamma


@dataclass(frozen=True)
class SeriesEvaluation:
    """Outcome of one evaluation, shared by series and quadrature paths.

    ``terms_used`` counts summed outer terms for the series methods and
    total quadrature nodes for the integration oracle.  ``converged``
    always implies ``abs_error_estimate <= tol`` for the tolerance the
    evaluation was asked for.
    """

    value: float
    terms_used: int
    abs_error_estimate: float
    method: str
    accelerated: str = "none"
    converged: bool = False
