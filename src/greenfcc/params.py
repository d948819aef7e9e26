"""Evaluation-point and result records."""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass

from .errors import DomainError


def _whole(value, name: str, error: type[ValueError] = ValueError) -> int:
    """``value`` as an int by operator.index; a bool, or what it refuses, raises ``error``."""
    if isinstance(value, bool) or not hasattr(type(value), "__index__"):
        raise error(f"{name} must be an integer; got {value!r}")
    return operator.index(value)


def _real(value, name: str, error: type[ValueError] = ValueError) -> float:
    """``value`` as a Python float if it is a real number and not a bool; otherwise ``error``.

    A value past the double range, as the int 10**400, becomes an infinity
    of its sign, which the caller's finiteness check refuses.
    """
    if isinstance(value, bool) or not isinstance(value, (float, numbers.Real)):  # float skips the ABC check
        raise error(f"{name} must be a real number; got {value!r}")
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


@dataclass(frozen=True)
class GreenParams:
    """A Green-function evaluation point.

    ``t`` is the spectral parameter, ``gamma`` the anisotropy weight of
    the cos(x)cos(y) bond, and (l, m, n) the lattice site.  The structure
    function gamma*cx*cy + cy*cz + cz*cx only reaches sites with even
    l+m+n, so odd parity is rejected outright.  l, m, n pass the integer
    check of the series orders and are stored as ints; t and gamma must
    be real, not bool, positive and finite as a double, and are stored
    as Python floats, so a float32 or Fraction input computes in
    doubles.  The rest of the t domain depends on the evaluation method
    (the band edge is t = 2 + gamma).
    """

    t: float
    gamma: float = 1.0
    l: int = 0
    m: int = 0
    n: int = 0

    def __post_init__(self) -> None:
        for name in ("l", "m", "n"):
            value = _whole(getattr(self, name), f"lattice index {name}", DomainError)
            if value < 0:
                raise DomainError(f"lattice index {name} must be non-negative")
            object.__setattr__(self, name, value)
        if (self.l + self.m + self.n) % 2:
            raise DomainError("l+m+n must be even")
        for name in ("gamma", "t"):
            value = _real(getattr(self, name), name, DomainError)
            if not value > 0.0:
                raise DomainError(f"{name} must be positive")
            if not math.isfinite(value):
                raise DomainError(f"{name} must be finite")
            object.__setattr__(self, name, value)

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
