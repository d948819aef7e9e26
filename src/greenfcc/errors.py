"""Exception types shared across the package."""


class DomainError(ValueError):
    """An evaluation point violates a documented domain invariant."""
