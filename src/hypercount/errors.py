"""Exception types shared across the package."""


class ContractViolation(ValueError):
    """An argument violates a documented precondition (wrong length,
    mismatched dimension, non-reduced tuple, ...)."""


class ResourceLimit(RuntimeError):
    """The requested parameters exceed the supported enumeration budget."""
