"""Exception types raised when a physical or algebraic constraint is violated."""

__all__ = [
    "NotHermitianError", "NotIsometricError", "NotNormalizedError",
    "NotPhysicalError", "NotPossibleError", "NotPositiveOptimalError",
]


class NotHermitianError(ValueError):
    """Operator expected to be Hermitian is not, beyond tolerance."""


class NotIsometricError(ValueError):
    """Gram matrix does not satisfy the isometry conditions."""


class NotNormalizedError(ValueError):
    """State amplitudes or coefficient vector are not unit norm."""


class NotPhysicalError(ValueError):
    """Gram matrix fails positivity or the isometry conditions."""


class NotPossibleError(ValueError):
    """Requested ellipsoid semi-axes lie outside the attainable set."""


class NotPositiveOptimalError(ValueError):
    """Operation requires a positive optimal pair and the input is not one."""
