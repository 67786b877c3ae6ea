"""Exception types shared across the package."""


class QuantLabError(Exception):
    """Base class for all quantlab errors."""


class ExactnessError(QuantLabError):
    """A one-form that was required to be closed/exact is not."""


class CocycleConsistencyError(QuantLabError):
    """The phase-function combination failed to be constant on the plane."""


class ResolutionError(QuantLabError):
    """Grid too coarse to resolve the lowest magnetic band."""


class ConvergenceError(QuantLabError):
    """An iterative solver stopped before its residual reached the tolerance."""


class DegenerateToeplitzError(QuantLabError):
    """A Toeplitz generator is singular, or the group commutator of its polar parts is not scalar."""


class ConfigError(QuantLabError):
    """Run configuration failed validation."""
