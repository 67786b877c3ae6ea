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


class GapBoundError(QuantLabError):
    """Spectral gap fell below the asserted curvature bound."""


class DegenerateToeplitzError(QuantLabError):
    """Polar decomposition of a Toeplitz generator is singular."""


class IndexViolationError(QuantLabError):
    """Numerical kernel dimension disagrees with the index formula."""


class ContinuityError(QuantLabError, ValueError):
    """Adjacent values of a norm profile jump by more than the threshold."""


class ConfigError(QuantLabError):
    """Run configuration failed validation."""
