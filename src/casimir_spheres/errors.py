"""Exception types raised by the numerical machinery."""


class CasimirError(Exception):
    """Base class for all package-specific errors."""


class NonConvergenceError(CasimirError):
    """An adaptive sum, quadrature or truncation failed to converge."""


class SpectralRadiusError(CasimirError):
    """det(I - N) <= 0 was detected, i.e. the round-trip operator is unphysical."""


class BracketingFailureError(CasimirError):
    """A root/feature bracket with the required sign pattern could not be found."""


class GridTooCoarseError(CasimirError):
    """The sampling grid cannot resolve the sign structure unambiguously."""


class StepUnderflowError(CasimirError):
    """A finite-difference step fell below the supported floor."""
