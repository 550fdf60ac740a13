"""Exception and warning types raised across the package."""


class GFlowError(Exception):
    """Base class for all errors raised by gflowlab."""


class ConeViolation(GFlowError, ValueError):
    """A curvature vector lies outside the admissible cone of the speed."""


class DomainViolation(GFlowError, ValueError):
    """An argument lies outside the domain of the implicit inverse."""


class ConeExit(GFlowError, RuntimeError):
    """A solver state left the ellipticity cone during integration."""


class ToleranceFailure(GFlowError, RuntimeError):
    """An adaptive solver stopped before the end of its interval."""


class BarrierViolation(GFlowError, RuntimeError):
    """A profile crossed a sub- or supersolution inside its validity range."""


class NonConvergence(GFlowError, RuntimeError):
    """An iterative construction failed its Cauchy test."""


class Pinch(GFlowError, RuntimeError):
    """The radius dropped below the configured floor during a flow run."""


class StabilityViolation(GFlowError, RuntimeError):
    """A time step violates the CFL-type constraint of the explicit scheme,
    or makes the linearly implicit step matrix singular."""


class InsufficientTail(GFlowError, RuntimeError):
    """The z-window is too small for a stable tail fit."""


class QuadratureFailure(GFlowError, RuntimeError):
    """Quadrature-based orthogonality checks exceeded tolerance."""


class WindowTooShort(GFlowError, ValueError):
    """A time range is too short for the requested fit."""


class WindowTooNarrow(GFlowError, ValueError):
    """A fit window does not span the required range."""


class TruncationWarning(UserWarning):
    """Spectral tail energy exceeds the configured fraction of the total."""
