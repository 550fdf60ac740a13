"""Exception types raised across the package, and the check of positive
numeric inputs."""

import math


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


class QuadratureFailure(GFlowError, RuntimeError):
    """Quadrature-based orthogonality checks exceeded tolerance."""


class WindowTooShort(GFlowError, ValueError):
    """A time range is too short for the requested fit."""


class WindowTooNarrow(GFlowError, ValueError):
    """A fit window does not span the required range."""


def require_positive(name, value):
    """``value`` as a float, or ValueError naming ``name`` unless it is
    finite and positive."""
    value = float(value)
    if not (math.isfinite(value) and value > 0.0):
        raise ValueError(f"{name} must be finite and positive, got {value!r}")
    return value


def require_finite(name, value):
    """``value`` as a float, or ValueError naming ``name`` unless it is
    finite."""
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value
