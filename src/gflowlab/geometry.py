"""Exact differential geometry of rotationally symmetric normal graphs over
a round cylinder, used to validate the near-cylinder expansions of the
second fundamental form, the speed G, and the gamma-trace.

For a height function u(z) over the cylinder of radius r the graph is the
surface of revolution with radius R(z) = r + u(z); its principal curvatures
(outward normal) are

    kappa_rot   = 1 / (R sqrt(1 + R_z^2)),
    kappa_axial = -R_zz / (1 + R_z^2)^{3/2}.

The expansions are the principal-frame ones: the curvature pair expands as
(0, 1/r) + (-u_zz, -u/r^2) + quadratic error, and G expands as
G_Sigma - dgamma^1(0,1,...,1) u_zz - gamma(0,1,...,1) u / r^2 + quadratic
error.  (The frame-uncorrected coordinate expansion carries the opposite
sign on the u A^2 term; the principal-frame form is the one the exact
curvatures satisfy.)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConeViolation
from .speeds import SpeedFunction


@dataclass
class CylinderGraph:
    """A rotationally symmetric normal graph u(z) over R x S^{n-1}(r)."""

    radius: float
    z: np.ndarray
    u: np.ndarray
    u_z: np.ndarray
    u_zz: np.ndarray

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError("cylinder radius must be positive")

    @classmethod
    def from_callable(cls, radius: float, z: np.ndarray, fn: Callable,
                      dfn: Callable, d2fn: Callable) -> "CylinderGraph":
        """Build from a height function u and its derivatives u_z, u_zz,
        each evaluated at the heights z."""
        z = np.asarray(z, dtype=float)
        return cls(radius, z, np.asarray(fn(z), dtype=float),
                   np.asarray(dfn(z), dtype=float),
                   np.asarray(d2fn(z), dtype=float))

    def _first_order(self) -> np.ndarray:
        r = self.radius
        return np.abs(self.u) / r + np.abs(self.u_z) + r * np.abs(self.u_zz)

    @property
    def smallness(self) -> float:
        """sup(|u|/r + |u_z| + r |u_zz|), the expansion's small parameter."""
        return float(np.max(self._first_order()))

    def exact_curvatures(self):
        """(kappa_axial, kappa_rot) of the surface of revolution."""
        R = self.radius + self.u
        one = 1.0 + self.u_z ** 2
        kax = -self.u_zz / one ** 1.5
        krot = 1.0 / (R * np.sqrt(one))
        return kax, krot

    def _require_small(self):
        if self.smallness > 0.1:
            raise ValueError(
                f"graph smallness {self.smallness:.3g} exceeds the 0.1 "
                "validity threshold of the expansions")


@dataclass
class ExpansionReport:
    """Sup-norm expansion error with its quadratic-smallness ratio."""

    sup_error: float
    ratio: float


def _report(err, denom) -> ExpansionReport:
    sup_err = float(np.max(err))
    sup_den = float(np.max(denom))
    return ExpansionReport(sup_error=sup_err,
                           ratio=sup_err / sup_den if sup_den > 0 else 0.0)


def _quadratic(graph: CylinderGraph) -> np.ndarray:
    """u^2/r^3 + u_z^2/r + r u_zz^2, the quadratic-smallness scale."""
    r = graph.radius
    return graph.u ** 2 / r ** 3 + graph.u_z ** 2 / r + r * graph.u_zz ** 2


def expansion_error_G(graph: CylinderGraph,
                      speed: SpeedFunction) -> ExpansionReport:
    """Error of G ~ G_Sigma - dgamma^1(0,1,..,1) u_zz - gamma(0,1,..,1) u/r^2."""
    graph._require_small()
    r = graph.radius
    kax, krot = graph.exact_curvatures()
    if np.any(kax + speed.cone_factor * krot <= 0):
        raise ConeViolation("graph curvatures leave the admissible cone")
    g_exact = np.asarray(speed.F(kax, krot))
    g_sigma = speed.F01 / r
    expansion = (g_sigma - speed.a_lin * graph.u_zz
                 - speed.F01 * graph.u / r ** 2)
    return _report(np.abs(g_exact - expansion), _quadratic(graph))


def trace_gamma(graph: CylinderGraph, speed: SpeedFunction,
                s_axial: np.ndarray, s_rot: np.ndarray) -> np.ndarray:
    """Directional derivative d/dt|_0 gamma(A + t S) in the principal frame.

    S is given by its principal-frame components (one axial, n-1 equal
    rotational); the derivative is the analytic gradient contraction
    dgamma^1 s_axial + sum_{i>=2} dgamma^i s_rot, evaluated at the exact
    graph curvatures; ``speed.gradient`` raises ConeViolation naming the
    first curvature vector outside the speed's cone.
    """
    kax, krot = graph.exact_curvatures()
    grad = speed.gradient(np.column_stack([kax] + [krot] * (speed.n - 1)))
    return grad[:, 0] * s_axial + np.sum(grad[:, 1:], axis=1) * s_rot


def trace_gamma_expansion_error(graph: CylinderGraph, speed: SpeedFunction,
                                s_axial, s_rot) -> ExpansionReport:
    """Error of trace_gamma against the cylinder-frame contraction
    dgamma^{ij}(A_Sigma) S_ij; first-order small in the graph."""
    graph._require_small()
    s_axial, s_rot = np.asarray(s_axial, float), np.asarray(s_rot, float)
    exact = trace_gamma(graph, speed, s_axial, s_rot)
    grad0 = speed.gradient(np.r_[0.0, np.ones(speed.n - 1)])
    approx = grad0[0] * s_axial + np.sum(grad0[1:]) * s_rot
    s_norm = np.sqrt(s_axial ** 2 + (speed.n - 1) * s_rot ** 2)
    return _report(np.abs(exact - approx), graph._first_order() * s_norm)
