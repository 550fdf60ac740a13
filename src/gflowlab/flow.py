"""Time stepping for rotationally symmetric graph flows.

Two scalar 1D reductions are evolved on uniform grids:

* radial   r_t   = -gamma(-r_zz/(1+r_z^2), 1/r, ..., 1/r)
* rescaled v_tau = -gamma(-v_zz/(1+v_z^2), 1/v, ..., 1/v) + (v - z v_z)/2

The rescaled form is the graph reduction of motion with normal velocity
-(G - <x, nu>/2); its stationary points are the cylinder v = sqrt(2 F(0,1))
and the shrinker caps, which the test suite uses as regressions.  Schemes:
explicit Heun with a CFL guard and the linearly implicit Rosenbrock method
ROS3P, third order in time with no CFL limit (the default of ``gflowlab
flow``, ``rescaled`` and ``spectral``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import _accel
from .errors import DomainViolation, require_positive
from .speeds import SpeedFunction

REPRESENTATIONS = ("radial", "rescaled")
BOUNDARY_MODES = ("dirichlet", "frozen")
# fewest grid nodes of a flow state
MIN_NODES = 5
# Heun's step as a fraction of its CFL limit delta^2 / (2 max F_x)
CFL_SAFETY = 0.4
# ROS3P steps per unit time of a translating-bowl run (`flow --preset
# bowl-translation` and criterion 7): at 4x as many, fitted at the same
# times, the speed of sum n=3, bh n=3 and sigma_ratio n=4 k=2 moves by
# < 3e-11, against its spatial error of ~1e-7 at delta = 0.05
TRANSLATION_STEPS_PER_UNIT = 40


def uniform_grid(z_lo: float, z_hi: float, delta: float) -> np.ndarray:
    """The n = round((z_hi - z_lo)/delta) + 1 nodes z_lo + delta k of a flow
    state: the spacing is delta and the last node lies within delta/2 of
    z_hi.  A delta that is not finite and positive, or that leaves fewer
    than ``MIN_NODES`` nodes, is a ValueError naming it."""
    delta = require_positive("delta", delta)
    span = z_hi - z_lo
    n = int(round(span / delta)) + 1
    if n < MIN_NODES:
        raise ValueError(f"delta = {delta:g} gives {n} grid nodes over a "
                         f"span of {span:g}; the flow needs >= {MIN_NODES}")
    return np.linspace(z_lo, z_lo + delta * (n - 1), n)


def cylinder_radius(speed: SpeedFunction) -> float:
    """Radius sigma = sqrt(2 gamma(0,1,...,1)) of the stationary cylinder."""
    return math.sqrt(2.0 * speed.F01)


@dataclass(frozen=True)
class RadialFlowState:
    """A graph snapshot: values over a uniform 1D grid at one time stamp."""

    representation: str
    z: np.ndarray
    values: np.ndarray
    t: float
    speed: SpeedFunction

    def __post_init__(self):
        if self.representation not in REPRESENTATIONS:
            raise ValueError(f"unknown representation {self.representation!r}")
        z = np.asarray(self.z, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if z.size != v.size or z.size < MIN_NODES:
            raise ValueError("grid and values must match and hold >= "
                             f"{MIN_NODES} nodes")
        dz = np.diff(z)
        if not np.allclose(dz, dz[0], rtol=1e-12, atol=1e-12):
            raise ValueError("grid must be uniform")
        if np.any(v <= 0):
            raise ValueError("radius values must be positive")
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "values", v)

    @property
    def dz(self) -> float:
        return float(self.z[1] - self.z[0])


@dataclass
class BoundaryCondition:
    """Boundary handling for a run: Dirichlet callables or frozen values.

    Dirichlet callables take an array of times and return the boundary
    values at those times (a scalar broadcasts to all of them)."""

    mode: str = "frozen"
    left: Callable[[np.ndarray], np.ndarray] | None = None
    right: Callable[[np.ndarray], np.ndarray] | None = None

    @classmethod
    def from_reference(cls, ref: Callable[[np.ndarray, np.ndarray],
                                          np.ndarray],
                       z_left: float, z_right: float):
        return cls(mode="dirichlet", left=lambda t: ref(z_left, t),
                   right=lambda t: ref(z_right, t))

    def tables(self, t0, dt, nsteps):
        """(left, right) boundary values at t0 + dt * (0, ..., nsteps), one
        callback call per side.  An unknown mode, or a Dirichlet side without
        its callable, is a ValueError."""
        if self.mode not in BOUNDARY_MODES:
            raise ValueError(f"unknown boundary mode {self.mode!r}; choose "
                             f"from {BOUNDARY_MODES}")
        for side in ("left", "right"):
            if self.mode == "dirichlet" and getattr(self, side) is None:
                raise ValueError(f"dirichlet boundary has no {side} callable")
        times = t0 + dt * np.arange(nsteps + 1)
        bl = np.zeros(nsteps + 1)
        br = np.zeros(nsteps + 1)
        if self.mode == "dirichlet":
            bl = bl + self.left(times)
            br = br + self.right(times)
        return bl, br


@dataclass
class FlowHistory:
    """Recorded run: times and snapshots, plus the grid, the speed and the
    scheme that stepped it."""

    representation: str
    z: np.ndarray
    times: np.ndarray
    snapshots: np.ndarray
    speed: SpeedFunction
    scheme: str

    @property
    def final_state(self) -> RadialFlowState:
        return RadialFlowState(self.representation, self.z,
                               self.snapshots[-1], float(self.times[-1]),
                               self.speed)

    def sup_deviation(self, level: float, window: float):
        """sup_{|z| <= window} |values - level| per recorded time; a
        ValueError naming the window when it holds no grid node."""
        sel = np.abs(self.z) <= window
        if not np.any(sel):
            raise ValueError(f"window |z| <= {window:g} holds no grid node")
        return np.max(np.abs(self.snapshots[:, sel] - level), axis=1)


def run_flow(state: RadialFlowState, dt: float, nsteps: int,
             bc: BoundaryCondition | None = None, *,
             scheme: str,
             record_every: int | None = None,
             r_floor: float = 1e-6) -> FlowHistory:
    """Advance a radial/rescaled state by ``nsteps`` steps of size ``dt``.

    ``scheme="rk2"`` is Heun's method (second order in time) under the CFL
    guard dt max(F_x) <= ``CFL_SAFETY`` dz^2 / 2.  ``scheme="semi_implicit"``
    is the linearly implicit Rosenbrock method ROS3P (third order in time,
    no CFL limit).  Both step either representation with Dirichlet or
    frozen boundaries; another boundary mode or scheme is a ValueError.
    Snapshots are recorded every ``record_every`` steps (default: every
    ceil(nsteps/50)-th, so at most 50 after the initial state) and after
    the last.  A ``dt`` that is not finite and positive, or an ``nsteps``
    that is not an int >= 1, is a ValueError.  The kernels raise ConeExit
    (a state leaves the admissible cone), Pinch (the radius reaches
    ``r_floor``) or StabilityViolation (Heun's CFL limit, a singular ROS3P
    step matrix) at the failing step.
    """
    dt = require_positive("dt", dt)
    if not isinstance(nsteps, (int, np.integer)) or nsteps < 1:
        raise ValueError(f"nsteps must be an int >= 1, got {nsteps!r}")
    bc = bc or BoundaryCondition()
    mode = REPRESENTATIONS.index(state.representation)
    if record_every is None:
        record_every = max(1, -(-nsteps // 50))
    if record_every < 1:
        raise ValueError(f"record_every must be >= 1, got {record_every}")
    bl, br = bc.tables(state.t, dt, nsteps)
    p0, p1, p2 = state.speed.params
    cfl_limit = CFL_SAFETY * state.dz ** 2 / 2.0 * (1.0 + 1e-9)

    if scheme == "rk2":
        times, snapshots, _ = _accel.flow_run(
            state.speed.kind, p0, p1, p2, state.speed.cone_factor, mode,
            state.values, state.z, state.dz, float(dt), int(nsteps),
            bc.mode, bl, br, float(r_floor), float(cfl_limit),
            int(record_every))
    elif scheme == "semi_implicit":
        times, snapshots, _ = _accel.radial_semi_implicit_run(
            state.speed.kind, p0, p1, p2, state.speed.cone_factor,
            state.values, state.z, state.dz, float(dt), int(nsteps),
            bc.mode, bl, br, float(r_floor),
            int(record_every), mode)
    else:
        raise ValueError(f"unknown scheme {scheme!r}")
    return FlowHistory(representation=state.representation, z=state.z,
                       times=state.t + times, snapshots=snapshots,
                       speed=state.speed, scheme=scheme)


def step_plan(speed: SpeedFunction, delta: float,
              t_end: float) -> tuple[float, int]:
    """(dt, nsteps) of a Heun run over [0, t_end] on grid spacing delta.

    dt0 = CFL_SAFETY delta^2 / (2 max(F_x(0,1), 1)),
    nsteps = ceil(t_end / dt0) and dt = t_end / nsteps.  Takes the nominal
    spacing rather than a state's dz, which linspace may round by an ulp.
    delta and t_end must be finite and positive.
    """
    delta = require_positive("delta", delta)
    t_end = require_positive("t_end", t_end)
    dt0 = CFL_SAFETY * delta ** 2 / (2.0 * max(speed.a_lin, 1.0))
    nsteps = int(math.ceil(t_end / dt0))
    return t_end / nsteps, nsteps


# -- reference solutions ----------------------------------------------------

def shrinking_cylinder_reference(speed: SpeedFunction, r0: float):
    """Exact shrinking cylinder r(t) = sqrt(r0^2 - 2 F(0,1) t); z and t
    broadcast against each other."""
    f01 = speed.F01

    def ref(z, t):
        r = np.sqrt(r0 ** 2 - 2.0 * f01 * np.asarray(t, dtype=float))
        return np.broadcast_to(r, np.broadcast_shapes(np.shape(z),
                                                      r.shape)).copy()

    return ref


def translating_bowl_reference(bowl):
    """Radial graph r(z, t) of the bowl translating vertically at its
    soliton speed 1/2, the speed the ``solitons.BowlProfile`` ``bowl``
    moves at.

    The tip sits at height 0 at t = 0, so r(z, t) = zeta^{-1}(z - t/2);
    z and t broadcast against each other.
    """
    inverse = bowl.radius_of_height()

    def ref(z, t):
        return inverse(np.asarray(z, dtype=float)
                       - 0.5 * np.asarray(t, dtype=float))

    return ref


def state_from_reference(speed, ref, z_lo, z_hi, delta):
    """The radial state ref(z, 0) at t = 0 on ``uniform_grid(z_lo, z_hi,
    delta)``."""
    z = uniform_grid(z_lo, z_hi, delta)
    return RadialFlowState("radial", z, ref(z, 0.0), 0.0, speed)


# -- diagnostics ------------------------------------------------------------

def level_set_positions(history: FlowHistory, level: float) -> np.ndarray:
    """z-position of the radius level set in each recorded snapshot.

    Each position is the PCHIP z(v) through the whole snapshot at ``level``,
    bit for bit, but read off the nodes k-1..k+2 around the interval k that
    crosses the level (clamped to the snapshot's ends).  A PCHIP slope at a
    node depends only on the secants of its two adjacent intervals
    (Fritsch & Carlson, SIAM J. Numer. Anal. 17, 1980), and the end slope
    only on the first (or last) two, so those nodes give the cubic on
    interval k exactly.  Each whole snapshot is still checked as
    ``_accel.pchip`` checks it, and raises its ValueError.
    """
    out = np.empty(history.times.size)
    for i, snap in enumerate(history.snapshots):
        v = snap
        if v[0] > v[-1]:
            v = v[::-1]
            zz = history.z[::-1]
        else:
            zz = history.z
        if not (v.min() < level < v.max()):
            raise DomainViolation("level outside the snapshot range")
        _accel.pchip_steps(v, zz)
        k = int(np.searchsorted(v, level, "right")) - 1
        window = slice(max(k - 1, 0), k + 3)
        out[i] = _accel.pchip(v[window], zz[window], level)
    return out


def line_fit(x, y):
    """Least-squares line y ~ slope x + intercept.

    Returns (slope, intercept, rms of the residuals).
    """
    A = np.vstack([x, np.ones_like(x, dtype=float)]).T
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    rms = np.sqrt(np.mean((y - A @ coef) ** 2))
    return float(coef[0]), float(coef[1]), float(rms)


def translation_speed(history: FlowHistory, level: float) -> dict:
    """Least-squares drift rate of a fixed radius level set."""
    speed, intercept, rms = line_fit(history.times,
                                     level_set_positions(history, level))
    return {"speed": speed, "intercept": intercept, "rms": rms}
