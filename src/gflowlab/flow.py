"""Time stepping for rotationally symmetric graph flows.

Two scalar 1D reductions are evolved on uniform grids:

* radial   r_t   = -gamma(-r_zz/(1+r_z^2), 1/r, ..., 1/r)
* rescaled v_tau = -gamma(-v_zz/(1+v_z^2), 1/v, ..., 1/v) + (v - z v_z)/2

The rescaled form is the graph reduction of motion with normal velocity
-(G - <x, nu>/2); its stationary points are the cylinder v = sqrt(2 F(0,1))
and the shrinker caps, which the test suite uses as regressions.  Schemes:
explicit Heun with a CFL guard (default) and the linearly implicit
Rosenbrock method ROS2, second order in time with no CFL limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.integrate import quad
from scipy.interpolate import PchipInterpolator
from scipy.special import erf

from . import _accel
from .errors import (ConeExit, DomainViolation, InsufficientTail, Pinch,
                     StabilityViolation)
from .speeds import SpeedFunction
from .solitons import BowlProfile

REPRESENTATIONS = ("radial", "rescaled", "vertical")
_BC_CODES = {"dirichlet": 0, "frozen": 1, "extrapolate": 2}


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
        if z.size != v.size or z.size < 5:
            raise ValueError("grid and values must match and hold >= 5 nodes")
        dz = np.diff(z)
        if not np.allclose(dz, dz[0], rtol=1e-12, atol=1e-12):
            raise ValueError("grid must be uniform")
        if self.representation in ("radial", "rescaled") and np.any(v <= 0):
            raise ValueError("radius values must be positive")
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "values", v)

    @property
    def dz(self) -> float:
        return float(self.z[1] - self.z[0])


@dataclass
class BoundaryCondition:
    """Boundary handling for a run: Dirichlet callables, frozen, or
    one-sided quadratic extrapolation from the interior.

    Dirichlet callables take an array of times and return the boundary
    values at those times (a scalar broadcasts to all of them)."""

    mode: str = "frozen"
    left: Callable[[np.ndarray], np.ndarray] | None = None
    right: Callable[[np.ndarray], np.ndarray] | None = None

    @classmethod
    def dirichlet(cls, left: Callable[[np.ndarray], np.ndarray],
                  right: Callable[[np.ndarray], np.ndarray]):
        return cls(mode="dirichlet", left=left, right=right)

    @classmethod
    def from_reference(cls, ref: Callable[[np.ndarray, np.ndarray],
                                          np.ndarray],
                       z_left: float, z_right: float):
        return cls(mode="dirichlet", left=lambda t: ref(z_left, t),
                   right=lambda t: ref(z_right, t))

    def tables(self, z, t0, dt, nsteps):
        """(left, right) boundary values at t0 + dt * (0, ..., nsteps), one
        callback call per side."""
        times = t0 + dt * np.arange(nsteps + 1)
        bl = np.zeros(nsteps + 1)
        br = np.zeros(nsteps + 1)
        if self.mode == "dirichlet":
            bl = bl + self.left(times)
            br = br + self.right(times)
        return bl, br


@dataclass
class FlowHistory:
    """Recorded run: times and snapshots, plus the grid and run metadata."""

    representation: str
    z: np.ndarray
    times: np.ndarray
    snapshots: np.ndarray
    speed: SpeedFunction
    dt: float
    scheme: str
    meta: dict = field(default_factory=dict)

    @property
    def final_state(self) -> RadialFlowState:
        return RadialFlowState(self.representation, self.z,
                               self.snapshots[-1], float(self.times[-1]),
                               self.speed)

    def sup_deviation(self, level: float, window: float | None = None):
        """sup_{|z| <= window} |values - level| per recorded time."""
        sel = np.ones(self.z.size, dtype=bool)
        if window is not None:
            sel = np.abs(self.z) <= window
        return np.max(np.abs(self.snapshots[:, sel] - level), axis=1)


def _mode_code(representation):
    if representation == "radial":
        return 0
    if representation == "rescaled":
        return 1
    raise ValueError("stepping is defined for radial and rescaled graphs; "
                     "convert vertical graphs first")


def _raise_for_status(status, nsteps_done, dt):
    if status == _accel.STATUS_CONE:
        raise ConeExit(f"ellipticity lost at step {nsteps_done}")
    if status == _accel.STATUS_PINCH:
        raise Pinch(f"radius hit the floor at t = {nsteps_done * dt:.6g}")
    if status == _accel.STATUS_CFL:
        raise StabilityViolation(
            "dt violates the CFL constraint safety*dz^2/(2 max dF/dx)")
    if status == _accel.STATUS_SOLVER:
        raise StabilityViolation(
            f"singular linearly implicit step matrix at step {nsteps_done}; "
            "reduce dt")


def run_flow(state: RadialFlowState, dt: float, nsteps: int,
             bc: BoundaryCondition | None = None,
             scheme: str = "rk2",
             record_every: int | None = None,
             cfl_safety: float = 0.4,
             r_floor: float = 1e-6) -> FlowHistory:
    """Advance a radial/rescaled state by ``nsteps`` steps of size ``dt``.

    ``scheme="rk2"`` is Heun's method (second order in time) under a CFL
    guard; it steps both representations with any boundary mode.
    ``scheme="semi_implicit"`` is the linearly implicit Rosenbrock method
    ROS2 (second order in time, L-stable, no CFL limit); it steps both
    representations with Dirichlet or frozen boundaries and raises
    ValueError for ``extrapolate``.  Snapshots are recorded every
    ``record_every`` steps (default: ~200 records per run).  Raises
    ConeExit / Pinch / StabilityViolation as the corresponding invariant
    fails.
    """
    bc = bc or BoundaryCondition()
    mode = _mode_code(state.representation)
    m = state.values.size
    if record_every is None:
        record_every = max(1, nsteps // 200)
    nrec_max = 2 + nsteps // record_every
    rec = np.empty((nrec_max, m))
    rec_t = np.empty(nrec_max)
    bl, br = bc.tables(state.z, state.t, dt, nsteps)
    p0, p1, p2 = state.speed.params
    cfl_limit = cfl_safety * state.dz ** 2 / 2.0 * (1.0 + 1e-9)

    if scheme == "rk2":
        status, nrec, ndone = _accel.flow_run(
            state.speed.code, p0, p1, p2, state.speed.cone_factor, mode,
            state.values, state.z, state.dz, float(dt), int(nsteps),
            _BC_CODES[bc.mode], bl, br, float(r_floor), float(cfl_limit),
            int(record_every), rec, rec_t)
    elif scheme == "semi_implicit":
        if bc.mode not in ("dirichlet", "frozen"):
            raise ValueError("semi-implicit stepping takes dirichlet or "
                             f"frozen boundaries, not {bc.mode!r}")
        status, nrec, ndone = _accel.radial_semi_implicit_run(
            state.speed.code, p0, p1, p2, state.speed.cone_factor,
            state.values, state.z, state.dz, float(dt), int(nsteps),
            _BC_CODES[bc.mode], bl, br, float(r_floor),
            int(record_every), rec, rec_t, mode)
    else:
        raise ValueError(f"unknown scheme {scheme!r}")
    _raise_for_status(status, ndone, dt)
    return FlowHistory(representation=state.representation, z=state.z,
                       times=state.t + rec_t[:nrec].copy(),
                       snapshots=rec[:nrec].copy(), speed=state.speed,
                       dt=dt, scheme=scheme,
                       meta={"bc": bc.mode, "cfl_safety": cfl_safety,
                             "r_floor": r_floor, "nsteps": nsteps})


def step_radial(state: RadialFlowState, dt: float,
                bc: BoundaryCondition | None = None,
                scheme: str = "rk2", **kw) -> RadialFlowState:
    """One time step of the radial flow r_t = -gamma(-r_zz/(1+r_z^2), 1/r, ...)."""
    if state.representation != "radial":
        raise ValueError("state must be in the radial representation")
    hist = run_flow(state, dt, 1, bc=bc, scheme=scheme, record_every=1, **kw)
    return hist.final_state


def step_rescaled(state: RadialFlowState, dt: float,
                  bc: BoundaryCondition | None = None, **kw) -> RadialFlowState:
    """One time step of the rescaled flow v_tau = -gamma(...) + (v - z v_z)/2."""
    if state.representation != "rescaled":
        raise ValueError("state must be in the rescaled representation")
    hist = run_flow(state, dt, 1, bc=bc, scheme="rk2", record_every=1, **kw)
    return hist.final_state


def rescaled_rhs(state: RadialFlowState) -> np.ndarray:
    """Interior discrete residual of the rescaled flow at a state (v_tau)."""
    p0, p1, p2 = state.speed.params
    ok, rhs, _ = _accel.graph_rhs(state.speed.code, p0, p1, p2,
                                  state.speed.cone_factor,
                                  _mode_code(state.representation),
                                  state.values, state.z, state.dz)
    if not ok:
        raise ConeExit("state lies outside the admissible cone")
    return np.asarray(rhs)


def step_plan(speed: SpeedFunction, delta: float, t_end: float,
              safety: float = 0.4) -> tuple[float, int]:
    """(dt, nsteps) of an explicit run over [0, t_end] on grid spacing delta.

    dt0 = safety delta^2 / (2 max(F_x(0,1), 1)), nsteps = ceil(t_end / dt0)
    and dt = t_end / nsteps.  Takes the nominal spacing rather than a
    state's dz, which linspace may round by an ulp.
    """
    fx = np.max(np.asarray(speed.Fx(0.0, 1.0)))
    dt0 = safety * delta ** 2 / (2.0 * max(fx, 1.0))
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


def translating_bowl_reference(bowl: BowlProfile, tip_speed: float = 0.5):
    """Radial graph r(z, t) of the bowl translating vertically.

    The tip sits at height 0 at t = 0, so r(z, t) = zeta^{-1}(z - tip_speed*t);
    z and t broadcast against each other.
    """
    inverse = bowl.radius_of_height()

    def ref(z, t):
        return inverse(np.asarray(z, dtype=float)
                       - tip_speed * np.asarray(t, dtype=float))

    return ref


def state_from_reference(speed, ref, z_lo, z_hi, delta,
                         representation="radial", t=0.0):
    n = int(round((z_hi - z_lo) / delta)) + 1
    z = np.linspace(z_lo, z_lo + delta * (n - 1), n)
    return RadialFlowState(representation, z, ref(z, t), t, speed)


def vertical_to_radial(state: RadialFlowState, z_lo: float, z_hi: float,
                       delta: float) -> RadialFlowState:
    """Convert a vertical graph f(r) to the radius function r(z).

    The height function must be strictly monotone over its grid (stepping
    is defined for the radial and rescaled representations only, so
    vertical data is converted first).
    """
    if state.representation != "vertical":
        raise ValueError("state must be a vertical graph")
    f = state.values
    if not (np.all(np.diff(f) > 0) or np.all(np.diff(f) < 0)):
        raise ValueError("height function must be strictly monotone")
    r_grid, f_vals = state.z, f
    if f_vals[0] > f_vals[-1]:
        r_grid, f_vals = r_grid[::-1], f_vals[::-1]
    if not (f_vals[0] <= z_lo and z_hi <= f_vals[-1]):
        raise ValueError("requested z window not covered by the graph")
    n = int(round((z_hi - z_lo) / delta)) + 1
    z = np.linspace(z_lo, z_lo + delta * (n - 1), n)
    r = PchipInterpolator(f_vals, r_grid)(z)
    return RadialFlowState("radial", z, r, state.t, state.speed)


# -- diagnostics ------------------------------------------------------------

def level_set_positions(history: FlowHistory, level: float) -> np.ndarray:
    """z-position of the radius level set in each recorded snapshot."""
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
        out[i] = PchipInterpolator(v, zz)(level)
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


@dataclass
class TipDiagnostics:
    """Neck-side diagnostics of a radial run.

    When a tip speed is supplied, first_derivative_bound carries
    4 (F(0,1) + C0 eps0) / G with the run's spread standing in for the
    neck-quality term C0 eps0, and bound_ok flags r r_z staying below it.
    """

    rr_z_tail: float
    rr_z_spread: float
    window: tuple
    G_est: float | None
    extinction: np.ndarray | None
    extinction_bound_min: float | None
    first_derivative_bound: float | None = None
    bound_ok: bool | None = None


def tip_neck_diagnostics(history: FlowHistory,
                         window: tuple | None = None,
                         g_tip: float | None = None,
                         shrinking: bool = False) -> TipDiagnostics:
    """Estimate lim_{z->inf} r r_z by tail averaging, and (for shrinking
    data) extinction-time estimates T(z) with the lower-bound check
    2 F(0,1)(T(z) - t) <= r(z,t)^2.
    """
    z = history.z
    dz = float(z[1] - z[0])
    if window is None:
        window = (z[0] + 0.25 * (z[-1] - z[0]), z[-1])
    sel = (z[1:-1] >= window[0]) & (z[1:-1] <= window[1])
    if np.count_nonzero(sel) < 8:
        raise InsufficientTail("fewer than 8 interior nodes in the window")
    half = max(1, history.snapshots.shape[0] // 2)
    snaps = history.snapshots[-half:]
    rz, _ = _accel.central_differences(snaps, dz)
    vals = (snaps[:, 1:-1] * rz)[:, sel]
    est = float(np.mean(vals))
    spread = float(np.max(vals) - np.min(vals))
    if spread > max(0.5 * abs(est), 1e-4 * (1.0 + abs(est))):
        raise InsufficientTail("tail fit unstable over the window")

    extinction = None
    bound_min = None
    if shrinking:
        f01 = history.speed.F01
        last = history.snapshots[-1]
        t_last = history.times[-1]
        extinction = t_last + last ** 2 / (2.0 * f01)
        margins = []
        for t, snap in zip(history.times, history.snapshots):
            margins.append(np.min(snap ** 2 - 2.0 * f01 * (extinction - t)))
        bound_min = float(np.min(margins))
    fd_bound = None
    bound_ok = None
    if g_tip is not None:
        eps0 = spread / max(abs(est), 1e-300)
        fd_bound = 4.0 * history.speed.F01 * (1.0 + eps0) / g_tip
        bound_ok = bool(np.max(vals) <= fd_bound)
    return TipDiagnostics(rr_z_tail=est, rr_z_spread=spread, window=window,
                          G_est=g_tip, extinction=extinction,
                          extinction_bound_min=bound_min,
                          first_derivative_bound=fd_bound, bound_ok=bound_ok)


def linearize_rescaled_at_cylinder(speed: SpeedFunction, delta: float,
                                   window: float, n_dirs: int = 20,
                                   eps: float = 1e-6,
                                   seed: int = 12345) -> dict:
    """Directional-derivative check of the rescaled operator at the cylinder.

    Compares (N(sigma + eps u) - N(sigma - eps u)) / (2 eps) against the
    drift-diffusion operator L u = a u_zz - z u_z / 2 + u with
    a = dgamma^1(0,1,...,1), both discretized with the same central
    differences.  Expected deviation O(eps) + O(delta^2).
    """
    sigma = cylinder_radius(speed)
    a = speed.a_lin
    n = int(round(2 * window / delta)) + 1
    z = -window + delta * np.arange(n)
    rng = np.random.default_rng(seed)
    p0, p1, p2 = speed.params
    dev = []
    for _ in range(n_dirs):
        c = rng.normal(size=6)
        width = rng.uniform(2.0, 6.0)
        u = np.zeros_like(z)
        for j, cj in enumerate(c):
            u += cj * (z / width) ** j
        u *= np.exp(-(z / width) ** 2)
        u /= np.max(np.abs(u))

        def nonlinear(vals):
            ok, rhs, _ = _accel.graph_rhs(speed.code, p0, p1, p2,
                                          speed.cone_factor, 1, vals, z,
                                          delta)
            if not ok:
                raise ConeExit("perturbed state left the cone")
            return np.asarray(rhs)

        d_num = (nonlinear(sigma + eps * u) - nonlinear(sigma - eps * u)) / (2 * eps)
        uz, uzz = _accel.central_differences(u, delta)
        lu = a * uzz - 0.5 * z[1:-1] * uz + u[1:-1]
        scale = max(1.0, float(np.max(np.abs(lu))))
        dev.append(float(np.max(np.abs(d_num - lu)) / scale))
    return {"max_deviation": max(dev), "deviations": dev, "a_lin": a,
            "delta": delta, "eps": eps}


# -- heat-kernel barrier ----------------------------------------------------

def heat_barrier_psi(z, t):
    """Closed form of (4 pi t)^{-1/2} int_0^inf (e^{-(z-y)^2/4t} - e^{-(z+y)^2/4t}) dy.

    Equals erf(z / (2 sqrt(t))); solves psi_t = psi_zz with psi_zz < 0 for
    z, t > 0, tends to 0 as z->0 or t->inf and to 1 as z->inf or t->0.
    """
    z_arr = np.asarray(z, dtype=float)
    t_arr = np.asarray(t, dtype=float)
    if np.any(z_arr <= 0) or np.any(t_arr <= 0):
        raise DomainViolation("heat barrier requires z > 0 and t > 0")
    out = erf(z_arr / (2.0 * np.sqrt(t_arr)))
    if np.ndim(z) == 0 and np.ndim(t) == 0:
        return float(out)
    return out


def heat_barrier_psi_quadrature(z: float, t: float) -> float:
    """Adaptive quadrature of the defining integral (independent oracle)."""
    if z <= 0 or t <= 0:
        raise DomainViolation("heat barrier requires z > 0 and t > 0")
    s = 2.0 * math.sqrt(t)

    def integrand(y):
        return math.exp(-((z - y) / s) ** 2) - math.exp(-((z + y) / s) ** 2)

    upper = z + 25.0 * s
    val, _ = quad(integrand, 0.0, upper, limit=400,
                  points=[z] if z < upper else None)
    return val / math.sqrt(4.0 * math.pi * t)


def heat_barrier_residual(z, t, h_rel: float = 2e-4):
    """Finite-difference residual of psi_t - psi_zz at sample points.

    Steps scale with the point (derivatives of the kernel grow like inverse
    powers of t near t = 0)."""
    z = np.asarray(z, dtype=float)
    t = np.asarray(t, dtype=float)
    hz = h_rel * np.minimum(z, 1.0 + 0.0 * z)
    ht = h_rel * np.minimum(t, 1.0 + 0.0 * t)
    psi_t = (heat_barrier_psi(z, t + ht) - heat_barrier_psi(z, t - ht)) / (2 * ht)
    psi_zz = (heat_barrier_psi(z + hz, t) - 2 * heat_barrier_psi(z, t)
              + heat_barrier_psi(z - hz, t)) / hz ** 2
    return psi_t - psi_zz
