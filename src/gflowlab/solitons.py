"""Rotationally symmetric soliton profiles: the translating bowl and the
self-shrinking caps.

Both profiles solve

    psi'' = (1 + psi'^2) f(psi'/rho, 1/2 + (rho psi' - psi) / (2 a^2)),

with 1/a^2 = 0 for the bowl (profile zeta) and a > 0 for the shrinker
family.  Both start from the two-term tip series psi = rho^2/(4 F(1,1)),
psi' = rho/(2 F(1,1)), which matches the regular solution to second order:
the shrinker's z-term (rho psi' - psi)/(2 a^2) vanishes at the tip.  A
shrinker cap is solved twice, from two starting radii at two tolerances, and
accepted once the two solutions pass a Cauchy test in sup norm.  The
existence proof's subsolution w = theta rho^2/(4 F(1,1)) is kept as a
barrier check on both solutions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from scipy.interpolate import CubicHermiteSpline
# not called in this module: a module attribute for perfbench/tracer.py,
# which counts scalar inversions under this name
from scipy.optimize import brentq  # noqa: F401

from . import _accel
from .errors import (BarrierViolation, ConeExit, NonConvergence,
                     ToleranceFailure)
from .speeds import SpeedFunction


def estimate_c_lower(speed: SpeedFunction) -> float:
    """Positive lower bound c = inf_{t>=0} df/dz(1, t + F(0,1)).

    By homogeneity the infimum equals 1 / sup_{t>=0} dgamma^1(t, 1, ..., 1),
    a quantity over a compact segment of the cone; it is estimated on a
    dense logarithmic ladder.
    """
    t = np.concatenate(([0.0], np.logspace(-6.0, 8.0, 1500)))
    fx = np.asarray(speed.Fx(t, 1.0))
    return float(1.0 / fx.max())


def neck_constants(speed: SpeedFunction) -> dict:
    """The (K, L0, c) constants controlling the neck window of a shrinker."""
    c = estimate_c_lower(speed)
    K = max(1.0, 6.0 * speed.F01, 17.0 / c)
    return {"c": c, "K": K, "L0": math.sqrt(K) + 1.0}


def lambda_ceiling(speed: SpeedFunction) -> float:
    """A priori upper bound for the curvature ratio Lambda = f(1, B).

    Finite even when Q < inf: with 2 eps0 = 1 - F(0,1)/Q the bound is
    max{f(1, F(0,1)/(1-eps0)), f(1, F(1/eps0, 1))}.
    """
    if math.isinf(speed.Q):
        eps0 = 0.5
    else:
        eps0 = 0.5 * (1.0 - speed.F01 / speed.Q)
    b1 = speed.F01 / (1.0 - eps0)
    b2 = float(speed.F(1.0 / eps0, 1.0))
    return float(max(speed.f_closed(1.0, b1), speed.f_closed(1.0, b2)))


@dataclass
class EllipticityMonitor:
    """Pointwise record of Lambda = rho psi''/(psi'(1+psi'^2)) and of
    B = (rho/psi')(1/2 + (rho psi' - psi)/(2 a^2)), with Lambda = f(1, B)."""

    Lambda: np.ndarray
    B: np.ndarray
    identity_gap: float
    ceiling: float
    bounded: bool

    @classmethod
    def from_profile(cls, speed, rho, psi, psi_rho, psi_rhorho, inv_a2):
        if rho[0] == 0.0:  # skip the exact tip node (0/0 in both ratios)
            rho, psi = rho[1:], psi[1:]
            psi_rho, psi_rhorho = psi_rho[1:], psi_rhorho[1:]
        lam = rho * psi_rhorho / (psi_rho * (1.0 + psi_rho ** 2))
        b = (rho / psi_rho) * (0.5 + 0.5 * inv_a2 * (rho * psi_rho - psi))
        gap = float(np.max(np.abs(lam - speed.f_closed(1.0, b))))
        ceiling = lambda_ceiling(speed)
        bound = max(ceiling, lam[0]) * (1.0 + 1e-9) + 1e-12
        return cls(Lambda=lam, B=b, identity_gap=gap, ceiling=ceiling,
                   bounded=bool(np.max(lam) <= bound))


def _integrate(speed, inv_a2, rho0, psi0, psip0, rho_end, psi_stop,
               rtol, atol, h_rho_cap, h_z_cap):
    p0, p1, p2 = speed.params
    status, _, samples, rho_reached, message = _accel.integrate_profile(
        speed.code, p0, p1, p2, speed.F01,
        speed.Q if math.isfinite(speed.Q) else np.inf, inv_a2,
        float(rho0), float(psi0), float(psip0), float(rho_end),
        float(psi_stop), float(rtol), float(atol),
        float(h_rho_cap), float(h_z_cap))
    if status == _accel.STATUS_CONE:
        raise ConeExit(
            f"profile left the inversion cone near rho = {rho_reached:.6g}")
    if status == _accel.STATUS_SOLVER:
        raise ToleranceFailure(
            f"profile solver stopped at rho = {rho_reached:.6g} "
            f"of {rho_end:.6g}: {message}")
    return samples


def _simpson_residuals(speed, inv_a2, rho, psi, psip, psipp, rtol, atol):
    """Per-interval defect of psi' against Simpson quadrature of the RHS.

    Independent of the solver: uses only the stored samples, cubic Hermite
    mid-states, and the ODE right-hand side.  The defect is normalized by
    the profile's tolerance promise
    atol + rtol (1 + |psi'|), so values of order one mean the stored
    profile satisfies the ODE to within the configured tolerance (a wrong
    right-hand side inflates this by many orders of magnitude).
    """
    h = np.diff(rho)
    rm = rho[:-1] + 0.5 * h
    # cubic Hermite mid-interval values of psi and psi'
    pm = 0.5 * (psi[:-1] + psi[1:]) + 0.125 * h * (psip[:-1] - psip[1:])
    ppm = 1.5 * (psi[1:] - psi[:-1]) / h - 0.25 * (psip[:-1] + psip[1:])
    yarg = ppm / rm
    zarg = 0.5 + 0.5 * inv_a2 * (rm * ppm - pm)
    gm = (1.0 + ppm ** 2) * np.asarray(speed.f_closed(yarg, zarg))
    defect = psip[1:] - psip[:-1] - (h / 6.0) * (psipp[:-1] + 4.0 * gm + psipp[1:])
    promise = atol + rtol * (1.0 + np.abs(psip[:-1]))
    return np.abs(defect) / promise


@dataclass
class BowlProfile:
    """Solved profile zeta of the bowl soliton translating at speed 1/2."""

    speed: SpeedFunction
    rho: np.ndarray
    zeta: np.ndarray
    zeta_rho: np.ndarray
    zeta_rhorho: np.ndarray
    tol: float
    tip_curvature: float
    monitor: EllipticityMonitor
    _interp: dict = field(default_factory=dict, repr=False)

    def _hermite(self, name, values, derivs):
        if name not in self._interp:
            self._interp[name] = CubicHermiteSpline(self.rho, values, derivs)
        return self._interp[name]

    def zeta_at(self, r):
        return self._hermite("zeta", self.zeta, self.zeta_rho)(r)

    def zeta_rho_at(self, r):
        return self._hermite("zeta_rho", self.zeta_rho, self.zeta_rhorho)(r)

    def radius_of_height(self):
        """Monotone inverse rho(zeta), for building radial graphs r(z).

        Inverts the Hermite spline of zeta at all requested heights in one
        vectorized pass (``_monotone_inverse``), so the inverse inherits
        the spline's accuracy; the result has the shape of the heights."""
        spline = self._hermite("zeta", self.zeta, self.zeta_rho)

        def inverse(zvals):
            zvals = np.asarray(zvals, dtype=float)
            return _monotone_inverse(spline, self.rho, self.zeta,
                                     zvals.ravel()).reshape(zvals.shape)

        return inverse

    def gradient_ratio_bounds(self):
        ratio = self.zeta_rho[1:] / self.rho[1:]
        return float(ratio.min()), float(ratio.max())

    def residual_norms(self):
        return _simpson_residuals(self.speed, 0.0, self.rho, self.zeta,
                                  self.zeta_rho, self.zeta_rhorho,
                                  rtol=self.tol, atol=self.tol * 1e-2)


def _tip_curvature(rho, psip, psipp, at=0.01):
    """Richardson estimate of psi''(0) = lim psi'(rho)/rho from two stations."""
    interp = CubicHermiteSpline(rho, psip, psipp)
    ra, rb = at, 2.0 * at
    ma = float(interp(ra)) / ra
    mb = float(interp(rb)) / rb
    return (ma * rb ** 2 - mb * ra ** 2) / (rb ** 2 - ra ** 2)


def solve_bowl(speed: SpeedFunction, rho_max: float, tol: float = 1e-10,
               rho_start: float = 1e-4) -> BowlProfile:
    """Integrate the bowl ODE zeta'' = (1+zeta'^2) f(zeta'/rho, 1/2).

    The equation is singular at rho = 0 (the inverse argument is 0/0), so
    integration starts at ``rho_start`` from the two-term tip series
    zeta = rho^2/(4 F(1,1)), zeta' = rho/(2 F(1,1)), whose curvature matches
    the regular solution at the tip.

    The solver runs internally at (1e-3 tol, 1e-5 tol) relative/absolute,
    with the relative part floored at 100 machine epsilons (~2.2e-14), the
    smallest value scipy accepts without substituting its own.  Samples of
    its dense output form the profile; ``residual_norms`` measures them in
    units of tol.  The rounding of zeta sets a floor on that measure which
    grows like rho^2 (about 2 at rho = 1000 for bh n = 3).
    """
    if rho_max <= rho_start:
        raise ValueError("rho_max must exceed the regularized start")
    f11 = speed.F11
    psi0 = rho_start ** 2 / (4.0 * f11)
    psip0 = rho_start / (2.0 * f11)
    rho, zeta, zeta_rho, zeta_rr = _integrate(
        speed, 0.0, rho_start, psi0, psip0, rho_max, np.inf,
        rtol=tol, atol=tol * 1e-2, h_rho_cap=0.05, h_z_cap=0.0)
    monitor = EllipticityMonitor.from_profile(speed, rho, zeta, zeta_rho,
                                              zeta_rr, 0.0)
    # stations inside the solved range: below rho_start the spline would
    # extrapolate its first interval, which the solver may make tiny
    tip = _tip_curvature(rho, zeta_rho, zeta_rr,
                         at=max(min(0.01, 0.003 * rho_max), rho_start))
    # exact tip node: zeta(0) = zeta_rho(0) = 0, zeta_rr(0) -> measured limit
    rho = np.concatenate([[0.0], rho])
    zeta = np.concatenate([[0.0], zeta])
    zeta_rho = np.concatenate([[0.0], zeta_rho])
    zeta_rr = np.concatenate([[tip], zeta_rr])
    return BowlProfile(speed=speed, rho=rho, zeta=zeta, zeta_rho=zeta_rho,
                       zeta_rhorho=zeta_rr, tol=tol, tip_curvature=tip,
                       monitor=monitor)


@dataclass
class ShrinkerProfile:
    """Solved self-shrinker cap profile for parameter a.

    Carries both the rho-side data (psi, psi') and the z-representation
    v(z) on a uniform grid in [z_min, a], obtained by monotone inversion of
    h(r) = a - psi(a r)/a.  The tip (z = a, v = 0) is appended explicitly;
    v_z is -inf there and w carries its extrapolated limit.
    """

    speed: SpeedFunction
    a: float
    theta: float
    Theta: float
    tol: float
    rtol: float
    rho: np.ndarray
    psi: np.ndarray
    psi_rho: np.ndarray
    psi_rhorho: np.ndarray
    z: np.ndarray
    v: np.ndarray
    v_z: np.ndarray
    w: np.ndarray
    rho_of_z: np.ndarray
    L0: float
    K: float
    c_lower: float
    monitor: EllipticityMonitor
    cauchy_gap: float
    inversion_error: float
    tip_curvature: float
    w_tip: float
    M_knob: float
    z_Ma: float | None
    w_bar_holds: bool | None
    _interp: dict = field(default_factory=dict, repr=False)

    def psi_at(self, r):
        if "psi" not in self._interp:
            self._interp["psi"] = CubicHermiteSpline(self.rho, self.psi,
                                                     self.psi_rho)
        return self._interp["psi"](r)

    def psi_rho_at(self, r):
        if "psi_rho" not in self._interp:
            self._interp["psi_rho"] = CubicHermiteSpline(
                self.rho, self.psi_rho, self.psi_rhorho)
        return self._interp["psi_rho"](r)

    def residual_norms(self):
        return _simpson_residuals(self.speed, 1.0 / self.a ** 2, self.rho,
                                  self.psi, self.psi_rho, self.psi_rhorho,
                                  rtol=self.rtol, atol=self.rtol * 1e-2)

    def w_bar(self, z):
        """Comparison barrier 2 + K (1/z^2 + 1/(a^2 - z^2))."""
        z = np.asarray(z, dtype=float)
        return 2.0 + self.K * (1.0 / z ** 2 + 1.0 / (self.a ** 2 - z ** 2))

    def lower_bound_margin(self):
        """Pointwise margin of v^2 over 2 F(0,1)(1 - z^2/a^2)."""
        rhs = 2.0 * self.speed.F01 * (1.0 - self.z ** 2 / self.a ** 2)
        return self.v ** 2 - rhs

    def v_interp(self):
        """Interpolant of v on [z_min, a) (tip node excluded)."""
        if "v" not in self._interp:
            self._interp["v"] = CubicHermiteSpline(self.z[:-1], self.v[:-1],
                                                   self.v_z[:-1])
        return self._interp["v"]


def _barrier_checks(speed, a, theta, Theta, rho, psi, psip):
    f11 = speed.F11
    slack = 1e-9 * (1.0 + np.abs(psi))
    w = theta * rho ** 2 / (4.0 * f11)
    wp = theta * rho / (2.0 * f11)
    if np.any(psi < w - slack) or np.any(psip < wp - slack):
        raise BarrierViolation("profile crossed below the subsolution "
                               f"w = {theta:.3g} rho^2 / (4 F(1,1))")
    if np.any(rho * psip - psi < -slack):
        raise BarrierViolation("rho psi' - psi became negative")
    valid = rho ** 2 < 2.0 * a ** 2 * (speed.F01 - f11 / Theta)
    W = Theta * rho ** 2 / (4.0 * f11)
    Wp = Theta * rho / (2.0 * f11)
    if (np.any(psi[valid] > W[valid] + slack[valid])
            or np.any(psip[valid] > Wp[valid] + slack[valid])):
        raise BarrierViolation("profile crossed above the supersolution "
                               f"W = {Theta:.3g} rho^2 / (4 F(1,1))")


def _monotone_inverse(spline, x, y, targets):
    """The x with spline(x) = target for every target, for a spline through
    the increasing nodes (x, y).

    One safeguarded Newton pass over all targets at once: each starts from
    linear interpolation in the node interval that brackets it, and a Newton
    step that leaves the (shrinking) bracket bisects it instead.  A target
    stops once its step is at most 1e-13 + 1e-15 |x|, brentq's xtol/rtol.
    Raises ValueError for a target outside [y[0], y[-1]].
    """
    targets = np.asarray(targets, dtype=float)
    outside = ~((targets >= y[0]) & (targets <= y[-1]))
    if np.any(outside):
        raise ValueError(
            f"inversion target {targets[outside][0]:.17g} lies outside the "
            f"profile's range [{y[0]:.17g}, {y[-1]:.17g}]")
    j = np.clip(np.searchsorted(y, targets), 1, x.size - 1)
    lo, hi = x[j - 1], x[j]
    root = lo + (targets - y[j - 1]) / (y[j] - y[j - 1]) * (hi - lo)
    todo = np.arange(targets.size)
    for _ in range(200):
        if not todo.size:
            break
        r, t = root[todo], targets[todo]
        f = spline(r) - t
        lo[todo] = np.where(f < 0.0, r, lo[todo])
        hi[todo] = np.where(f > 0.0, r, hi[todo])
        with np.errstate(divide="ignore", invalid="ignore"):
            new = r - f / spline(r, 1)
        # strict test, so an iterate converged onto a bracket end stays
        # there; NaN (a zero slope) bisects
        leave = ~((new >= lo[todo]) & (new <= hi[todo]))
        new[leave] = 0.5 * (lo[todo][leave] + hi[todo][leave])
        new[f == 0.0] = r[f == 0.0]
        root[todo] = new
        done = np.abs(new - r) <= 1e-13 + 1e-15 * np.abs(new)
        todo = todo[~done]
    if todo.size:
        raise NonConvergence(f"{todo.size} inversion targets did not converge")
    return root


def solve_shrinker(speed: SpeedFunction, a: float, theta: float = 0.9,
                   Theta: float | None = None,
                   tol: float = 1e-8,
                   z_min: float | None = None,
                   rho_max: float | None = None,
                   M: float = 50.0,
                   rtol: float | None = None) -> ShrinkerProfile:
    """Construct the self-shrinking cap profile for parameter ``a``.

    The ODE is singular at rho = 0, so it is integrated outward from the
    two-term tip series psi = rho^2/(4 F(1,1)), psi' = rho/(2 F(1,1)) until
    the height coordinate z = a - psi/a drops to ``z_min`` (default: the
    neck constant L0) or rho reaches ``rho_max``.  The series matches the
    regular solution to second order (the z-term (rho psi' - psi)/(2 a^2)
    vanishes at the tip), so its start error is far below the solver's.
    Two solves are made: a primary one from rho = 2^-8 at ``rtol`` and a
    check one from 2^-10 at ``rtol``/10.  The tighter check makes their
    gap, the Cauchy test against ``tol`` in sup norm, bound the primary
    solve's own error too; the check solve is returned.  Both must stay
    between the subsolution theta rho^2/(4 F(1,1)) and the supersolution
    Theta rho^2/(4 F(1,1)) of the existence proof.

    Each IVP is solved at (1e-3, 1e-5) times its relative tolerance, with
    ``rtol`` defaulting to 1e-2 tol; the internal relative tolerance is
    floored at 100 machine epsilons (~2.2e-14).  Tighter requests solve at
    the floor; a ``tol`` that this accuracy cannot meet fails the Cauchy
    test (NonConvergence).
    """
    F01, f11, Q = speed.F01, speed.F11, speed.Q
    lo = f11 / Q if math.isfinite(Q) else 0.0
    if not (lo < theta < 1.0):
        raise ValueError(f"theta must lie in (F(1,1)/Q, 1) = ({lo:.6g}, 1)")
    if Theta is None:
        Theta = 2.0 * f11 / F01
    if Theta <= f11 / F01:
        raise ValueError("Theta must exceed F(1,1)/F(0,1)")
    if a <= 0:
        raise ValueError("a must be positive")

    consts = neck_constants(speed)
    L0 = consts["L0"]
    if z_min is None:
        z_min = L0
    if z_min >= a:
        raise ValueError(f"z_min = {z_min:.4g} must be below the tip a = {a}")

    sigma2 = 2.0 * F01
    rho_ceiling = (1.0 - 1e-9) * math.sqrt(sigma2) * a
    if rho_max is None:
        rho_end = rho_ceiling
        psi_stop = a * (a - z_min)
    else:
        rho_end = min(rho_max, rho_ceiling)
        psi_stop = np.inf
    rtol = tol * 1e-2 if rtol is None else rtol
    dz_target = min(0.01 * a, 0.05)
    h_z_cap = dz_target * a

    inv_a2 = 1.0 / a ** 2
    rho_s = 2.0 ** -8
    solves = []
    for start, solve_rtol in ((rho_s, rtol), (0.25 * rho_s, 0.1 * rtol)):
        solve = _integrate(
            speed, inv_a2, start, start ** 2 / (4.0 * f11),
            start / (2.0 * f11), rho_end, psi_stop, rtol=solve_rtol,
            atol=solve_rtol * 1e-2, h_rho_cap=0.05, h_z_cap=h_z_cap)
        _barrier_checks(speed, a, theta, Theta, *solve[:3])
        solves.append(solve)
    (rho1, psi1, psip1, _), (rho, psi, psip, psipp) = solves
    psi_interp = CubicHermiteSpline(rho, psi, psip)
    cmp_grid = np.geomspace(rho_s, min(rho1[-1], rho[-1]) * (1.0 - 1e-3), 400)
    check = psi_interp(cmp_grid)
    primary = CubicHermiteSpline(rho1, psi1, psip1)(cmp_grid)
    gap = float(np.max(np.abs(check - primary) / (1.0 + np.abs(check))))
    if not gap < tol:
        raise NonConvergence(
            f"primary and check solves differ by {gap:.3g} >= tol = "
            f"{tol:.3g}")

    monitor = EllipticityMonitor.from_profile(speed, rho, psi, psip, psipp,
                                              inv_a2)
    # Richardson in the station kills the rho^2 variation of the true profile
    tip_curv = _tip_curvature(rho, psip, psipp, at=0.05)
    # the rho-side arrays start at the check solve's series start; the
    # z-side grid carries the exact tip node (z = a, v = 0) instead

    # z-representation on a uniform grid by monotone inversion of psi on
    # its Hermite spline, all grid nodes in one vectorized Newton pass
    z_lo = max(z_min, a - psi[-1] * (1.0 - 1e-12) / a)
    z_grid = np.arange(z_lo, a - 0.5 * dz_target, dz_target)
    psi_targets = np.minimum(a * (a - z_grid), psi[-1])
    rho_of_z = _monotone_inverse(psi_interp, rho, psi, psi_targets)
    inv_err = float(np.max(np.abs(psi_interp(rho_of_z) - psi_targets),
                           initial=0.0)) / a

    psip_interp = CubicHermiteSpline(rho, psip, psipp)
    psip_at = np.asarray(psip_interp(rho_of_z))
    psi_at = psi_targets
    v = rho_of_z / a
    v_z = -1.0 / psip_at
    w = (2.0 * rho_of_z * (1.0 - psi_at / a ** 2)
         / (psip_at * (sigma2 - rho_of_z ** 2 / a ** 2)))

    # w limit at the tip: quadratic-in-rho^2 extrapolation over [0.1, 1]
    mask = (rho >= 0.1) & (rho <= 1.0)
    rr, pp, ps = rho[mask], psip[mask], psi[mask]
    w_nodes = (2.0 * rr * (1.0 - ps / a ** 2)
               / (pp * (sigma2 - rr ** 2 / a ** 2)))
    coef = np.polynomial.polynomial.polyfit(rr ** 2, w_nodes, deg=2)
    w_tip = float(coef[0])

    # append the exact tip node
    z_full = np.concatenate([z_grid, [a]])
    v_full = np.concatenate([v, [0.0]])
    vz_full = np.concatenate([v_z, [-np.inf]])
    w_full = np.concatenate([w, [w_tip]])
    rho_full = np.concatenate([rho_of_z, [0.0]])

    # boundary behaviour of the w-barrier at z_{M,a}
    z_Ma = None
    holds = None
    if M < rho[-1]:
        z_Ma = float(a - psi_interp(M) / a)
        if z_Ma > math.sqrt(consts["K"]):
            wbar = 2.0 + consts["K"] * (1.0 / z_grid ** 2
                                        + 1.0 / (a ** 2 - z_grid ** 2))
            sel = (z_grid > math.sqrt(consts["K"])) & (z_grid < z_Ma)
            holds = bool(np.all(w[sel] <= wbar[sel] + 1e-9))

    return ShrinkerProfile(
        speed=speed, a=a, theta=theta, Theta=Theta, tol=tol, rtol=rtol,
        rho=rho, psi=psi, psi_rho=psip, psi_rhorho=psipp,
        z=z_full, v=v_full, v_z=vz_full, w=w_full, rho_of_z=rho_full,
        L0=L0, K=consts["K"], c_lower=consts["c"], monitor=monitor,
        cauchy_gap=gap, inversion_error=inv_err,
        tip_curvature=tip_curv, w_tip=w_tip, M_knob=M, z_Ma=z_Ma,
        w_bar_holds=holds)


@dataclass
class WDiagnostic:
    """Sampled neck quantity w(z) = -2 z v v_z / (2F(0,1) - v^2) with flags."""

    z: np.ndarray
    w: np.ndarray
    lower_ok: bool
    min_margin: float
    tip_limit: float
    tip_target: float
    upper_window: tuple | None
    upper_ok: bool | None
    K: float
    c: float


def shrinker_w_diagnostic(profile: ShrinkerProfile) -> WDiagnostic:
    """Evaluate the neck diagnostic of a solved shrinker.

    Flags w > 2 at every node, compares against the barrier
    w_bar = 2 + K(1/z^2 + 1/(a^2 - z^2)) on (sqrt(K), z_{M,a}), and reports
    the extrapolated tip limit against 2 F(1,1)/F(0,1).
    """
    z_int = profile.z[:-1]
    w_int = profile.w[:-1]
    margin = float(np.min(w_int - 2.0))
    upper_ok = profile.w_bar_holds
    window = None
    if profile.z_Ma is not None:
        window = (math.sqrt(profile.K), profile.z_Ma)
    target = 2.0 * profile.speed.F11 / profile.speed.F01
    return WDiagnostic(z=z_int, w=w_int, lower_ok=bool(margin > 0.0),
                       min_margin=margin, tip_limit=profile.w_tip,
                       tip_target=target, upper_window=window,
                       upper_ok=upper_ok, K=profile.K, c=profile.c_lower)


def shrinker_upper_bound_fit(profile: ShrinkerProfile, L: float) -> float:
    """Smallest C with v^2 <= 2F(0,1)(1 - (1 - C log a / a^2)(z^2 - C)/a^2)
    on [z_min, L]; found by bisection (the bound is monotone in C)."""
    a = profile.a
    f01 = profile.speed.F01
    sel = profile.z <= min(L, profile.z[-2])
    z = profile.z[sel]
    v2 = profile.v[sel] ** 2
    la = math.log(a) / a ** 2

    def ok(C):
        rhs = 2.0 * f01 * (1.0 - (1.0 - C * la) * (z ** 2 - C) / a ** 2)
        return bool(np.all(v2 <= rhs))

    hi = 1.0
    for _ in range(60):
        if ok(hi):
            break
        hi *= 2.0
    else:
        raise NonConvergence("no finite correction constant fits the bound")
    lo = 0.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if ok(mid):
            hi = mid
        else:
            lo = mid
    return hi


def shrinker_upper_bound_check(profiles, L: float) -> dict:
    """Fit the upper-bound correction constant across an a-sweep.

    The verified claim is boundedness: the report flags whether the fitted
    constants of the top three parameters stay within a factor of two.
    """
    if isinstance(profiles, ShrinkerProfile):
        profiles = [profiles]
    rows = []
    for p in sorted(profiles, key=lambda q: q.a):
        rows.append({"a": p.a, "C_fit": shrinker_upper_bound_fit(p, L)})
    top = [r["C_fit"] for r in rows[-3:]]
    stable = bool(max(top) <= 2.0 * min(top)) if len(top) >= 2 else True
    return {"L": L, "rows": rows, "stable": stable}


def shrinker_to_bowl_convergence(speed: SpeedFunction,
                                 a_list: Sequence[float], M: float,
                                 tol: float = 1e-8) -> list[dict]:
    """Sup-norm gaps sup_{rho<=M} |psi_a - zeta| (and derivative gaps) per a.

    The gap is expected to decrease in a: the shrinker's z-term
    (rho psi' - psi)/(2a^2) vanishes in the limit, recovering the bowl ODE.
    """
    a_list = sorted(a_list)
    if M >= min(a_list) * math.sqrt(2.0 * speed.F01):
        raise ValueError("M must fit inside every shrinker's rho-range")
    bowl = solve_bowl(speed, rho_max=1.3 * M, tol=tol)
    grid = np.geomspace(0.05, M, 400)
    zeta = bowl.zeta_at(grid)
    zeta_rho = bowl.zeta_rho_at(grid)
    rows = []
    for a in a_list:
        prof = solve_shrinker(speed, a, tol=tol, rho_max=1.2 * M)
        gap = float(np.max(np.abs(prof.psi_at(grid) - zeta)))
        gap_rho = float(np.max(np.abs(prof.psi_rho_at(grid) - zeta_rho)))
        rows.append({"a": a, "sup_gap": gap, "sup_gap_rho": gap_rho})
    return rows
