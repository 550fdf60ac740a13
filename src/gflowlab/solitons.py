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
# not called in this module: a module attribute for perfbench/tracer.py,
# which counts scalar inversions under this name
from scipy.optimize import brentq  # noqa: F401

from . import _accel
from .errors import (BarrierViolation, NonConvergence, WindowTooNarrow,
                     require_positive)
from .speeds import SpeedFunction

# radius where a bowl solve starts from its tip series
BOWL_RHO_START = 1e-4
# tolerance and subsolution factor of shrinker_to_bowl_convergence's caps
CONVERGENCE_TOL = 1e-8
CONVERGENCE_THETA = 0.9


def neck_constants(speed: SpeedFunction) -> dict:
    """The (K, L0, c) constants controlling the neck window of a shrinker:
    c = inf_{t>=0} df/dz(1, t + F(0,1)) = 1 / sup_{t>=0} F_x(t, 1) = 1/a_lin,
    since F(., 1) is linear or concave for every built-in speed."""
    c = 1.0 / speed.a_lin
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
    bounded: bool

    @classmethod
    def from_profile(cls, speed, rho, psi, psi_rho, psi_rhorho, inv_a2):
        """The monitor at nodes rho > 0 (both ratios are 0/0 at the tip)."""
        lam = rho * psi_rhorho / (psi_rho * (1.0 + psi_rho ** 2))
        b = (rho / psi_rho) * (0.5 + 0.5 * inv_a2 * (rho * psi_rho - psi))
        gap = float(np.max(np.abs(lam - speed.f_closed(1.0, b))))
        bound = max(lambda_ceiling(speed), lam[0]) * (1.0 + 1e-9) + 1e-12
        return cls(Lambda=lam, B=b, identity_gap=gap,
                   bounded=bool(np.max(lam) <= bound))


def _collocation_defect(speed, inv_a2, poly, rtol, atol):
    """Per-step collocation defect of a profile's polynomials in the ODE.

    At 3 Gauss points per step, the psi' polynomial's derivative misses
    g(rho, psi, psi'); times the shorter of the step length and the
    relaxation length 1/|dg/dpsi'|, that is the error it puts on psi', here
    in units of the tolerance promise atol + rtol (1 + |psi'|).  Order one
    means within tolerance; a wrong right-hand side inflates it by orders
    of magnitude.
    """
    r, h = poly.gauss_points(), np.diff(poly.x)[:, None]
    _, Fx, f = speed.forms
    psi, psip = poly(r), poly(r, 1)
    g = _accel._profile_slope(f, inv_a2, r, psi, psip)
    j22 = _accel._profile_jacobian(f, Fx, inv_a2, r, psi, psip)[1]
    moved = np.abs(poly(r, 2) - g) * np.minimum(h, 1.0 / np.abs(j22))
    return np.max(moved / (atol + rtol * (1.0 + np.abs(psip))), axis=1)


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
    poly: _accel.StepPolynomials = field(repr=False)

    def radius_of_height(self):
        """Monotone inverse rho(zeta), for building radial graphs r(z).

        Inverts the profile's polynomial at all requested heights in one
        vectorized pass (``_monotone_inverse``), so the inverse inherits
        the solver's accuracy; the result has the shape of the heights."""
        def inverse(zvals):
            zvals = np.asarray(zvals, dtype=float)
            return _monotone_inverse(self.poly, self.rho, self.zeta,
                                     zvals.ravel()).reshape(zvals.shape)

        return inverse

    def gradient_ratio_bounds(self):
        ratio = self.zeta_rho[1:] / self.rho[1:]
        return float(ratio.min()), float(ratio.max())

    def residual_norms(self):
        return _collocation_defect(self.speed, 0.0, self.poly, rtol=self.tol,
                                   atol=self.tol * 1e-2)


def _from_tip_series(speed, inv_a2, rho0, rho_end, psi_stop, tol):
    """Step polynomials of a profile integrated from the two-term tip series
    psi = rho0^2/(4 F(1,1)), psi' = rho0/(2 F(1,1)) at rho0 to rho_end (or
    psi_stop), at ``_accel.profile_tolerances(tol)``."""
    f11 = speed.F11
    poly, _ = _accel.integrate_profile(
        speed, inv_a2, rho0, rho0 ** 2 / (4.0 * f11), rho0 / (2.0 * f11),
        rho_end, psi_stop, *_accel.profile_tolerances(tol))
    return poly


def _tip_curvature(poly, at):
    """Richardson extrapolation of psi'/rho to rho = 0 from rho = at, 2 at."""
    ma, mb = poly(np.array([at, 2.0 * at]), 1) / [at, 2.0 * at]
    return float((4.0 * ma - mb) / 3.0)


def solve_bowl(speed: SpeedFunction, rho_max: float,
               tol: float) -> BowlProfile:
    """Integrate the bowl ODE zeta'' = (1+zeta'^2) f(zeta'/rho, 1/2).

    The equation is singular at rho = 0 (the inverse argument is 0/0), so
    integration starts at ``BOWL_RHO_START`` from the two-term tip series
    zeta = rho^2/(4 F(1,1)), zeta' = rho/(2 F(1,1)), whose curvature matches
    the regular solution at the tip.

    LSODA runs at ``_accel.profile_tolerances(tol)``, the map both profiles
    share.  The arrays hold its step ends and the tip node, ``poly`` its
    step polynomials and the tip series; ``residual_norms`` is their
    collocation defect in units of tol.  A ``rho_max`` or ``tol`` that is
    not finite and positive, or a ``rho_max`` <= ``BOWL_RHO_START``, raises
    ValueError.
    """
    rho_max = require_positive("rho_max", rho_max)
    tol = require_positive("tol", tol)
    rho_s = BOWL_RHO_START
    if rho_max <= rho_s:
        raise ValueError("rho_max must exceed the regularized start")
    poly = _from_tip_series(speed, 0.0, rho_s, rho_max, np.inf, tol)
    rho, (zeta, zeta_rho) = poly.x, poly.y.T
    zeta_rr = _accel._profile_slope(speed.forms[2], 0.0, rho, zeta, zeta_rho)
    monitor = EllipticityMonitor.from_profile(speed, rho, zeta, zeta_rho,
                                              zeta_rr, 0.0)
    # stations inside the solved range
    tip = _tip_curvature(poly, at=max(min(0.01, 0.003 * rho_max), rho_s))
    # exact tip node: zeta(0) = zeta_rho(0) = 0, zeta_rr(0) -> measured limit
    poly.prepend_tip()
    return BowlProfile(speed=speed, rho=poly.x, zeta=poly.y[:, 0],
                       zeta_rho=poly.y[:, 1],
                       zeta_rhorho=np.append(tip, zeta_rr), tol=tol,
                       tip_curvature=tip, monitor=monitor, poly=poly)


@dataclass
class ShrinkerProfile:
    """Solved self-shrinker cap profile for parameter a.

    Carries both the rho-side data (psi, psi' at the solver's step ends and
    their polynomials ``poly``) and the z-representation v(z) on a uniform
    grid in [z_min, a], obtained by monotone inversion of
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
    z: np.ndarray
    v: np.ndarray
    v_z: np.ndarray
    w: np.ndarray
    rho_of_z: np.ndarray
    L0: float
    K: float
    monitor: EllipticityMonitor
    cauchy_gap: float
    inversion_error: float
    tip_curvature: float
    w_tip: float
    poly: _accel.StepPolynomials = field(repr=False)

    def residual_norms(self):
        return _collocation_defect(self.speed, 1.0 / self.a ** 2, self.poly,
                                   rtol=self.rtol, atol=self.rtol * 1e-2)

    def lower_bound_margin(self):
        """Pointwise margin of v^2 over 2 F(0,1)(1 - z^2/a^2)."""
        rhs = 2.0 * self.speed.F01 * (1.0 - self.z ** 2 / self.a ** 2)
        return self.v ** 2 - rhs


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


def solve_shrinker(speed: SpeedFunction, a: float, theta: float, tol: float,
                   rho_max: float | None = None) -> ShrinkerProfile:
    """Construct the self-shrinking cap profile for parameter ``a``.

    The ODE is singular at rho = 0, so it is integrated outward from the
    two-term tip series psi = rho^2/(4 F(1,1)), psi' = rho/(2 F(1,1)) until
    the height coordinate z = a - psi/a drops to the neck constant L0 or
    rho reaches ``rho_max``.  The series matches the regular solution to
    second order (the z-term (rho psi' - psi)/(2 a^2) vanishes at the tip),
    so its start error is far below the solver's.
    Two solves are made: a primary one from rho = 2^-8 at
    ``_accel.profile_tolerances(tol)`` and a check one from 2^-10 at the
    same map of tol/10.  The tighter check makes their gap, the Cauchy test
    against ``tol`` in sup norm, bound the primary solve's own error too;
    the check solve is returned, and ``rtol`` = 1e-2 tol is the relative
    unit of its ``residual_norms``.  Both must stay between the subsolution
    theta rho^2/(4 F(1,1)) and the supersolution Theta rho^2/(4 F(1,1)),
    Theta = 2 F(1,1)/F(0,1), of the existence proof.  A ``tol`` the floored
    solver cannot meet fails the Cauchy test (NonConvergence).  An ``a``,
    ``tol`` or ``rho_max`` not finite and positive, an ``a`` <= L0, or a
    ``rho_max`` <= 2^-8, raises ValueError.
    """
    F01, f11, Q = speed.F01, speed.F11, speed.Q
    lo = f11 / Q if math.isfinite(Q) else 0.0
    if not (lo < theta < 1.0):
        raise ValueError(f"theta must lie in (F(1,1)/Q, 1) = ({lo:.6g}, 1)")
    Theta = 2.0 * f11 / F01
    a = require_positive("a", a)
    tol = require_positive("tol", tol)
    rho_s = 2.0 ** -8
    if rho_max is not None:
        rho_max = require_positive("rho_max", rho_max)
        if rho_max <= rho_s:
            raise ValueError(f"rho_max = {rho_max:g} must exceed the "
                             "tip-series start 2^-8")

    consts = neck_constants(speed)
    L0 = consts["L0"]
    if L0 >= a:
        raise ValueError(f"a = {a} must exceed the neck constant "
                         f"L0 = {L0:.4g}, where the cap is cut off")

    sigma2 = 2.0 * F01
    rho_ceiling = (1.0 - 1e-9) * math.sqrt(sigma2) * a
    if rho_max is None:
        rho_end = rho_ceiling
        psi_stop = a * (a - L0)
    else:
        rho_end = min(rho_max, rho_ceiling)
        psi_stop = np.inf
    dz_target = min(0.01 * a, 0.05)

    inv_a2 = 1.0 / a ** 2
    solves = []
    for start, solve_tol in ((rho_s, tol), (0.25 * rho_s, 0.1 * tol)):
        solve = _from_tip_series(speed, inv_a2, start, rho_end, psi_stop,
                                 solve_tol)
        _barrier_checks(speed, a, theta, Theta, solve.x, *solve.y.T)
        solves.append(solve)
    primary, poly = solves
    rho, (psi, psip) = poly.x, poly.y.T
    cmp_grid = np.geomspace(rho_s, min(primary.x[-1], rho[-1]) * (1.0 - 1e-3),
                            400)
    check = poly(cmp_grid)
    gap = float(np.max(np.abs(check - primary(cmp_grid))
                       / (1.0 + np.abs(check))))
    if not gap < tol:
        raise NonConvergence(
            f"primary and check solves differ by {gap:.3g} >= tol = "
            f"{tol:.3g}")

    psipp = _accel._profile_slope(speed.forms[2], inv_a2, rho, psi, psip)
    monitor = EllipticityMonitor.from_profile(speed, rho, psi, psip, psipp,
                                              inv_a2)
    tip_curv = _tip_curvature(poly, at=0.05)
    # the rho-side arrays start at the check solve's series start; the
    # z-side grid carries the exact tip node (z = a, v = 0) instead

    # z-representation on a uniform grid by monotone inversion of the psi
    # polynomial, all grid nodes in one vectorized Newton pass
    z_lo = max(L0, a - psi[-1] * (1.0 - 1e-12) / a)
    z_grid = np.arange(z_lo, a - 0.5 * dz_target, dz_target)
    psi_targets = np.minimum(a * (a - z_grid), psi[-1])
    rho_of_z = _monotone_inverse(poly, rho, psi, psi_targets)
    inv_err = float(np.max(np.abs(poly(rho_of_z) - psi_targets),
                           initial=0.0)) / a

    def w_of(r, psi_r, psip_r):
        return (2.0 * r * (1.0 - psi_r / a ** 2)
                / (psip_r * (sigma2 - r ** 2 / a ** 2)))

    psip_at = poly(rho_of_z, 1)
    v = rho_of_z / a
    v_z = -1.0 / psip_at
    w = w_of(rho_of_z, psi_targets, psip_at)

    # w limit at the tip: quadratic fit in rho^2 on a fixed grid in [0.1, 1]
    rr = np.linspace(0.1, min(1.0, rho[-1]), 64)
    w_tip = float(np.polynomial.polynomial.polyfit(
        rr ** 2, w_of(rr, poly(rr), poly(rr, 1)), deg=2)[0])

    # append the exact tip node
    z_full = np.concatenate([z_grid, [a]])
    v_full = np.concatenate([v, [0.0]])
    vz_full = np.concatenate([v_z, [-np.inf]])
    w_full = np.concatenate([w, [w_tip]])
    rho_full = np.concatenate([rho_of_z, [0.0]])

    return ShrinkerProfile(
        speed=speed, a=a, theta=theta, Theta=Theta, tol=tol, rtol=1e-2 * tol,
        rho=rho, psi=psi, psi_rho=psip,
        z=z_full, v=v_full, v_z=vz_full, w=w_full, rho_of_z=rho_full,
        L0=L0, K=consts["K"], monitor=monitor,
        cauchy_gap=gap, inversion_error=inv_err,
        tip_curvature=tip_curv, w_tip=w_tip, poly=poly)


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


def shrinker_w_diagnostic(profile: ShrinkerProfile,
                          M: float) -> WDiagnostic:
    """Evaluate the neck diagnostic of a solved shrinker.

    Flags w > 2 at every node, compares against the barrier
    w_bar = 2 + K(1/z^2 + 1/(a^2 - z^2)) on (sqrt(K), z_{M,a}), z_{M,a}
    the height at rho = M (no window beyond the solved range, no check
    when z_{M,a} <= sqrt(K)), and reports the extrapolated tip limit
    against 2 F(1,1)/F(0,1).  M must be finite and positive.
    """
    require_positive("M", M)
    a, K = profile.a, profile.K
    z_int = profile.z[:-1]
    w_int = profile.w[:-1]
    margin = float(np.min(w_int - 2.0))
    upper_ok = None
    window = None
    if M < profile.rho[-1]:
        z_Ma = float(a - profile.poly(M) / a)
        window = (math.sqrt(K), z_Ma)
        if z_Ma > math.sqrt(K):
            wbar = 2.0 + K * (1.0 / z_int ** 2 + 1.0 / (a ** 2 - z_int ** 2))
            sel = (z_int > math.sqrt(K)) & (z_int < z_Ma)
            upper_ok = bool(np.all(w_int[sel] <= wbar[sel] + 1e-9))
    target = 2.0 * profile.speed.F11 / profile.speed.F01
    return WDiagnostic(z=z_int, w=w_int, lower_ok=bool(margin > 0.0),
                       min_margin=margin, tip_limit=profile.w_tip,
                       tip_target=target, upper_window=window,
                       upper_ok=upper_ok)


def shrinker_upper_bound_fit(profile: ShrinkerProfile, L: float) -> float:
    """Smallest C with v^2 <= 2F(0,1)(1 - (1 - C log a / a^2)(z^2 - C)/a^2)
    on [z_min, L]; found by bisection (the bound is monotone in C).
    WindowTooNarrow when L lies below z_min, where no node is tested."""
    a = profile.a
    f01 = profile.speed.F01
    if not L >= profile.z[0]:
        raise WindowTooNarrow(f"L = {L:g} lies below the lowest solved "
                              f"height {profile.z[0]:.4g}")
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


def shrinker_to_bowl_convergence(speed: SpeedFunction,
                                 a_list: Sequence[float],
                                 M: float) -> list[dict]:
    """Sup-norm gaps sup_{rho<=M} |psi_a - zeta| (and derivative gaps) per a,
    bowl and shrinkers solved at ``CONVERGENCE_TOL``.

    The gap is expected to decrease in a: the shrinker's z-term
    (rho psi' - psi)/(2a^2) vanishes in the limit, recovering the bowl ODE.
    """
    a_list = sorted(a_list)
    if M >= min(a_list) * math.sqrt(2.0 * speed.F01):
        raise ValueError("M must fit inside every shrinker's rho-range")
    bowl = solve_bowl(speed, rho_max=1.3 * M, tol=CONVERGENCE_TOL)
    grid = np.geomspace(0.05, M, 400)
    zeta = bowl.poly(grid)
    zeta_rho = bowl.poly(grid, 1)
    rows = []
    for a in a_list:
        prof = solve_shrinker(speed, a, theta=CONVERGENCE_THETA,
                              tol=CONVERGENCE_TOL, rho_max=1.2 * M)
        gap = float(np.max(np.abs(prof.poly(grid) - zeta)))
        gap_rho = float(np.max(np.abs(prof.poly(grid, 1) - zeta_rho)))
        rows.append({"a": a, "sup_gap": gap, "sup_gap_rho": gap_rho})
    return rows
