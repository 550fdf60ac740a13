"""Numeric kernels: the profile integrator, the graph-flow stepping loops
and the PCHIP interpolant, in numpy and scipy.

Profiles are integrated by LSODA: a scipy ``LSODA`` object sets the solve
up, and the loop calls its compiled one-step runner itself, testing the
height stop and the advance of rho after each step.  Per kept step the loop
appends the state, LSODA's step sizes and Nordsieck array and its order
pair to flat buffers, through views of the work arrays made once; a profile
is kept as its steps' Nordsieck polynomials (``StepPolynomials``) built from
those buffers, and only the step that crosses the height stop builds a
dense-output object.  The explicit flow step is Heun's method and the
semi-implicit step is the three-stage Rosenbrock method ROS3P, with one
LAPACK tridiagonal factorization (``dgttrf``) per step.  A speed enters
through its ``speeds.closed_forms`` F, F_x and f.

A kernel raises the typed error where its check fails: ``integrate_profile``
raises ``ToleranceFailure`` and ``ConeExit``, ``_rhs_terms`` ``ConeExit``,
and the stepping kernels ``StabilityViolation`` (CFL limit, singular W) and
``Pinch``.  The stepping kernels allocate and return their own records.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
from scipy.integrate import LSODA
from scipy.linalg.lapack import dgttrf, dgttrs
from scipy.optimize import brentq

from .errors import ConeExit, Pinch, StabilityViolation, ToleranceFailure
from .speeds import closed_forms

# profile_tolerances: LSODA's rtol per unit of a profile's tol, and the
# smallest rtol scipy accepts without clamping it
PROFILE_TOL = 7e-4
EPS = np.finfo(float).eps
RTOL_FLOOR = 100.0 * EPS
# 3-point Gauss-Legendre nodes on [0, 1]
GAUSS3 = 0.5 + 0.5 * np.array([-math.sqrt(0.6), 0.0, math.sqrt(0.6)])
# the part of LSODA's real work array a profile step's polynomial is read
# from: the last and the next step size (rwork[10:12]) through the end of
# the Nordsieck array of a 2-component system, 13 columns from rwork[20]
_RWORK_STEP = slice(10, 20 + 2 * 13)

# ROS3P (Lang & Verwer 2001) in the transformed form of
# ``radial_semi_implicit_run``: the diagonal gamma, the stage shift
# a21 = a31 (a32 = 0), (c21, c31, c32), (gamma_1, gamma_2, gamma_3) of the
# f_t term and the weights m
ROS3P_GAMMA = 0.7886751345948129
ROS3P_A21 = 1.267949192431123
ROS3P_C = (-1.607695154586736, -3.464101615137755, -1.732050807568877)
ROS3P_GAMMAS = (0.7886751345948129, -0.2113248654051871, -1.077350269189626)
ROS3P_M = (2.0, 0.5773502691896258, 0.4226497308103742)


def _profile_slope(f, inv_a2, rho, psi, psip):
    """psi'' = (1+psi'^2) f(psi'/rho, 1/2 + (rho psi' - psi)/(2 a^2)).

    f is the speed's closed-form inverse; works elementwise on arrays.  It
    extends smoothly a
    little below z/y = F(0,1), which trial states of the solver may graze:
    the bowl rides asymptotically along that cone edge.  Membership of the
    solution's points is checked by ``integrate_profile``.
    """
    zarg = 0.5 + 0.5 * inv_a2 * (rho * psip - psi)
    return (1.0 + psip * psip) * f(psip / rho, zarg)


def _profile_jacobian(f, Fx, inv_a2, rho, psi, psip):
    """Closed-form (d psi''/d psi, d psi''/d psi') of ``_profile_slope``.

    With x = f(y, z) and F(x, y) = z: x_z = 1/F_x and x_y = -F_y/F_x, where
    Euler's relation gives F_y = (F - x F_x)/y = (z - x F_x)/y.
    """
    yarg = psip / rho
    zarg = 0.5 + 0.5 * inv_a2 * (rho * psip - psi)
    x = f(yarg, zarg)
    fx = Fx(x, yarg)
    x_z = 1.0 / fx
    x_y = -(zarg - x * fx) / (yarg * fx)
    w = 1.0 + psip * psip
    j21 = -0.5 * inv_a2 * w * x_z
    j22 = 2.0 * psip * x + w * (x_y / rho + 0.5 * inv_a2 * rho * x_z)
    return j21, j22


def _lsoda_steps(rhs, jac, rho0, psi0, psip0, rho_end, psi_stop, rtol, atol):
    """Step LSODA from rho0 towards rho_end, stopping where psi first rises
    through psi_stop.

    A scipy ``LSODA`` object validates the inputs, allocates LSODA's work
    arrays and puts rho_end in rwork[0] as tcrit; the loop then calls its
    compiled runner ``integrator.runner`` itself with itask 5 (one step,
    never past tcrit), so a step costs no scipy Python layer and rhs and jac
    are called as given.  The runner advances the state and the work arrays
    in place.

    The loop keeps ``solve_ivp``'s rules for one terminal, increasing event:
    the crossing test g_old <= 0 <= g_new on g = psi - psi_stop, the root
    found by ``brentq`` on the step's dense output (``LsodaDenseOutput``)
    at 4 eps, and a crossing step that ends exactly at the previous rho is
    dropped.  Only the crossing step builds a dense-output object; every
    kept step's polynomial is copied off LSODA's work arrays instead.
    Memoryviews over y, ``rwork[_RWORK_STEP]`` and iwork[13:15], made once,
    see each step's update, and a kept step appends their bytes (the root
    state on the crossing step) to three ``bytearray`` buffers.

    Returns (rho, states, ends, work, orders), the arguments of
    ``StepPolynomials``: lists of the step ends, starting at rho0, and of
    the solver's t after each step, and, read from the buffers, the states
    at the step ends, shape (n + 1, 2), each step's ``rwork[_RWORK_STEP]``,
    shape (n, 36), and its (iwork[13], iwork[14]), shape (n, 2) in iwork's
    dtype.  Raises ToleranceFailure, naming the rho reached, when LSODA
    returns a negative istate (quoting its message for it and LSODA's
    warnings) and when a step that does not cross psi_stop leaves rho where
    it was: one-step calls never trip LSODA's own steps-per-call limit, so
    a solve whose step size has shrunk below the rounding of rho would
    otherwise step forever.  Warnings of a successful solve are issued
    again once it ends.
    """
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        solver = LSODA(rhs, rho0, [psi0, psip0], rho_end, jac=jac, rtol=rtol,
                       atol=atol)
        integrator = solver._lsoda_solver._integrator
        rtol, atol, _, istate, rwork, iwork, jt = integrator.call_args
        run = integrator.runner
        doubles, ints = integrator.state_doubles, integrator.state_ints
        y = np.array([psi0, psip0], dtype=float)
        # views made once: the runner updates y, rwork and iwork in place
        state_now = memoryview(y)
        work_now = memoryview(rwork[_RWORK_STEP])
        orders_now = memoryview(iwork[13:15])
        sign = 1.0 if rho_end >= rho0 else -1.0
        ts, ends = [rho0], []
        ys, work, orders = bytearray(state_now), bytearray(), bytearray()
        t = rho0
        g = psi0 - psi_stop
        done = False
        while not done:
            t_old = t
            _, t, istate = run(rhs, y, t, rho_end, rtol, atol, 5, istate,
                               rwork, iwork, jac, jt, (), 1, (), doubles,
                               ints)
            if istate < 0:
                detail = "; ".join(
                    [f"lsoda: {integrator.messages.get(istate, istate)}"]
                    + [str(w.message) for w in caught])
                raise ToleranceFailure(
                    f"profile solver stopped at rho = {t_old:.6g} of "
                    f"{rho_end:.6g}: {detail}")
            done = sign * (t - rho_end) >= 0.0
            end = t
            state = state_now
            g_new = state[0] - psi_stop
            if g <= 0.0 <= g_new:
                solver.t_old, solver.t = t_old, t
                piece = solver._dense_output_impl()
                t = brentq(lambda r: piece(r)[0] - psi_stop, t_old, t,
                           xtol=4.0 * EPS, rtol=4.0 * EPS)
                state = memoryview(piece(t))
                if len(ts) > 1 and ts[-1] == t:
                    break
                done = True
            elif t == t_old:
                raise ToleranceFailure(
                    f"profile solver stalled at rho = {t!r} of "
                    f"{rho_end:.6g}: its step no longer advances rho")
            g = g_new
            ts.append(t)
            ends.append(end)
            ys += state
            work += work_now
            orders += orders_now
    for w in caught:
        warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
    return (ts, np.frombuffer(ys).reshape(-1, 2), ends,
            np.frombuffer(work).reshape(-1, work_now.shape[0]),
            np.frombuffer(orders, dtype=iwork.dtype).reshape(-1, 2))


class StepPolynomials:
    """A solved profile from ``_lsoda_steps``: the solver's step ends x, its
    states (psi, psi') there, y, and each step's LSODA Nordsieck polynomial.

    On step i, (x[i], x[i + 1]], component k is sum_j yh[k, j, i] s^j in
    s = (r - origin[i]) / scale[i], as in the step's ``LsodaDenseOutput``,
    so a step end gives the solver's own state (s = 0).  Points outside
    [x[0], x[-1]] take the first or the last step.

    The polynomials are read off LSODA's work arrays as scipy's
    ``LSODA.dense_output()`` reads them, for all steps at once: the origin
    is the solver's t after the step (x holds the psi_stop root instead on
    the crossing step), the scale is the next step size rwork[11], and yh
    is rwork[20:20 + 2 (q + 1)], the Nordsieck array (2, q + 1) in
    column-major order, with q = iwork[13] the order last used.  When the
    next order iwork[14] is lower, LSODA has left the last column at the
    old step size rwork[10], so it is rescaled by (rwork[11]/rwork[10])**q.
    Columns past q are stale and zeroed.  These are private scipy fields;
    ``test_step_polynomials_match_lsoda_dense_output`` pins them.
    """

    def __init__(self, ts, ys, ends, work, orders):
        self.x, self.y = np.array(ts), np.array(ys)
        self.origin = np.array(ends)
        # work[:, j] is rwork[10 + j]
        work = np.array(work)
        order, next_order = np.array(orders).T
        self.scale = work[:, 1].copy()
        yh = work[:, 10:].reshape(work.shape[0], -1, 2)
        yh[np.arange(yh.shape[1]) > order[:, None]] = 0.0
        for i in np.flatnonzero(next_order < order):
            yh[i, order[i]] *= (work[i, 1] / work[i, 0]) ** order[i]
        self.yh = np.ascontiguousarray(
            yh[:, :max(3, order.max() + 1)].transpose(2, 1, 0))

    def prepend_tip(self):
        """Extend the profile to [0, x[0]] by the parabola of a tip-series
        start: psi = psi0 (rho/rho0)^2, psi' = psi0' rho/rho0."""
        r0, (psi0, psip0) = self.x[0], self.y[0]
        tip = np.zeros(self.yh.shape[:2] + (1,))
        tip[:, :3, 0] = [[psi0, r0 * psip0, psi0], [psip0, psip0, 0.0]]
        self.x, self.y = np.append(0.0, self.x), np.vstack([[0, 0], self.y])
        self.origin = np.append(r0, self.origin)
        self.scale = np.append(r0, self.scale)
        self.yh = np.concatenate([tip, self.yh], axis=2)

    def __call__(self, r, nu=0):
        """psi (nu = 0), psi' (nu = 1) or the derivative of the psi'
        polynomial (nu = 2) at the points r, in the shape of r."""
        i = np.clip(np.searchsorted(self.x, r) - 1, 0, self.origin.size - 1)
        s = (r - self.origin[i]) / self.scale[i]
        c = self.yh[min(nu, 1)]
        if nu == 2:
            c = c[1:] * np.arange(1, len(c))[:, None] / self.scale
        # Horner past the constant term: s = 0 gives the state itself
        acc = c[-1][i]
        for j in range(len(c) - 2, 0, -1):
            acc = acc * s + c[j][i]
        return c[0][i] + acc * s

    def gauss_points(self):
        """The 3 Gauss-Legendre points of each step, shape (steps, 3)."""
        return self.x[:-1, None] + np.diff(self.x)[:, None] * GAUSS3


def profile_tolerances(tol):
    """LSODA's (rtol, atol) for a bowl or cap solve at ``tol``; PROFILE_TOL
    is the loosest factor that kept a measured grid of profiles inside the
    cone and their certificates (Cauchy gap, defect) tenfold inside."""
    rtol = max(PROFILE_TOL * tol, RTOL_FLOOR)
    return rtol, 1e-2 * rtol


def integrate_profile(speed, inv_a2, rho0, psi0, psip0, rho_end, psi_stop,
                      rtol, atol):
    """Stiff (LSODA) integration of a rotation-profile ODE for the speed
    ``speed`` (a ``speeds.SpeedFunction``).

    inv_a2 = 1/a^2 selects the self-shrinking profile; inv_a2 = 0 gives the
    translating one.  Stops at rho_end or once psi reaches psi_stop (see
    ``_lsoda_steps``) at (rtol, atol), which the profile solvers take from
    ``profile_tolerances``.  The solution is the solver's own steps
    (``StepPolynomials``); admissibility, F(0,1) < z/y < Q, is checked at
    every step end and Gauss point.

    Returns (steps, n_steps).  Raises ToleranceFailure when LSODA fails
    (its message, its warnings and the rho reached) or stalls (the rho it
    stopped advancing at), and ConeExit at the first inadmissible point.
    """
    _, Fx, f = speed.forms

    # Python floats: numpy-scalar arithmetic costs over twice as much.  The
    # slope is _profile_slope written out, operation for operation, which
    # saves a call per evaluation
    def rhs(rho, y):
        psi, psip = y.tolist()
        zarg = 0.5 + 0.5 * inv_a2 * (rho * psip - psi)
        return [psip, (1.0 + psip * psip) * f(psip / rho, zarg)]

    def jac(rho, y):
        psi, psip = y.tolist()
        j21, j22 = _profile_jacobian(f, Fx, inv_a2, rho, psi, psip)
        return [[0.0, 1.0], [j21, j22]]

    steps = StepPolynomials(*_lsoda_steps(
        rhs, jac, rho0, psi0, psip0, rho_end, psi_stop, rtol, atol))
    # each step's start followed by its Gauss points, then the last end
    rho = np.append(np.column_stack([steps.x[:-1], steps.gauss_points()]),
                    steps.x[-1])
    psi, psip = steps(rho), steps(rho, 1)
    ratio = (0.5 + 0.5 * inv_a2 * (rho * psip - psi)) * rho / psip
    bad = np.flatnonzero(~((psip > 0.0) & (ratio > speed.F01)
                           & (ratio < speed.Q)))
    if bad.size:
        raise ConeExit("profile left the inversion cone near rho = "
                       f"{rho[bad[0]]:.6g}")
    return steps, steps.x.size - 1


def _pchip_end_slope(h0, h1, m0, m1):
    """One-sided three-point slope at an end node, kept shape-preserving."""
    d = ((2.0 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    steep = (np.sign(m0) != np.sign(m1)) & (np.abs(d) > 3.0 * np.abs(m0))
    return np.where(np.sign(d) != np.sign(m0), 0.0,
                    np.where(steep, 3.0 * m0, d))


def pchip(x, y, xi):
    """Monotone piecewise-cubic Hermite interpolant of (x, y) at xi.

    The Fritsch-Carlson slopes (Fritsch & Carlson 1980) with one-sided end
    slopes, in the arithmetic of ``scipy.interpolate.PchipInterpolator``,
    whose values it gives bit for bit.  x is strictly increasing; y runs
    along axis 0 (one profile, or a block of them as columns).  The result
    has shape ``xi.shape + y.shape[1:]``, NaN at points outside
    [x[0], x[-1]] (scipy's ``extrapolate=False``).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    xi = np.asarray(xi, dtype=float)
    if x.ndim != 1 or x.size < 2 or y.shape[:1] != x.shape:
        raise ValueError("pchip needs 1-D x of >= 2 nodes along y's axis 0")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise ValueError("pchip needs finite x and y")
    h = np.diff(x).reshape((-1,) + (1,) * (y.ndim - 1))
    if not np.all(h > 0.0):
        raise ValueError("pchip needs strictly increasing x")
    m = np.diff(y, axis=0) / h
    if x.size == 2:
        d = np.concatenate([m, m])
    else:
        w1 = 2.0 * h[1:] + h[:-1]
        w2 = h[1:] + 2.0 * h[:-1]
        sm = np.sign(m)
        flat = (sm[1:] != sm[:-1]) | (m[1:] == 0.0) | (m[:-1] == 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            inner = 1.0 / ((w1 / m[:-1] + w2 / m[1:]) / (w1 + w2))
        d = np.concatenate([
            _pchip_end_slope(h[0], h[1], m[0], m[1])[None],
            np.where(flat, 0.0, inner),
            _pchip_end_slope(h[-1], h[-2], m[-1], m[-2])[None]])
    # the cubic on [x_i, x_i+1] in powers of s = xi - x_i, summed as
    # scipy's PPoly sums it
    t = (d[:-1] + d[1:] - 2.0 * m) / h
    c0, c1 = t / h, (m - d[:-1]) / h - t
    i = np.clip(np.searchsorted(x, xi, "right") - 1, 0, x.size - 2)
    s = (xi - x[i]).reshape(xi.shape + (1,) * (y.ndim - 1))
    s2 = s * s
    out = 0.0 + y[:-1][i] + d[:-1][i] * s + c1[i] * s2 + c0[i] * (s2 * s)
    outside = (xi < x[0]) | (xi > x[-1])
    return np.where(outside.reshape(s.shape), np.nan, out)


def central_differences(v, dz):
    """(v_z, v_zz) at the interior nodes, second-order central differences
    along the last axis."""
    vz = (v[..., 2:] - v[..., :-2]) / (2.0 * dz)
    vzz = (v[..., 2:] - 2.0 * v[..., 1:-1] + v[..., :-2]) / (dz * dz)
    return vz, vzz


def _rhs_terms(F, cfac, mode, v, z, dz):
    """(rhs, F(x, y), v_z, x, y) of the radial (mode 0) / rescaled (mode 1)
    flow for F at the interior nodes, with the discrete curvature pair
    x = -v_zz/(1+v_z^2), y = 1/v from central differences.  Raises
    ConeExit, naming the z of the first such node, when some node leaves
    the admissible cone (x + cfac*y <= 0), has a non-positive radius or
    is NaN (written so that a NaN fails the test)."""
    vz, vzz = central_differences(v, dz)
    core = v[1:-1]
    x = -vzz / (1.0 + vz * vz)
    y = 1.0 / core
    if not ((x + cfac * y).min() > 0.0 and core.min() > 0.0):
        bad = np.argmin((x + cfac * y > 0.0) & (core > 0.0))
        raise ConeExit(f"ellipticity lost at z = {z[bad + 1]:.6g}: the "
                       "discrete curvature pair left the admissible cone or "
                       "is NaN")
    g = F(x, y)
    rhs = -g
    if mode == 1:
        rhs = rhs + 0.5 * (core - z[1:-1] * vz)
    return rhs, g, vz, x, y


def graph_jacobian(mode, z, dz, vz, x, y, g, fx):
    """Closed-form tridiagonal Jacobian of ``_rhs_terms``' rhs.

    Returns (lower, main, upper): the derivatives of the rhs at interior
    node i by v[i-1], v[i] and v[i+1], from the curvature pair (x, y), the
    slope v_z and F, F_x at the interior nodes.  With q = 1/(1+v_z^2),
    x = -q v_zz gives dx/dv[i+-1] = -q/dz^2 -+ x v_z q/dz and
    dx/dv[i] = 2q/dz^2; y = 1/v gives dy/dv[i] = -y^2, and Euler's relation
    F_y = (F - x F_x)/y closes the chain rule.  The rescaled drift
    (v - z v_z)/2 adds 1/2 to the diagonal and -+ z/(4 dz) beside it.
    """
    q = 1.0 / (1.0 + vz * vz)
    diff = fx * q / (dz * dz)
    adv = fx * q * x * vz / dz
    lower = diff - adv
    upper = diff + adv
    main = (g - x * fx) * y - 2.0 * diff
    if mode == 1:
        drift = z[1:-1] / (4.0 * dz)
        lower = lower + drift
        upper = upper - drift
        main = main + 0.5
    return lower, main, upper


def _apply_bc(v, bc_mode, bl, br):
    if bc_mode == "dirichlet":
        v[0] = bl
        v[-1] = br
    # "frozen": boundary nodes are never touched


def _stepping_loop(step, v0, dt, nsteps, r_floor, rec_every):
    """Advance a copy of v0 by ``step(v, s)``, which updates v in place.

    A failure the step raises names its step as "s of nsteps" (s from 0)
    and the time the step starts from; Pinch is raised once a value reaches
    r_floor.  The time after step s is (s + 1) dt, so no rounding
    accumulates.

    Returns (times, snapshots, nsteps): the initial state, the state after
    every rec_every-th step, and the final state.
    """
    v = v0.copy()
    times = dt * np.append(np.arange(0, nsteps, rec_every), nsteps)
    snapshots = np.empty((times.size, v.size))
    snapshots[0] = v
    for s in range(nsteps):
        try:
            step(v, s)
        except (ConeExit, StabilityViolation) as exc:
            raise type(exc)(f"step {s} of {nsteps} (t = {s * dt:.6g}): "
                            f"{exc}") from exc
        if v.min() <= r_floor:
            raise Pinch(f"radius hit the floor at t = {(s + 1) * dt:.6g}")
        if (s + 1) % rec_every == 0:
            snapshots[(s + 1) // rec_every] = v
    snapshots[-1] = v
    return times, snapshots, nsteps


def flow_run(kind, p0, p1, p2, cfac, mode,
             v0, z, dz, dt, nsteps,
             bc_mode, bcl, bcr,
             r_floor, cfl_limit, rec_every):
    """Heun (explicit RK2) time stepping of a 1D graph flow.

    (kind, p0, p1, p2, cfac) are a speed's kind, params and cone_factor.
    cfl_limit = s dz^2 / 2 for a safety fraction s <= 1 of the CFL limit
    (``flow.CFL_SAFETY``); the run raises StabilityViolation when dt exceeds
    cfl_limit / max(dF/dx), and ConeExit or Pinch as in
    ``_rhs_terms`` and ``_stepping_loop``.  Snapshots are kept every
    rec_every steps, plus the initial and the final state.

    Returns (times, snapshots, n_steps).
    """
    F, Fx, _ = closed_forms(kind, p0, p1, p2)

    def rhs(v):
        out, _, _, x, y = _rhs_terms(F, cfac, mode, v, z, dz)
        if dt * Fx(x, y).max() > cfl_limit:
            raise StabilityViolation(
                "dt violates the CFL constraint safety*dz^2/(2 max dF/dx)")
        return out

    def heun(v, s):
        r1 = rhs(v)
        v1 = v.copy()
        v1[1:-1] = v[1:-1] + dt * r1
        _apply_bc(v1, bc_mode, bcl[s + 1], bcr[s + 1])
        v[1:-1] = v[1:-1] + 0.5 * dt * (r1 + rhs(v1))
        _apply_bc(v, bc_mode, bcl[s + 1], bcr[s + 1])

    return _stepping_loop(heun, v0, dt, nsteps, r_floor, rec_every)


def radial_semi_implicit_run(kind, p0, p1, p2, cfac,
                             v0, z, dz, dt, nsteps,
                             bc_mode, bcl, bcr,
                             r_floor, rec_every, mode):
    """Linearly implicit stepping of the radial (mode 0) or rescaled
    (mode 1) flow: the three-stage Rosenbrock method ROS3P of Lang & Verwer
    (2001), third order in time and free of order reduction on parabolic
    problems with time-dependent Dirichlet data.

    On the interior nodes, with J the closed-form tridiagonal Jacobian
    (``graph_jacobian``) at the step's start, gamma = ``ROS3P_GAMMA`` and
    W = I - gamma dt J factored once by LAPACK ``dgttrf``, the stages of
    the transformed form are

        W U_i = gamma dt [f(t + alpha_i dt, v + sum_j a_ij U_j)
                          + sum_j (c_ij / dt) U_j + gamma_i dt f_t]
        v += sum_i m_i U_i

    with the ``ROS3P_*`` coefficients.  Stages 2 and 3 share their state
    (a31 = a21, a32 = 0, alpha = 1), so a step costs two rhs evaluations,
    one factorization and three ``dgttrs`` solves.  A stage state at
    t + dt takes the boundary data at t + dt.

    bc_mode "dirichlet" takes the tables bcl / bcr; f_t, the rhs's time
    derivative through the boundary data, is J's coupling to each boundary
    node times the data's time derivative (central differences of the
    tables), so it is nonzero at the two end rows only.  bc_mode "frozen"
    keeps the boundary values fixed (f_t = 0).  No CFL limit applies.  A
    step or stage state outside the admissible cone raises ConeExit, a
    singular W StabilityViolation, a radius at r_floor Pinch.  z is only
    read by the rescaled drift.

    Returns (times, snapshots, n_steps), as ``flow_run``.
    """
    F, Fx, _ = closed_forms(kind, p0, p1, p2)
    gdt = ROS3P_GAMMA * dt
    c21, c31, c32 = (c / dt for c in ROS3P_C)
    g1, g2, g3 = (gi * dt for gi in ROS3P_GAMMAS)
    m1, m2, m3 = ROS3P_M
    dirichlet = bc_mode == "dirichlet"
    if dirichlet and bcl.size > 1:
        dbl = np.gradient(bcl, dt)
        dbr = np.gradient(bcr, dt)

    def ros3p(v, s):
        f1, g, vz, x, y = _rhs_terms(F, cfac, mode, v, z, dz)
        fx = Fx(x, y)
        lower, main, upper = graph_jacobian(mode, z, dz, vz, x, y, g, fx)
        dl, d, du, du2, ipiv, info = dgttrf(-gdt * lower[1:],
                                            1.0 - gdt * main,
                                            -gdt * upper[:-1])
        if info != 0:
            raise StabilityViolation(
                "singular linearly implicit step matrix; reduce dt")

        def solve(rhs, gi):
            if dirichlet:  # gamma_i dt f_t
                rhs[0] += gi * lower[0] * dbl[s]
                rhs[-1] += gi * upper[-1] * dbr[s]
            return dgttrs(dl, d, du, du2, ipiv, gdt * rhs)[0]

        u1 = solve(f1, g1)
        stage = v.copy()
        stage[1:-1] += ROS3P_A21 * u1
        _apply_bc(stage, bc_mode, bcl[s + 1], bcr[s + 1])
        f2 = _rhs_terms(F, cfac, mode, stage, z, dz)[0]
        u2 = solve(f2 + c21 * u1, g2)
        u3 = solve(f2 + c31 * u1 + c32 * u2, g3)
        v[1:-1] += m1 * u1 + m2 * u2 + m3 * u3
        _apply_bc(v, bc_mode, bcl[s + 1], bcr[s + 1])

    return _stepping_loop(ros3p, v0, dt, nsteps, r_floor, rec_every)
