"""Numeric kernels: the speed algebra, the profile integrator and the
graph-flow stepping loops, in numpy and scipy.

The speed algebra works elementwise on arrays and scalars.  Profiles are
integrated by stepping scipy's ``LSODA`` solver class directly, with the
height stop tested after each step, and kept as its steps' Nordsieck
polynomials (``StepPolynomials``).  The explicit flow step is Heun's method
and the semi-implicit step is the two-stage Rosenbrock method ROS2, with one
LAPACK tridiagonal factorization (``dgttrf``) per step.

Speed kinds are encoded as integers:

    0  sum          F(x, y) = x + p0*y
    1  bh           F(x, y) = 1 / (p0/(x+y) + p1/y)
    2  sigma_ratio  F(x, y) = y*(p0*y + p1*x) / (p1*y + p2*x)

with per-kind constants (p0, p1, p2) prepared by ``speeds.SpeedFunction``.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
from scipy.integrate import LSODA
from scipy.linalg.lapack import dgttrf, dgttrs
from scipy.optimize import brentq

# integrate_profile: internal tolerance relative to the profile's, and the
# smallest rtol scipy accepts without clamping it
INNER_TOL = 1e-3
EPS = np.finfo(float).eps
RTOL_FLOOR = 100.0 * EPS
# 3-point Gauss-Legendre nodes on [0, 1]
GAUSS3 = 0.5 + 0.5 * np.array([-math.sqrt(0.6), 0.0, math.sqrt(0.6)])

# ROS2's diagonal coefficient 1 + 1/sqrt(2): the value that makes the
# two-stage method L-stable
ROS2_GAMMA = 1.0 + 1.0 / math.sqrt(2.0)

KIND_SUM = 0
KIND_BH = 1
KIND_SIGMA = 2

# flow_run / integrate_profile status codes
STATUS_OK = 0
STATUS_STOP = 1
STATUS_CONE = 2
STATUS_SOLVER = 3
STATUS_PINCH = 4
STATUS_CFL = 5


def speed_F(kind, p0, p1, p2, x, y):
    """Restriction F(x, y) = speed at the curvature vector (x, y, ..., y).

    Works elementwise on arrays as well as on scalars.
    """
    if kind == 0:
        return x + p0 * y
    if kind == 1:
        return 1.0 / (p0 / (x + y) + p1 / y)
    return y * (p0 * y + p1 * x) / (p1 * y + p2 * x)


def speed_Fx(kind, p0, p1, p2, x, y):
    """Partial derivative of the restriction in its first argument."""
    if kind == 0:
        return 1.0 + 0.0 * x
    if kind == 1:
        g = 1.0 / (p0 / (x + y) + p1 / y)
        return g * g * p0 / ((x + y) * (x + y))
    d = p1 * y + p2 * x
    return y * y * (p1 * p1 - p0 * p2) / (d * d)


def speed_f(kind, p0, p1, p2, y, z):
    """Closed-form partial inverse: the x with F(x, y) = z.

    Caller must guarantee F(0,1) < z/y < Q; no domain checks here.
    """
    if kind == 0:
        return z - p0 * y
    if kind == 1:
        d = 1.0 / z - p1 / y
        return p0 / d - y
    return y * (z * p1 - p0 * y) / (y * p1 - z * p2)


def _profile_slope(kind, p0, p1, p2, inv_a2, rho, psi, psip):
    """psi'' = (1+psi'^2) f(psi'/rho, 1/2 + (rho psi' - psi)/(2 a^2)).

    Works elementwise on arrays.  The closed-form inverse extends smoothly a
    little below z/y = F(0,1), which trial states of the solver may graze:
    the bowl rides asymptotically along that cone edge.  Membership of the
    solution's points is checked by ``integrate_profile``.
    """
    zarg = 0.5 + 0.5 * inv_a2 * (rho * psip - psi)
    return (1.0 + psip * psip) * speed_f(kind, p0, p1, p2, psip / rho, zarg)


def _profile_jacobian(kind, p0, p1, p2, inv_a2, rho, psi, psip):
    """Closed-form (d psi''/d psi, d psi''/d psi') of ``_profile_slope``.

    With x = f(y, z) and F(x, y) = z: x_z = 1/F_x and x_y = -F_y/F_x, where
    Euler's relation gives F_y = (F - x F_x)/y = (z - x F_x)/y.
    """
    yarg = psip / rho
    zarg = 0.5 + 0.5 * inv_a2 * (rho * psip - psi)
    x = speed_f(kind, p0, p1, p2, yarg, zarg)
    fx = speed_Fx(kind, p0, p1, p2, x, yarg)
    x_z = 1.0 / fx
    x_y = -(zarg - x * fx) / (yarg * fx)
    w = 1.0 + psip * psip
    j21 = -0.5 * inv_a2 * w * x_z
    j22 = 2.0 * psip * x + w * (x_y / rho + 0.5 * inv_a2 * rho * x_z)
    return j21, j22


def _lsoda_steps(rhs, jac, rho0, psi0, psip0, rho_end, psi_stop, rtol, atol):
    """Step scipy's LSODA from rho0 towards rho_end, stopping where psi
    first rises through psi_stop.

    The loop keeps ``solve_ivp``'s rules for one terminal, increasing event:
    the crossing test g_old <= 0 <= g_new on g = psi - psi_stop, the root
    found by ``brentq`` on the step's dense output at 4 eps, and a step
    that ends exactly at the previous rho is dropped.

    Returns (status, message, rho, states, pieces): status STATUS_OK,
    STATUS_STOP or STATUS_SOLVER, the last message of ``LSODA.step`` (None
    unless it failed); rho and states are the step ends, starting at rho0;
    pieces[i] is the ``LsodaDenseOutput`` on [rho[i], rho[i + 1]].
    """
    solver = LSODA(rhs, rho0, [psi0, psip0], rho_end, jac=jac, rtol=rtol,
                   atol=atol)
    ts, ys, pieces = [rho0], [[psi0, psip0]], []
    g = psi0 - psi_stop
    status = None
    while status is None:
        message = solver.step()
        if solver.status == "failed":
            return STATUS_SOLVER, message, ts, ys, pieces
        if solver.status == "finished":
            status = STATUS_OK
        t, y = solver.t, solver.y
        piece = solver.dense_output()
        g_new = y[0] - psi_stop
        if g <= 0.0 <= g_new:
            t = brentq(lambda r: piece(r)[0] - psi_stop, solver.t_old, t,
                       xtol=4.0 * EPS, rtol=4.0 * EPS)
            y = piece(t)
            status = STATUS_STOP
        g = g_new
        if len(ts) > 1 and ts[-1] == t:
            continue
        ts.append(t)
        ys.append(y)
        pieces.append(piece)
    return status, message, ts, ys, pieces


class StepPolynomials:
    """A solved profile from ``_lsoda_steps``: the solver's step ends x, its
    states (psi, psi') there, y, and each step's LSODA Nordsieck polynomial.

    On step i, (x[i], x[i + 1]], component k is sum_j yh[k, j, i] s^j in
    s = (r - origin[i]) / scale[i], as in the step's ``LsodaDenseOutput``,
    so a step end gives the solver's own state (s = 0).  Points outside
    [x[0], x[-1]] take the first or the last step.
    """

    def __init__(self, ts, ys, pieces):
        self.x, self.y = np.array(ts), np.vstack(ys)
        self.origin = np.array([p.t for p in pieces])
        self.scale = np.array([p.h for p in pieces])
        self.yh = np.zeros((2, max(3, *(p.yh.shape[1] for p in pieces)),
                            len(pieces)))
        for i, piece in enumerate(pieces):
            self.yh[:, :piece.yh.shape[1], i] = piece.yh

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


def integrate_profile(kind, p0, p1, p2, F01, Q, inv_a2,
                      rho0, psi0, psip0, rho_end, psi_stop, rtol, atol):
    """Stiff (LSODA) integration of a rotation-profile ODE.

    inv_a2 = 1/a^2 selects the self-shrinking profile; inv_a2 = 0 gives the
    translating one.  Stops at rho_end or once psi reaches psi_stop (see
    ``_lsoda_steps``).  The solve runs at ``INNER_TOL`` times (rtol, atol),
    or at the larger factor that puts rtol at ``RTOL_FLOOR``, so atol/rtol
    holds at the floor too.  The solution is the solver's own steps
    (``StepPolynomials``); admissibility, F(0,1) < z/y < Q, is checked at
    every step end and Gauss point.

    Returns (status, n_steps, steps, rho_reached, message) with status one
    of the STATUS_* codes; on STATUS_CONE, n_steps counts the steps before
    the first inadmissible point and rho_reached is that point.  message is
    empty unless the status is STATUS_SOLVER.
    """
    def rhs(rho, y):
        return [y[1], _profile_slope(kind, p0, p1, p2, inv_a2, rho, y[0], y[1])]

    def jac(rho, y):
        j21, j22 = _profile_jacobian(kind, p0, p1, p2, inv_a2, rho, y[0], y[1])
        return [[0.0, 1.0], [j21, j22]]

    scale = max(INNER_TOL, RTOL_FLOOR / rtol)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        status, message, ts, ys, pieces = _lsoda_steps(
            rhs, jac, rho0, psi0, psip0, rho_end, psi_stop,
            max(scale * rtol, RTOL_FLOOR), scale * atol)
    if status == STATUS_SOLVER:  # LSODA's own diagnosis arrives as a warning
        detail = "; ".join([message] + [str(w.message) for w in caught])
        return STATUS_SOLVER, 0, None, float(ts[-1]), detail
    for w in caught:
        warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)

    steps = StepPolynomials(ts, ys, pieces)
    # each step's start followed by its Gauss points, then the last end
    rho = np.append(np.column_stack([steps.x[:-1], steps.gauss_points()]),
                    steps.x[-1])
    psi, psip = steps(rho), steps(rho, 1)
    ratio = (0.5 + 0.5 * inv_a2 * (rho * psip - psi)) * rho / psip
    bad = np.flatnonzero(~((psip > 0.0) & (ratio > F01) & (ratio < Q)))
    if bad.size:
        return STATUS_CONE, int(bad[0]) // 4, steps, float(rho[bad[0]]), ""
    return status, len(pieces), steps, float(steps.x[-1]), ""


def central_differences(v, dz):
    """(v_z, v_zz) at the interior nodes, second-order central differences
    along the last axis."""
    vz = (v[..., 2:] - v[..., :-2]) / (2.0 * dz)
    vzz = (v[..., 2:] - 2.0 * v[..., 1:-1] + v[..., :-2]) / (dz * dz)
    return vz, vzz


def _discrete_pair(v, dz, cfac):
    """(ok, v_z, x, y) from central differences at the interior nodes.

    x = -v_zz/(1+v_z^2) and y = 1/v; ok is False when some node leaves the
    admissible cone (x + cfac*y <= 0) or has a non-positive radius.
    """
    vz, vzz = central_differences(v, dz)
    core = v[1:-1]
    x = -vzz / (1.0 + vz * vz)
    y = 1.0 / core
    ok = not (np.min(x + cfac * y) <= 0.0 or np.min(core) <= 0.0)
    return ok, vz, x, y


def _rhs_terms(kind, p0, p1, p2, mode, v, z, vz, x, y):
    """(rhs, F, F_x) at the interior nodes from the discrete curvature pair."""
    g = speed_F(kind, p0, p1, p2, x, y)
    fx = speed_Fx(kind, p0, p1, p2, x, y)
    rhs = -g
    if mode == 1:
        rhs = rhs + 0.5 * (v[1:-1] - z[1:-1] * vz)
    return rhs, g, fx


def graph_rhs(kind, p0, p1, p2, cfac, mode, v, z, dz):
    """Interior right-hand side of the radial (mode 0) / rescaled (mode 1) flow.

    Returns (ok, rhs, fx_max); ok is False when the discrete curvature pair
    leaves the admissible cone (x + cfac*y <= 0) at some interior node.
    """
    ok, vz, x, y = _discrete_pair(v, dz, cfac)
    if not ok:
        return False, 0.0 * v[1:-1], 0.0
    rhs, _, fx = _rhs_terms(kind, p0, p1, p2, mode, v, z, vz, x, y)
    return True, rhs, np.max(fx)


def graph_jacobian(mode, z, dz, vz, x, y, g, fx):
    """Closed-form tridiagonal Jacobian of ``graph_rhs``.

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
    if bc_mode == 0:
        v[0] = bl
        v[-1] = br
    elif bc_mode == 2:
        v[0] = 3.0 * v[1] - 3.0 * v[2] + v[3]
        v[-1] = 3.0 * v[-2] - 3.0 * v[-3] + v[-4]
    # bc_mode 1 (frozen): boundary nodes are never touched


def _stepping_loop(step, v0, dt, nsteps, r_floor, rec_every, rec, rec_t):
    """Advance a copy of v0 by ``step(v, s)`` (in place, returns a status).

    Aborts with the step's status when it is not STATUS_OK, and with
    STATUS_PINCH once a value reaches r_floor.  Snapshots land in rec /
    rec_t every rec_every steps (plus the initial state) while rows last;
    the time after step s is (s + 1) dt, so no rounding accumulates.

    Returns (status, n_recorded, n_steps_done).
    """
    v = v0.copy()
    nrec = 0
    if rec_every > 0:
        rec[0] = v
        rec_t[0] = 0.0
        nrec = 1

    for s in range(nsteps):
        status = step(v, s)
        if status != STATUS_OK:
            return status, nrec, s
        if np.min(v) <= r_floor:
            return STATUS_PINCH, nrec, s + 1
        if (rec_every > 0 and (s + 1) % rec_every == 0
                and nrec < rec.shape[0]):
            rec[nrec] = v
            rec_t[nrec] = (s + 1) * dt
            nrec += 1
    return STATUS_OK, nrec, nsteps


def flow_run(kind, p0, p1, p2, cfac, mode,
             v0, z, dz, dt, nsteps,
             bc_mode, bcl, bcr,
             r_floor, cfl_limit,
             rec_every, rec, rec_t):
    """Heun (explicit RK2) time stepping of a 1D graph flow.

    cfl_limit = safety * dz^2 / 2; the run aborts with STATUS_CFL when
    dt exceeds cfl_limit / max(dF/dx).  Snapshots land in rec / rec_t
    every rec_every steps (plus the initial state).

    Returns (status, n_recorded, n_steps_done).
    """
    def heun(v, s):
        ok, r1, fx1 = graph_rhs(kind, p0, p1, p2, cfac, mode, v, z, dz)
        if not ok:
            return STATUS_CONE
        if dt * fx1 > cfl_limit:
            return STATUS_CFL
        v1 = v.copy()
        v1[1:-1] = v[1:-1] + dt * r1
        _apply_bc(v1, bc_mode, bcl[s + 1], bcr[s + 1])
        ok, r2, fx2 = graph_rhs(kind, p0, p1, p2, cfac, mode, v1, z, dz)
        if not ok:
            return STATUS_CONE
        if dt * fx2 > cfl_limit:
            return STATUS_CFL
        v[1:-1] = v[1:-1] + 0.5 * dt * (r1 + r2)
        _apply_bc(v, bc_mode, bcl[s + 1], bcr[s + 1])
        return STATUS_OK

    return _stepping_loop(heun, v0, dt, nsteps, r_floor, rec_every, rec,
                          rec_t)


def radial_semi_implicit_run(kind, p0, p1, p2, cfac,
                             v0, z, dz, dt, nsteps,
                             bc_mode, bcl, bcr,
                             r_floor, rec_every, rec, rec_t, mode):
    """Linearly implicit stepping of the radial (mode 0) or rescaled
    (mode 1) flow: the two-stage L-stable Rosenbrock method ROS2 of Verwer,
    Spee, Blom & Hundsdorfer (1999), second order in time.

    On the interior nodes, with J the closed-form tridiagonal Jacobian
    (``graph_jacobian``) at the step's start, gamma = ``ROS2_GAMMA`` and
    W = I - gamma dt J factored once by LAPACK ``dgttrf``:

        W k1 = f(t, v) + gamma dt f_t
        W k2 = f(t + dt, v + dt k1) - 2 k1 - gamma dt f_t
        v   += dt (3 k1 + k2) / 2

    bc_mode 0 takes the Dirichlet tables bcl / bcr; f_t, the rhs's time
    derivative through the boundary data, is J's coupling to each boundary
    node times the data's time derivative (central differences of the
    tables), so it is nonzero at the two end rows only.  Without it
    the time-dependent data cost the method its order near the boundary
    (Lubich & Ostermann 1995).  bc_mode 1 keeps the boundary values frozen
    (f_t = 0); extrapolated boundaries (bc_mode 2) are not supported.  No
    CFL limit applies.  A step or stage state outside the admissible cone
    stops the run with STATUS_CONE, a singular W with STATUS_SOLVER.  z is
    only read by the rescaled drift.

    Returns (status, n_recorded, n_steps_done).
    """
    gdt = ROS2_GAMMA * dt
    dirichlet = bc_mode == 0
    if dirichlet and bcl.size > 1:
        dbl = np.gradient(bcl, dt)
        dbr = np.gradient(bcr, dt)

    def ros2(v, s):
        ok, vz, x, y = _discrete_pair(v, dz, cfac)
        if not ok:
            return STATUS_CONE
        f1, g, fx = _rhs_terms(kind, p0, p1, p2, mode, v, z, vz, x, y)
        lower, main, upper = graph_jacobian(mode, z, dz, vz, x, y, g, fx)
        dl, d, du, du2, ipiv, info = dgttrf(-gdt * lower[1:],
                                            1.0 - gdt * main,
                                            -gdt * upper[:-1])
        if info != 0:
            return STATUS_SOLVER
        if dirichlet:  # gamma dt f_t
            ftl = gdt * lower[0] * dbl[s]
            ftr = gdt * upper[-1] * dbr[s]
            f1[0] += ftl
            f1[-1] += ftr
        k1, _ = dgttrs(dl, d, du, du2, ipiv, f1)
        stage = v.copy()
        stage[1:-1] += dt * k1
        _apply_bc(stage, bc_mode, bcl[s + 1], bcr[s + 1])
        ok, f2, _ = graph_rhs(kind, p0, p1, p2, cfac, mode, stage, z, dz)
        if not ok:
            return STATUS_CONE
        f2 = f2 - 2.0 * k1
        if dirichlet:
            f2[0] -= ftl
            f2[-1] -= ftr
        k2, _ = dgttrs(dl, d, du, du2, ipiv, f2)
        v[1:-1] += dt * (1.5 * k1 + 0.5 * k2)
        _apply_bc(v, bc_mode, bcl[s + 1], bcr[s + 1])
        return STATUS_OK

    return _stepping_loop(ros2, v0, dt, nsteps, r_floor, rec_every, rec,
                          rec_t)
