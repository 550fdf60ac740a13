"""Numeric kernels: the speed algebra, the profile integrator and the
graph-flow stepping loops, in numpy and scipy.

The speed algebra works elementwise on arrays and scalars.  Profiles are
integrated by stepping scipy's ``LSODA`` solver class directly, with the
height stop tested after each step; the explicit flow step is Heun's method
and the semi-implicit step solves one tridiagonal system per step with
``scipy.linalg.solve_banded``.

Speed kinds are encoded as integers:

    0  sum          F(x, y) = x + p0*y
    1  bh           F(x, y) = 1 / (p0/(x+y) + p1/y)
    2  sigma_ratio  F(x, y) = y*(p0*y + p1*x) / (p1*y + p2*x)

with per-kind constants (p0, p1, p2) prepared by ``speeds.SpeedFunction``.
"""

from __future__ import annotations

import warnings

import numpy as np
from scipy.integrate import LSODA
from scipy.linalg import solve_banded
from scipy.optimize import brentq

# integrate_profile: internal tolerance relative to the profile's, the
# smallest rtol scipy accepts without clamping it, and the sample spacing
# in units of the fast time scale 1/|d psi''/d psi'|
INNER_TOL = 1e-3
EPS = np.finfo(float).eps
RTOL_FLOOR = 100.0 * EPS
SAMPLE_STIFF = 8.0

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
    returned samples is checked by ``integrate_profile``.
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


def integrate_profile(kind, p0, p1, p2, F01, Q, inv_a2,
                      rho0, psi0, psip0, rho_end, psi_stop,
                      rtol, atol, h_rho_cap, h_z_cap):
    """Stiff (LSODA) integration of a rotation-profile ODE, resampled densely.

    inv_a2 = 1/a^2 selects the self-shrinking profile; inv_a2 = 0 gives the
    translating one.  Stops at rho_end or once psi reaches psi_stop (see
    ``_lsoda_steps``).  The solve runs at ``INNER_TOL`` times (rtol, atol),
    with rtol floored at ``RTOL_FLOOR``; each step's dense output (the
    ``LsodaDenseOutput`` Nordsieck array) is sampled at spacing
    min(SAMPLE_STIFF/|d psi''/d psi'|, h_rho_cap (1 + rho), h_z_cap/psi'), so
    that quadrature checks on consecutive samples resolve the fast direction.

    Returns (status, n_samples, (rho, psi, psi', psi''), rho_reached,
    message) with status one of the STATUS_* codes; on STATUS_CONE,
    n_samples counts the admissible samples before the first that is not.
    message is empty unless the status is STATUS_SOLVER.
    """
    def rhs(rho, y):
        return [y[1], _profile_slope(kind, p0, p1, p2, inv_a2, rho, y[0], y[1])]

    def jac(rho, y):
        j21, j22 = _profile_jacobian(kind, p0, p1, p2, inv_a2, rho, y[0], y[1])
        return [[0.0, 1.0], [j21, j22]]

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        status, message, ts, ys, pieces = _lsoda_steps(
            rhs, jac, rho0, psi0, psip0, rho_end, psi_stop,
            max(INNER_TOL * rtol, RTOL_FLOOR), INNER_TOL * atol)
    if status == STATUS_SOLVER:  # LSODA's own diagnosis arrives as a warning
        detail = "; ".join([message] + [str(w.message) for w in caught])
        return STATUS_SOLVER, 0, None, float(ts[-1]), detail
    for w in caught:
        warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)

    # sample spacing per solver step, from the stiffer end of the step
    t = np.array(ts)
    psi_t, psip_t = np.vstack(ys).T
    _, j22 = _profile_jacobian(kind, p0, p1, p2, inv_a2, t, psi_t, psip_t)
    cap = np.minimum(SAMPLE_STIFF / np.abs(j22), h_rho_cap * (1.0 + t))
    if h_z_cap > 0.0:
        cap = np.minimum(cap, h_z_cap / psip_t)
    h = np.diff(t)
    n = np.ceil(h / np.minimum(cap[:-1], cap[1:])).astype(np.int64)
    first = np.cumsum(n) - n
    k = np.arange(n.sum()) - np.repeat(first, n)
    rho = np.append(np.repeat(t[:-1], n) + k * np.repeat(h / n, n), t[-1])
    # each step's LSODA Nordsieck polynomial about the step's end point,
    # evaluated by Horner on the terms past the constant one so that each
    # sample is rounded once: the Simpson check multiplies the rounding of
    # psi by |d psi''/d psi'| (~2 rho for bh n=3)
    yh = np.zeros((len(pieces), max(p.yh.shape[1] for p in pieces), 2))
    origin, scale = np.empty((2, len(pieces)))
    for i, piece in enumerate(pieces):
        yh[i, :piece.yh.shape[1]] = piece.yh.T
        origin[i], scale[i] = piece.t, piece.h
    step = np.repeat(np.arange(len(pieces)), n)
    s = ((rho[1:] - origin[step]) / scale[step])[:, None]
    corr = yh[step, -1]
    for j in range(yh.shape[1] - 2, 0, -1):
        corr = corr * s + yh[step, j]
    states = np.vstack([ys[0], yh[step, 0] + corr * s])
    psi, psip = np.ascontiguousarray(states.T)
    psipp = _profile_slope(kind, p0, p1, p2, inv_a2, rho, psi, psip)

    # admissibility of every sample: F(0,1) < z/y < Q
    ratio = (0.5 + 0.5 * inv_a2 * (rho * psip - psi)) * rho / psip
    bad = np.flatnonzero(~((psip > 0.0) & (ratio > F01) & (ratio < Q)))
    samples = (rho, psi, psip, psipp)
    if bad.size:
        return STATUS_CONE, int(bad[0]), samples, float(rho[bad[0]]), ""
    return status, rho.size, samples, float(rho[-1]), ""


def _discrete_pair(v, dz, cfac):
    """(ok, v_z, x, y) from central differences at the interior nodes.

    x = -v_zz/(1+v_z^2) and y = 1/v; ok is False when some node leaves the
    admissible cone (x + cfac*y <= 0) or has a non-positive radius.
    """
    vz = (v[2:] - v[:-2]) / (2.0 * dz)
    vzz = (v[2:] - 2.0 * v[1:-1] + v[:-2]) / (dz * dz)
    core = v[1:-1]
    x = -vzz / (1.0 + vz * vz)
    y = 1.0 / core
    ok = not (np.min(x + cfac * y) <= 0.0 or np.min(core) <= 0.0)
    return ok, vz, x, y


def graph_rhs(kind, p0, p1, p2, cfac, mode, v, z, dz):
    """Interior right-hand side of the radial (mode 0) / rescaled (mode 1) flow.

    Returns (ok, rhs, fx_max); ok is False when the discrete curvature pair
    leaves the admissible cone (x + cfac*y <= 0) at some interior node.
    """
    ok, vz, x, y = _discrete_pair(v, dz, cfac)
    if not ok:
        return False, 0.0 * v[1:-1], 0.0
    g = speed_F(kind, p0, p1, p2, x, y)
    fx = speed_Fx(kind, p0, p1, p2, x, y)
    if mode == 0:
        rhs = -g
    else:
        rhs = -g + 0.5 * (v[1:-1] - z[1:-1] * vz)
    return True, rhs, np.max(fx)


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
                             r_floor, rec_every, rec, rec_t):
    """Semi-implicit stepping of the radial flow, first order in time.

    The speed is linearized in x about the current state, with the
    coefficient dF/dx frozen there, and the resulting diffusion is taken
    implicitly (one tridiagonal solve per step); this removes the explicit
    CFL restriction in stiff small-radius regimes.  bc_mode 0 takes the
    Dirichlet tables bcl / bcr; any other mode keeps the boundary values
    frozen.  z is unused (the radial flow has no drift term).

    Returns (status, n_recorded, n_steps_done).
    """
    m = v0.shape[0]
    # (upper, main, lower) diagonals in solve_banded's layout; the boundary
    # rows are the identity
    bands = np.zeros((3, m))
    bands[1] = 1.0

    def implicit(v, s):
        ok, vz, x, y = _discrete_pair(v, dz, cfac)
        if not ok:
            return STATUS_CONE
        fx = speed_Fx(kind, p0, p1, p2, x, y)
        mu = dt * fx / ((1.0 + vz * vz) * dz * dz)
        bands[0, 2:] = -mu
        bands[1, 1:-1] = 1.0 + 2.0 * mu
        bands[2, :-2] = -mu
        b = v.copy()
        b[1:-1] = v[1:-1] - dt * (speed_F(kind, p0, p1, p2, x, y) - fx * x)
        if bc_mode == 0:
            b[0] = bcl[s + 1]
            b[-1] = bcr[s + 1]
        v[:] = solve_banded((1, 1), bands, b)
        return STATUS_OK

    return _stepping_loop(implicit, v0, dt, nsteps, r_floor, rec_every, rec,
                          rec_t)
