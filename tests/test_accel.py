"""The profile driver's stop, its stepping loop against scipy's public
``LSODA.step()``, the stepping clock, the graph Jacobian, the stepping
kernels' arithmetic and ``pchip`` against scipy's ``PchipInterpolator``,
bit for bit."""

import contextlib
import math
import signal

import numpy as np
import pytest
from scipy.integrate import LSODA
from scipy.interpolate import PchipInterpolator
from scipy.linalg.lapack import dgttrf, dgttrs
from scipy.optimize import brentq

import gflowlab as gf
from gflowlab import _accel
from gflowlab.errors import ToleranceFailure
from gflowlab.flow import (BoundaryCondition, state_from_reference, step_plan,
                           translating_bowl_reference)
from gflowlab.solitons import neck_constants
from gflowlab.speeds import SpeedFunction


def _bowl_sum3(rho_end, psi_stop):
    """integrate_profile on the sum n=3 bowl from its tip series at 1e-4."""
    sp = SpeedFunction("sum", 3)
    r0 = 1e-4
    return _accel.integrate_profile(
        sp, 0.0, r0, r0 ** 2 / (4.0 * sp.F11), r0 / (2.0 * sp.F11), rho_end,
        psi_stop, 1e-10, 1e-12)


def test_profile_driver_runs_to_rho_end():
    steps, n = _bowl_sum3(20.0, np.inf)
    assert n == steps.x.size - 1
    assert steps.x[-1] == 20.0
    # a step end evaluates to the solver's own state
    np.testing.assert_array_equal(steps(steps.x[1:]), steps.y[1:, 0])
    np.testing.assert_array_equal(steps(steps.x[1:], 1), steps.y[1:, 1])


def test_profile_driver_stops_at_psi_stop():
    psi_stop = 30.0
    steps, _ = _bowl_sum3(20.0, psi_stop)
    psi = steps.y[:, 0]
    assert steps.x[-1] < 20.0
    assert np.all(psi[:-1] < psi_stop)
    assert abs(psi[-1] - psi_stop) <= 4.0 * np.finfo(float).eps * psi_stop


def test_lsoda_dense_output_fields():
    # the psi_stop crossing step takes its root on LSODA's dense output, and
    # the test below compares each step's polynomial with that object's
    from scipy.integrate._ivp.lsoda import LsodaDenseOutput
    solver = LSODA(lambda t, y: -y, 0.0, [1.0, 2.0], 1.0)
    solver.step()
    piece = solver.dense_output()
    assert isinstance(piece, LsodaDenseOutput), (
        "scipy's LSODA dense output changed class; the Nordsieck "
        "comparison reads LsodaDenseOutput.yh, .t and .h")
    for name in ("yh", "t", "h"):
        assert hasattr(piece, name), (
            f"scipy's LsodaDenseOutput lost .{name}, which the Nordsieck "
            "comparison reads")
    assert piece.t == solver.t
    assert piece.yh.shape[0] == 2
    np.testing.assert_array_equal(piece.yh[:, 0], solver.y)


def _profile_rhs_jac(sp, inv_a2):
    _, Fx, f = sp.forms

    def rhs(rho, y):
        return [y[1], _accel._profile_slope(f, inv_a2, rho, y[0], y[1])]

    def jac(rho, y):
        j21, j22 = _accel._profile_jacobian(f, Fx, inv_a2, rho, y[0], y[1])
        return [[0.0, 1.0], [j21, j22]]

    return rhs, jac


def _step_loop(rhs, jac, rho0, psi0, psip0, rho_end, psi_stop, rtol, atol):
    """``_accel._lsoda_steps`` written through scipy's public
    ``LSODA.step()`` and ``dense_output()``: the oracle its direct calls of
    LSODA's compiled runner must match bit for bit."""
    solver = LSODA(rhs, rho0, [psi0, psip0], rho_end, jac=jac, rtol=rtol,
                   atol=atol)
    integrator = solver._lsoda_solver._integrator
    rwork, iwork = integrator.rwork, integrator.iwork
    ts, ys, ends, work, orders = [rho0], [[psi0, psip0]], [], [], []
    g = psi0 - psi_stop
    done = False
    while not done:
        solver.step()
        assert solver.status != "failed"
        done = solver.status == "finished"
        t, y = solver.t, solver.y
        g_new = y[0] - psi_stop
        if g <= 0.0 <= g_new:
            piece = solver.dense_output()
            t = brentq(lambda r: piece(r)[0] - psi_stop, solver.t_old, t,
                       xtol=4.0 * _accel.EPS, rtol=4.0 * _accel.EPS)
            y = piece(t)
            done = True
        g = g_new
        if len(ts) > 1 and ts[-1] == t:
            continue
        ts.append(t)
        ys.append(y)
        ends.append(solver.t)
        work.append(rwork[_accel._RWORK_STEP].copy())
        orders.append((iwork[13], iwork[14]))
    return ts, ys, ends, work, orders


@pytest.mark.parametrize("kind", ["sum", "bh"])
@pytest.mark.parametrize("stop", ["rho_end", "psi_stop"])
def test_lsoda_runner_loop_matches_step_loop(kind, stop):
    # the bowl runs to rho_end; the a = 50 shrinker cap stops where psi
    # crosses a (a - L0), short of its rho_end
    sp = SpeedFunction(kind, 3)
    if stop == "rho_end":
        a, r0, rho_end, psi_stop = np.inf, 1e-4, 20.0, np.inf
    else:
        a, r0 = 50.0, 2.0 ** -8
        rho_end = (1.0 - 1e-9) * math.sqrt(2.0 * sp.F01) * a
        psi_stop = a * (a - neck_constants(sp)["L0"])
    rhs, jac = _profile_rhs_jac(sp, 1.0 / a ** 2)
    args = (rhs, jac, r0, r0 ** 2 / (4.0 * sp.F11), r0 / (2.0 * sp.F11),
            rho_end, psi_stop, 1e-12, 1e-14)
    ts, ys, ends, work, orders = _accel._lsoda_steps(*args)
    want = _step_loop(*args)
    assert len(ts) == len(want[0]) > 100
    np.testing.assert_array_equal(np.array(ts), np.array(want[0]))
    np.testing.assert_array_equal(np.array(ys), np.array(want[1]))
    for got, expected in zip((ends, work, orders), want[2:]):
        np.testing.assert_array_equal(np.array(got), np.array(expected))
    if stop == "rho_end":
        assert ts[-1] == ends[-1] == rho_end
    else:
        assert ts[-1] < ends[-1] < rho_end
        assert ys[-1][0] == pytest.approx(psi_stop, rel=4.0 * _accel.EPS)


@contextlib.contextmanager
def _deadline(seconds):
    """Raise TimeoutError in the test after ``seconds`` of wall time."""
    def expire(signum, frame):
        raise TimeoutError(f"no result within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def test_lsoda_stall_raises():
    # psi'' = psi'^3 with psi'(0) = 1 blows up at rho = 1/2: LSODA's step
    # shrinks until rho stops moving, and one-step calls never reach its
    # steps-per-call limit, so only the loop's own check ends the solve
    def rhs(rho, y):
        return [y[1], y[1] ** 3]

    def jac(rho, y):
        return [[0.0, 1.0], [0.0, 3.0 * y[1] ** 2]]

    with _deadline(20.0), pytest.raises(ToleranceFailure,
                                        match="stalled at rho = ") as info:
        _accel._lsoda_steps(rhs, jac, 0.0, 0.0, 1.0, 1.0, np.inf, 1e-10,
                            1e-12)
    rho = float(str(info.value).split("rho = ")[1].split()[0])
    assert 0.5 - 1e-6 < rho < 0.5


def test_step_polynomials_match_lsoda_dense_output():
    # StepPolynomials reads each step off LSODA's private work arrays; a
    # second solver stepped alongside gives every step's dense_output(),
    # which must match bit for bit, rescaled order-decrease steps included
    from scipy.integrate._ivp.lsoda import LsodaDenseOutput
    sp = SpeedFunction("sum", 3)
    rhs, jac = _profile_rhs_jac(sp, 0.0)
    r0 = 1e-4
    y0 = [r0 ** 2 / (4.0 * sp.F11), r0 / (2.0 * sp.F11)]
    steps = _accel.StepPolynomials(*_accel._lsoda_steps(
        rhs, jac, r0, *y0, 20.0, np.inf, 1e-13, 1e-14))
    solver = LSODA(rhs, r0, y0, 20.0, jac=jac, rtol=1e-13, atol=1e-14)
    iwork = solver._lsoda_solver._integrator.iwork
    n_steps = steps.x.size - 1
    r_eval = np.column_stack([steps.gauss_points(), steps.x[1:]])
    decreases = 0
    for i in range(n_steps):
        solver.step()
        decreases += int(iwork[14] < iwork[13])
        piece = solver.dense_output()
        q = piece.yh.shape[1] - 1
        assert steps.x[i + 1] == solver.t == steps.origin[i] == piece.t
        assert steps.scale[i] == piece.h
        np.testing.assert_array_equal(steps.yh[:, :q + 1, i], piece.yh)
        assert not steps.yh[:, q + 1:, i].any()
        stored = LsodaDenseOutput(solver.t_old, steps.origin[i],
                                  steps.scale[i], q,
                                  steps.yh[:, :q + 1, i].copy())
        np.testing.assert_array_equal(stored(r_eval[i]), piece(r_eval[i]))
    assert solver.status == "finished"
    assert decreases >= 1, "no order-decrease step: rescaling untested"


def test_stepping_loop_time_stamps_exact():
    # 12,000 steps of 5e-4 end exactly at t = 6 (summing dt drifts below it)
    times, snapshots, nsteps = _accel._stepping_loop(
        lambda v, s: None, np.ones(3), 5e-4, 12000, 0.0, 12000)
    assert (times.size, snapshots.shape, nsteps) == (2, (2, 3), 12000)
    assert times[-1] == 6.0


@pytest.mark.parametrize("kind,n,k", [("sum", 3, None), ("bh", 3, None),
                                      ("sigma_ratio", 4, 2)])
@pytest.mark.parametrize("mode", [0, 1])
def test_graph_jacobian_matches_finite_differences(kind, n, k, mode):
    sp = SpeedFunction(kind, n, k)
    z = np.linspace(-3.0, 3.0, 31)
    dz = z[1] - z[0]
    v = 2.0 + 0.3 * np.sin(z) + 0.1 * z

    def rhs(vals):
        return _accel._rhs_terms(sp.forms[0], sp.cone_factor, mode, vals, z,
                                 dz)[0]

    _, g, vz, x, y = _accel._rhs_terms(sp.forms[0], sp.cone_factor, mode, v,
                                       z, dz)
    fx = sp.Fx(x, y)
    bands = _accel.graph_jacobian(mode, z, dz, vz, x, y, g, fx)
    h = 1e-6
    fd = np.empty((v.size - 2, v.size))
    for j in range(v.size):
        e = np.zeros(v.size)
        e[j] = h
        fd[:, j] = (rhs(v + e) - rhs(v - e)) / (2.0 * h)
    rows = np.arange(v.size - 2)
    scale = np.max(np.abs(fd))
    for offset, band in enumerate(bands):
        np.testing.assert_allclose(band, fd[rows, rows + offset], rtol=0.0,
                                   atol=1e-8 * scale)
    # nothing outside the three bands
    fd[rows, rows] = fd[rows, rows + 1] = fd[rows, rows + 2] = 0.0
    assert np.max(np.abs(fd)) == 0.0


# Oracles: the Heun and ROS3P steps written out, operation for operation, as
# the kernels compute them.  The kernels must reproduce them bit for bit, so
# a reordering of the kernels' arithmetic fails here even when it stays
# within every tolerance of the other tests.

def _oracle_terms(sp, mode, v, z, dz):
    """(rhs, F, F_x, v_z, x, y) at the interior nodes, sum and bh only."""
    p0, p1, _ = sp.params
    vz = (v[2:] - v[:-2]) / (2.0 * dz)
    vzz = (v[2:] - 2.0 * v[1:-1] + v[:-2]) / (dz * dz)
    x = -vzz / (1.0 + vz * vz)
    y = 1.0 / v[1:-1]
    assert np.min(x + sp.cone_factor * y) > 0.0 and np.min(v[1:-1]) > 0.0
    if sp.kind == "sum":
        g = x + p0 * y
        fx = 1.0 + 0.0 * x
    else:
        g = 1.0 / (p0 / (x + y) + p1 / y)
        fx = g * g * p0 / ((x + y) * (x + y))
    rhs = -g
    if mode == 1:
        rhs = rhs + 0.5 * (v[1:-1] - z[1:-1] * vz)
    return rhs, g, fx, vz, x, y


def _set_ends(v, bl, br, s):
    """Dirichlet data at step s; bl None for frozen ends."""
    if bl is not None:
        v[0], v[-1] = bl[s], br[s]


def _oracle_heun(sp, mode, v, z, dz, dt, bl, br, nsteps):
    snaps = [v.copy()]
    for s in range(nsteps):
        r1 = _oracle_terms(sp, mode, v, z, dz)[0]
        v1 = v.copy()
        v1[1:-1] = v[1:-1] + dt * r1
        _set_ends(v1, bl, br, s + 1)
        r2 = _oracle_terms(sp, mode, v1, z, dz)[0]
        v = v.copy()
        v[1:-1] = v[1:-1] + 0.5 * dt * (r1 + r2)
        _set_ends(v, bl, br, s + 1)
        snaps.append(v)
    return np.array(snaps)


def _oracle_bands(mode, z, dz, g, fx, vz, x, y):
    """(lower, main, upper) of the rhs's tridiagonal Jacobian."""
    q = 1.0 / (1.0 + vz * vz)
    diff = fx * q / (dz * dz)
    adv = fx * q * x * vz / dz
    lower, upper = diff - adv, diff + adv
    main = (g - x * fx) * y - 2.0 * diff
    if mode == 1:
        drift = z[1:-1] / (4.0 * dz)
        lower, upper, main = lower + drift, upper - drift, main + 0.5
    return lower, main, upper


def _oracle_ros3p(sp, mode, v, z, dz, dt, bl, br, nsteps):
    gdt = _accel.ROS3P_GAMMA * dt
    c21, c31, c32 = (c / dt for c in _accel.ROS3P_C)
    g1, g2, g3 = (gi * dt for gi in _accel.ROS3P_GAMMAS)
    m1, m2, m3 = _accel.ROS3P_M
    snaps = [v.copy()]
    for s in range(nsteps):
        f1, g, fx, vz, x, y = _oracle_terms(sp, mode, v, z, dz)
        lower, main, upper = _oracle_bands(mode, z, dz, g, fx, vz, x, y)
        dl, d, du, du2, ipiv, info = dgttrf(
            -gdt * lower[1:], 1.0 - gdt * main, -gdt * upper[:-1])
        assert info == 0
        if bl is not None:  # f_t through the boundary data, end rows only
            dbl, dbr = np.gradient(bl, dt)[s], np.gradient(br, dt)[s]
        # stage 1 at (t, v)
        r1 = f1
        if bl is not None:
            r1[0] += g1 * lower[0] * dbl
            r1[-1] += g1 * upper[-1] * dbr
        u1, _ = dgttrs(dl, d, du, du2, ipiv, gdt * r1)
        # stages 2 and 3 share the state v + a21 U1 at t + dt
        stage = v.copy()
        stage[1:-1] += _accel.ROS3P_A21 * u1
        _set_ends(stage, bl, br, s + 1)
        f2 = _oracle_terms(sp, mode, stage, z, dz)[0]
        r2 = f2 + c21 * u1
        if bl is not None:
            r2[0] += g2 * lower[0] * dbl
            r2[-1] += g2 * upper[-1] * dbr
        u2, _ = dgttrs(dl, d, du, du2, ipiv, gdt * r2)
        r3 = f2 + c31 * u1 + c32 * u2
        if bl is not None:
            r3[0] += g3 * lower[0] * dbl
            r3[-1] += g3 * upper[-1] * dbr
        u3, _ = dgttrs(dl, d, du, du2, ipiv, gdt * r3)
        v = v.copy()
        v[1:-1] += m1 * u1 + m2 * u2 + m3 * u3
        _set_ends(v, bl, br, s + 1)
        snaps.append(v)
    return np.array(snaps)


@pytest.fixture(scope="module", params=["sum3", "bh3", "rescaled_k1"])
def stepping_window(request):
    """(speed, mode, v0, z, dz, BoundaryCondition) of a stepping window:
    criterion 7's bowl window z in [5, 25] at delta = 0.2 with Dirichlet
    data, or the rescaled k1 seed on [-14, 14] with frozen ends."""
    if request.param == "rescaled_k1":
        sp = SpeedFunction("sum", 3)
        z = np.linspace(-14.0, 14.0, 141)
        basis = gf.build_basis(sp.a_lin, K=4, quad_order=40)
        v0 = gf.cylinder_radius(sp) + 1e-4 * basis.value(1, z)
        return sp, 1, v0, z, z[1] - z[0], BoundaryCondition(mode="frozen")
    sp = SpeedFunction(request.param[:-1], 3)
    bowl = gf.solve_bowl(sp, rho_max=60.0, tol=1e-10)
    ref = translating_bowl_reference(bowl)
    st = state_from_reference(sp, ref, 5.0, 25.0, 0.2)
    return (sp, 0, st.values, st.z, st.dz,
            BoundaryCondition.from_reference(ref, st.z[0], st.z[-1]))


def test_rhs_and_jacobian_match_written_out_terms(stepping_window):
    # the Jacobian moves a ROS3P step only at the rounding level, which the
    # snapshots below rarely show, so its bands are pinned here
    sp, mode, v0, z, dz, _ = stepping_window
    rhs, g, fx, vz, x, y = _oracle_terms(sp, mode, v0, z, dz)
    got = _accel._rhs_terms(sp.forms[0], sp.cone_factor, mode, v0, z, dz)
    np.testing.assert_array_equal(got[0], rhs)
    np.testing.assert_array_equal(got[1], g)
    np.testing.assert_array_equal(sp.Fx(x, y), fx)
    np.testing.assert_array_equal(
        _accel.graph_jacobian(mode, z, dz, vz, x, y, g, fx),
        _oracle_bands(mode, z, dz, g, fx, vz, x, y))


def test_heun_kernel_matches_written_out_steps(stepping_window):
    sp, mode, v0, z, dz, bc = stepping_window
    dt, nsteps = step_plan(sp, 0.2, 0.8)
    assert nsteps >= 20
    bl, br = bc.tables(0.0, dt, nsteps)
    p0, p1, p2 = sp.params
    times, snaps, n = _accel.flow_run(
        sp.kind, p0, p1, p2, sp.cone_factor, mode, v0, z, dz, dt, nsteps,
        bc.mode, bl, br, 0.0, 1.0, 1)
    if bc.mode == "frozen":
        bl = br = None
    np.testing.assert_array_equal(
        snaps, _oracle_heun(sp, mode, v0, z, dz, dt, bl, br, nsteps))
    assert n == nsteps and times.size == nsteps + 1


def test_ros3p_kernel_matches_written_out_steps(stepping_window):
    sp, mode, v0, z, dz, bc = stepping_window
    dt, nsteps = 0.02, 100
    bl, br = bc.tables(0.0, dt, nsteps)
    p0, p1, p2 = sp.params
    times, snaps, n = _accel.radial_semi_implicit_run(
        sp.kind, p0, p1, p2, sp.cone_factor, v0, z, dz, dt, nsteps,
        bc.mode, bl, br, 0.0, 1, mode)
    if bc.mode == "frozen":
        bl = br = None
    np.testing.assert_array_equal(
        snaps, _oracle_ros3p(sp, mode, v0, z, dz, dt, bl, br, nsteps))
    assert n == nsteps and times.size == nsteps + 1


def _pchip_case(n, columns, kind, seed):
    """Strictly increasing x of n nodes and y with ``columns`` columns (1-D
    for None): smooth, or (kind "flat") with flat runs and sign changes."""
    rng = np.random.default_rng(seed)
    x = np.cumsum(rng.uniform(0.05, 2.0, n)) - 3.0
    shape = (n,) if columns is None else (n, columns)
    if kind == "flat":
        y = np.round(2.0 * rng.normal(size=shape)) / 2.0
        y[rng.random(n) < 0.3] = 0.0
    else:
        y = rng.normal(size=shape)
    return x, y


@pytest.mark.parametrize("kind", ["smooth", "flat"])
@pytest.mark.parametrize("columns", [None, 1, 4])
@pytest.mark.parametrize("n", [2, 3, 4, 60])
def test_pchip_matches_scipy_bit_for_bit(n, columns, kind):
    for seed in range(20):
        x, y = _pchip_case(n, columns, kind, seed)
        rng = np.random.default_rng(100 + seed)
        # every node, both ends, -0.0 beside a node at 0, and points
        # inside and outside (NaN) the nodes
        xi = np.concatenate([x, [x[0], x[-1], -0.0],
                             rng.uniform(x[0] - 2.0, x[-1] + 2.0, 40)])
        want = PchipInterpolator(x, y, extrapolate=False)(xi)
        got = _accel.pchip(x, y, xi)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes(), seed
    # a scalar point gives the scalar value
    assert _accel.pchip(x, y, x[1]).tobytes() == \
        PchipInterpolator(x, y, extrapolate=False)(x[1]).tobytes()


def test_pchip_flat_and_sign_change_slopes_are_zero():
    # a node between intervals of opposite sign, or beside a flat one, is
    # a local extremum of the interpolant: no overshoot past its value
    x = np.arange(6.0)
    y = np.array([0.0, 1.0, 0.0, 0.0, 2.0, 2.0])
    xi = np.linspace(0.0, 5.0, 501)
    got = _accel.pchip(x, y, xi)
    assert got.tobytes() == PchipInterpolator(x, y, extrapolate=False)(
        xi).tobytes()
    assert got.max() == 2.0 and got.min() == 0.0
    assert np.all(got[(xi >= 2.0) & (xi <= 3.0)] == 0.0)
    # -0.0 at a peak, queried at -0.0: scipy's sum starts from +0.0
    x = np.array([-2.0, -1.0, 0.0, 1.5, 2.0])
    y = np.array([0.5, -2.0, -0.0, -2.0, -1.0])
    got = _accel.pchip(x, y, np.array([-0.0, 0.0]))
    assert got.tobytes() == PchipInterpolator(x, y, extrapolate=False)(
        [-0.0, 0.0]).tobytes()
    assert not np.any(np.signbit(got))


@pytest.mark.parametrize("x", [[0.0, 1.0, 1.0, 2.0], [0.0, 2.0, 1.0, 3.0],
                               [0.0, np.nan, 1.0, 2.0],
                               [0.0, 1.0, 2.0, np.inf]],
                         ids=["repeated", "decreasing", "nan", "inf"])
def test_pchip_rejects_bad_nodes(x):
    with pytest.raises(ValueError):
        PchipInterpolator(x, np.arange(4.0))
    with pytest.raises(ValueError):
        _accel.pchip(x, np.arange(4.0), 0.5)
