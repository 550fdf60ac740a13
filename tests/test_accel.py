"""The profile driver's stop, the stepping clock and the graph Jacobian."""

import numpy as np
import pytest

from gflowlab import _accel
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
    from scipy.integrate import LSODA
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


def test_step_polynomials_match_lsoda_dense_output():
    # StepPolynomials reads each step off LSODA's private work arrays; a
    # second solver stepped alongside gives every step's dense_output(),
    # which must match bit for bit, rescaled order-decrease steps included
    from scipy.integrate import LSODA
    from scipy.integrate._ivp.lsoda import LsodaDenseOutput
    sp = SpeedFunction("sum", 3)
    p0, p1, p2 = sp.params

    def rhs(rho, y):
        return [y[1], _accel._profile_slope(sp.kind, p0, p1, p2, 0.0, rho,
                                            y[0], y[1])]

    def jac(rho, y):
        j21, j22 = _accel._profile_jacobian(sp.kind, p0, p1, p2, 0.0, rho,
                                            y[0], y[1])
        return [[0.0, 1.0], [j21, j22]]

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
    p0, p1, p2 = sp.params
    z = np.linspace(-3.0, 3.0, 31)
    dz = z[1] - z[0]
    v = 2.0 + 0.3 * np.sin(z) + 0.1 * z

    def rhs(vals):
        return _accel.graph_rhs(sp.kind, p0, p1, p2, sp.cone_factor, mode,
                                vals, z, dz)[0]

    vz, x, y = _accel._discrete_pair(v, dz, sp.cone_factor)
    f, g, fx = _accel._rhs_terms(sp.kind, p0, p1, p2, mode, v, z, vz, x, y)
    np.testing.assert_array_equal(f, rhs(v))
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
