"""Kernel status codes, the profile driver's stop and the stepping clock."""

import numpy as np
import pytest

from gflowlab import _accel
from gflowlab.speeds import SpeedFunction


def test_status_codes_distinct():
    codes = {_accel.STATUS_OK, _accel.STATUS_STOP, _accel.STATUS_CONE,
             _accel.STATUS_SOLVER, _accel.STATUS_PINCH, _accel.STATUS_CFL}
    assert len(codes) == 6


def _bowl_sum3(rho_end, psi_stop):
    """integrate_profile on the sum n=3 bowl from its tip series at 1e-4."""
    sp = SpeedFunction("sum", 3)
    r0 = 1e-4
    return _accel.integrate_profile(
        sp.code, *sp.params, sp.F01, np.inf, 0.0,
        r0, r0 ** 2 / (4.0 * sp.F11), r0 / (2.0 * sp.F11), rho_end, psi_stop,
        1e-10, 1e-12, 0.05, 0.0)


def test_profile_driver_runs_to_rho_end():
    status, n, (rho, psi, psip, psipp), rho_reached, _ = _bowl_sum3(
        20.0, np.inf)
    assert status == _accel.STATUS_OK
    assert n == rho.size
    assert rho_reached == rho[-1] == 20.0


def test_profile_driver_stops_at_psi_stop():
    psi_stop = 30.0
    status, n, (rho, psi, psip, psipp), rho_reached, _ = _bowl_sum3(
        20.0, psi_stop)
    assert status == _accel.STATUS_STOP
    assert rho_reached == rho[-1] < 20.0
    assert np.all(psi[:-1] < psi_stop)
    assert abs(psi[-1] - psi_stop) <= 4.0 * np.finfo(float).eps * psi_stop


def test_lsoda_dense_output_fields():
    # integrate_profile samples each step's Nordsieck array itself
    from scipy.integrate import LSODA
    from scipy.integrate._ivp.lsoda import LsodaDenseOutput
    solver = LSODA(lambda t, y: -y, 0.0, [1.0, 2.0], 1.0)
    solver.step()
    piece = solver.dense_output()
    assert isinstance(piece, LsodaDenseOutput), (
        "scipy's LSODA dense output changed class; integrate_profile's "
        "sampler reads LsodaDenseOutput.yh, .t and .h")
    for name in ("yh", "t", "h"):
        assert hasattr(piece, name), (
            f"scipy's LsodaDenseOutput lost .{name}, which "
            "integrate_profile's sampler reads")
    assert piece.t == solver.t
    assert piece.yh.shape[0] == 2
    np.testing.assert_array_equal(piece.yh[:, 0], solver.y)


def test_stepping_loop_time_stamps_exact():
    # 12,000 steps of 5e-4 end exactly at t = 6 (summing dt drifts below it)
    rec, rec_t = np.empty((2, 3)), np.empty(2)
    status, nrec, nsteps = _accel._stepping_loop(
        lambda v, s: _accel.STATUS_OK, np.ones(3), 5e-4, 12000, 0.0, 12000,
        rec, rec_t)
    assert (status, nrec, nsteps) == (_accel.STATUS_OK, 2, 12000)
    assert rec_t[-1] == 6.0


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
        ok, out, _ = _accel.graph_rhs(sp.code, p0, p1, p2, sp.cone_factor,
                                      mode, vals, z, dz)
        assert ok
        return out

    ok, vz, x, y = _accel._discrete_pair(v, dz, sp.cone_factor)
    f, g, fx = _accel._rhs_terms(sp.code, p0, p1, p2, mode, v, z, vz, x, y)
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
