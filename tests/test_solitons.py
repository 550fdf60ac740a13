"""Bowl and shrinker profile construction, barriers, and diagnostics."""

import math
import warnings

import numpy as np
import pytest

import gflowlab as gf
from gflowlab import _accel, acceptance
from gflowlab.errors import (NonConvergence, ToleranceFailure,
                             WindowTooNarrow)
from gflowlab.solitons import (lambda_ceiling, neck_constants,
                               shrinker_upper_bound_fit, solve_bowl,
                               solve_shrinker)


# -- bowl ---------------------------------------------------------------------

def test_bowl_tip_curvature_sum(bowl_sum3, sum3):
    # umbilic tip: speed 1/2 at (m,...,m) forces m = 1/(2 F(1,1)) = 1/6
    assert bowl_sum3.tip_curvature == pytest.approx(1.0 / 6.0, rel=1e-6)


def test_bowl_tip_curvature_bh(bowl_bh3, bh3):
    # F(1,1) = 2/3 by pair summation, so the tip curvature is 3/4
    assert bh3.F11 == pytest.approx(2.0 / 3.0)
    assert bowl_bh3.tip_curvature == pytest.approx(0.75, rel=1e-6)


def test_bowl_gradient_tail(bowl_sum3):
    # zeta_rho ~ rho/4 - 2/rho at rho = 1000: deviation from the linear
    # part matches the -2/rho term to 5%
    dev = float(bowl_sum3.poly(1000.0, 1)) - 1000.0 / 4.0
    assert dev == pytest.approx(-2.0 / 1000.0, rel=0.05)


def test_bowl_strictly_convex_increasing(bowl_sum3):
    # grid carries the exact tip node rho = 0
    assert bowl_sum3.rho[0] == 0.0 and bowl_sum3.zeta[0] == 0.0
    assert np.all(bowl_sum3.zeta_rho[1:] > 0)
    assert np.all(bowl_sum3.zeta_rhorho > 0)
    lo, hi = bowl_sum3.gradient_ratio_bounds()
    assert 0 < lo <= hi < math.inf


def test_bowl_residuals(bowl_sum3, bowl_bh3):
    # residuals are in units of the integrator's tolerance promise
    assert float(np.max(bowl_sum3.residual_norms())) <= 10.0
    assert float(np.max(bowl_bh3.residual_norms())) <= 10.0


def test_residual_detects_wrong_equation(shrinker_sum3_a50):
    # evaluating the shrinker data against the a = inf right-hand side
    # must blow the defect up by many orders of magnitude
    from gflowlab.solitons import _collocation_defect
    p = shrinker_sum3_a50
    wrong = _collocation_defect(p.speed, 0.0, p.poly, p.rtol, p.rtol * 1e-2)
    assert float(np.max(wrong)) > 1e6


def test_bowl_monitor_identity(bowl_sum3):
    assert bowl_sum3.monitor.identity_gap <= 1e-8
    assert bowl_sum3.monitor.bounded


@pytest.mark.parametrize("name, rho_max", [("bh3", 2000.0), ("sum3", 5000.0),
                                           ("bh3", 1e4), ("bh3", 1e5),
                                           ("sum3", 1e5)])
def test_bowl_long_tail(request, name, rho_max):
    # the stiff tail: no node ceiling, the residual stays within tolerance
    # however far out, and the profile is O(steps) in memory: LSODA takes
    # ~1,500 steps to rho = 1e5
    speed = request.getfixturevalue(name)
    bowl = solve_bowl(speed, rho_max=rho_max, tol=1e-10)
    assert bowl.rho[-1] == rho_max
    assert bowl.rho.size < 4000
    assert float(np.max(bowl.residual_norms())) <= 10.0
    assert bowl.monitor.bounded
    assert bowl.tip_curvature == pytest.approx(1.0 / (2.0 * speed.F11),
                                               rel=1e-6)


@pytest.mark.parametrize("tol", [1e-5, 1e-6])
def test_loose_bowl_to_far_tail_passes_its_checks(bh3, tol):
    # the cone margin shrinks like 1/rho^2, yet at LSODA's rtol 7e-9 and
    # 7e-10 the bh bowl reaches rho = 1e5 inside the cone and passes the
    # bowl command's residual and monitor checks
    bowl = solve_bowl(bh3, rho_max=1e5, tol=tol)
    assert bowl.rho[-1] == 1e5
    assert float(np.max(bowl.residual_norms())) <= 10.0
    assert bowl.monitor.bounded


def test_bowl_tip_on_short_range(bh3):
    # rho_max barely past the regularized start: the Richardson stations
    # must stay inside the solved range instead of extrapolating below it
    bowl = solve_bowl(bh3, rho_max=2e-4, tol=1e-10)
    assert bowl.tip_curvature == pytest.approx(0.75, rel=1e-6)
    assert float(np.max(bowl.residual_norms())) <= 10.0


def test_profile_solver_failure_names_cause(sum3):
    # zero error weight on psi (psi0 = 0, atol = 0) is illegal input for
    # LSODA: the error quotes the solver and where it stopped
    with pytest.raises(ToleranceFailure, match=r"rho = 1 of 50: .*lsoda"):
        _accel.integrate_profile(sum3, 0.0, 1.0, 0.0, 0.3, 50.0, np.inf,
                                 1e-10, 0.0)


def test_bowl_tolerance_study(sum3):
    # leading 6 digits of zeta(10) agree between tol 1e-10 and 1e-8
    za = float(solve_bowl(sum3, 12.0, tol=1e-10).poly(10.0))
    zb = float(solve_bowl(sum3, 12.0, tol=1e-8).poly(10.0))
    assert abs(za - zb) <= 1e-6 * abs(za)


def test_lambda_ceiling_finite(all_speeds):
    for sp in all_speeds:
        c = lambda_ceiling(sp)
        assert 0 < c < math.inf


# -- shrinker -----------------------------------------------------------------

def test_shrinker_tip_curvature(shrinker_sum3_sweep, sum3):
    # the tip series is exact to second order, so the Richardson estimate
    # sees only the solver's error
    for prof in shrinker_sum3_sweep:
        assert prof.tip_curvature == pytest.approx(
            1.0 / (2.0 * sum3.F11), rel=1e-9), prof.a


def test_shrinker_lower_bound(shrinker_sum3_a50, sum3):
    # v^2 >= 2 F(0,1)(1 - z^2/a^2) at every z node, equality at the tip
    margin = shrinker_sum3_a50.lower_bound_margin()
    assert np.all(margin >= 0.0)
    assert margin[-1] == pytest.approx(0.0, abs=1e-12)
    assert np.all(margin[:-1] > 0.0)


def test_shrinker_shape(shrinker_sum3_a50, sum3):
    prof = shrinker_sum3_a50
    sigma2 = 2.0 * sum3.F01
    assert np.all(prof.v[:-1] ** 2 < sigma2)
    assert prof.v[-1] == 0.0
    # strictly decreasing and concave in z
    assert np.all(np.diff(prof.v) < 0)
    dd = np.diff(prof.v[:-1], 2)
    assert np.all(dd < 1e-12)


def test_shrinker_barriers(shrinker_sum3_a50, sum3):
    prof = shrinker_sum3_a50
    w = prof.theta * prof.rho ** 2 / (4.0 * sum3.F11)
    assert np.all(prof.psi >= w - 1e-9 * (1 + prof.psi))
    assert np.all(prof.rho * prof.psi_rho - prof.psi >= -1e-9 * (1 + prof.psi))
    valid = prof.rho ** 2 < 2 * prof.a ** 2 * (sum3.F01
                                               - sum3.F11 / prof.Theta)
    W = prof.Theta * prof.rho ** 2 / (4.0 * sum3.F11)
    assert np.all(prof.psi[valid] <= W[valid] + 1e-9 * (1 + prof.psi[valid]))


def test_shrinker_monitor_and_residuals(shrinker_sum3_a50):
    assert shrinker_sum3_a50.monitor.identity_gap <= 1e-8
    assert shrinker_sum3_a50.monitor.bounded
    assert float(np.max(shrinker_sum3_a50.residual_norms())) <= 10.0


def test_shrinker_inversion_round_trip(shrinker_sum3_a50):
    # |h(v(z)) - z| <= 1e-10 by construction of the monotone inversion
    assert shrinker_sum3_a50.inversion_error <= 1e-10


def test_shrinker_vectorized_inversion(shrinker_sum3_a50):
    from scipy.optimize import brentq
    p = shrinker_sum3_a50
    assert np.all(np.diff(p.rho_of_z) < 0.0)  # z up, rho down to the tip
    targets = np.minimum(p.a * (p.a - p.z[:-1]), p.psi[-1])
    back = p.poly(p.rho_of_z[:-1])
    assert np.max(np.abs(back - targets)) <= 1e-12 * p.a
    # scalar brentq per node on the profile polynomial is the reference,
    # within twice its xtol
    j = np.clip(np.searchsorted(p.psi, targets), 1, p.rho.size - 1)
    ref = [brentq(lambda r: float(p.poly(r)) - t, p.rho[i - 1], p.rho[i],
                  xtol=1e-13, rtol=1e-15) for t, i in zip(targets, j)]
    np.testing.assert_allclose(p.rho_of_z[:-1], ref, rtol=0.0, atol=2e-13)


def test_bowl_radius_of_height_matches_brentq(sum3):
    # the translating-bowl boundary data of `flow --preset bowl-translation`:
    # 2001 heights z - t/2 at the left end of the window over t in [0, 1]
    from scipy.optimize import brentq
    bowl = solve_bowl(sum3, rho_max=60.0, tol=1e-10)
    heights = 5.0 - 0.5 * np.linspace(0.0, 1.0, 2001)
    grid = bowl.radius_of_height()(heights.reshape(1, -1))
    assert grid.shape == (1, 2001)
    j = np.clip(np.searchsorted(bowl.zeta, heights), 1, bowl.rho.size - 1)
    ref = [brentq(lambda r: float(bowl.poly(r)) - h, bowl.rho[i - 1],
                  bowl.rho[i], xtol=1e-13, rtol=1e-15)
           for h, i in zip(heights, j)]
    np.testing.assert_allclose(grid[0], ref, rtol=0.0, atol=2e-13)


def test_monotone_inverse_flat_nodes():
    # zero slopes at the nodes throw Newton out of its bracket near them and
    # put some targets exactly on a node; brentq per target is the reference
    from scipy.interpolate import CubicHermiteSpline
    from scipy.optimize import brentq
    from gflowlab.solitons import _monotone_inverse
    x, y = np.array([0.0, 1.0, 2.0, 3.0]), np.array([0.0, 1.0, 1.5, 10.0])
    spline = CubicHermiteSpline(x, y, [0.0, 0.0, 0.0, 30.0])
    targets = np.linspace(0.0, 10.0, 401)
    roots = _monotone_inverse(spline, x, y, targets)
    j = np.clip(np.searchsorted(y, targets), 1, 3)
    ref = [brentq(lambda r: float(spline(r)) - t, x[i - 1], x[i],
                  xtol=1e-13, rtol=1e-15) for t, i in zip(targets, j)]
    np.testing.assert_allclose(roots, ref, rtol=0.0, atol=1e-12)
    assert np.max(np.abs(spline(roots) - targets)) <= 1e-13


def test_monotone_inverse_rejects_outside_targets(shrinker_sum3_a50):
    from gflowlab.solitons import _monotone_inverse
    p = shrinker_sum3_a50
    ends = _monotone_inverse(p.poly, p.rho, p.psi, [p.psi[0], p.psi[-1]])
    np.testing.assert_allclose(ends, [p.rho[0], p.rho[-1]], rtol=1e-13)
    for bad in (0.5 * p.psi[0], 1.001 * p.psi[-1], np.nan):
        with pytest.raises(ValueError, match="outside the profile's range"):
            _monotone_inverse(p.poly, p.rho, p.psi, [p.psi[1], bad])


def test_shrinker_mesh_refinement(sum3):
    coarse = solve_shrinker(sum3, 25.0, theta=0.9, tol=1e-6)
    fine = solve_shrinker(sum3, 25.0, theta=0.9, tol=5e-7)
    grid = np.geomspace(0.1, 30.0, 200)
    gap = np.max(np.abs(coarse.poly(grid) - fine.poly(grid))
                 / (1.0 + np.abs(fine.poly(grid))))
    assert gap <= coarse.cauchy_gap


def test_shrinker_nonconvergence_raises(sum3):
    # the internal tolerance is floored explicitly: no warning of a
    # tolerance substituted by the solver
    with pytest.raises(NonConvergence), warnings.catch_warnings():
        warnings.simplefilter("error")
        solve_shrinker(sum3, 25.0, theta=0.9, tol=1e-16)


@pytest.mark.parametrize("a", [25.0, 400.0])
@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("kind, k", [("sum", None), ("bh", None),
                                     ("sigma_ratio", 2)])
def test_shrinker_two_solves_converge(kind, k, n, a):
    # primary and check solves pass the Cauchy test across the speed
    # families, and the returned profile meets its own diagnostics
    prof = solve_shrinker(gf.SpeedFunction(kind, n, k), a, theta=0.9, tol=1e-8)
    assert prof.cauchy_gap < prof.tol
    assert prof.monitor.bounded
    assert float(np.max(prof.residual_norms())) <= 10.0


def test_shrinker_matches_subsolution_start(sum3, shrinker_sum3_a50):
    # the existence proof's construction as an oracle: one IVP started on
    # the subsolution theta rho^2/(4 F(1,1)) at rho_k = 2^-12 heals like
    # (rho_k/rho)^3 and lands within tol of the series-started profile
    p = shrinker_sum3_a50
    rk = 2.0 ** -12
    rho_end = (1.0 - 1e-9) * math.sqrt(2.0 * sum3.F01) * p.a
    poly, _ = _accel.integrate_profile(
        sum3, 1.0 / p.a ** 2, rk, p.theta * rk ** 2 / (4.0 * sum3.F11),
        p.theta * rk / (2.0 * sum3.F11), rho_end, p.a * (p.a - p.L0),
        p.rtol, p.rtol * 1e-2)
    grid = np.geomspace(2.0 ** -8, min(poly.x[-1], p.rho[-1]) * (1.0 - 1e-3),
                        400)
    oracle = poly(grid)
    series = p.poly(grid)
    gap = np.max(np.abs(oracle - series) / (1.0 + np.abs(series)))
    assert gap < p.tol


@pytest.mark.parametrize("tol", [1e-6, 1e-8])
@pytest.mark.parametrize("kind, n, k", [("sum", 3, None), ("bh", 3, None),
                                        ("sigma_ratio", 4, 2)])
def test_profile_tolerance_map_margins(kind, n, k, tol):
    # the margins _accel.PROFILE_TOL was chosen by: a cap's Cauchy gap at
    # most a tenth of its gate tol, every collocation defect at most a tenth
    # of its gate 10
    speed = gf.SpeedFunction(kind, n, k)
    cap = solve_shrinker(speed, 25.0, theta=0.9, tol=tol)
    bowl = solve_bowl(speed, 1000.0, tol=tol)
    assert cap.cauchy_gap <= tol / 10
    assert float(np.max(cap.residual_norms())) <= 1.0
    assert float(np.max(bowl.residual_norms())) <= 1.0


def test_floored_tolerances_solve_alike(sum3):
    # tol 3e-11, 2e-11 and 1e-11 all put LSODA's rtol at its floor; atol
    # follows it there, so the three requests make the same solve up to the
    # rounding of atol (with atol shrinking past the floor instead, they
    # differed by 1e-9)
    a, r0 = 50.0, 2.0 ** -8
    rho_end = (1.0 - 1e-9) * math.sqrt(2.0 * sum3.F01) * a
    psi_stop = a * (a - neck_constants(sum3)["L0"])
    tols = (3e-11, 2e-11, 1e-11)
    assert all(_accel.profile_tolerances(tol)[0] == _accel.RTOL_FLOOR
               for tol in tols)
    polys = [_accel.integrate_profile(
                 sum3, 1.0 / a ** 2, r0, r0 ** 2 / (4.0 * sum3.F11),
                 r0 / (2.0 * sum3.F11), rho_end, psi_stop,
                 *_accel.profile_tolerances(tol))[0]
             for tol in tols]
    grid = np.geomspace(r0, 0.999 * min(p.x[-1] for p in polys), 400)
    ref = polys[0](grid)
    for poly in polys[1:]:
        assert np.max(np.abs(poly(grid) - ref) / (1.0 + ref)) <= 1e-12


def test_shrinker_theta_window_checked(sum3, bh3):
    with pytest.raises(ValueError):
        solve_shrinker(sum3, 25.0, theta=1.2, tol=1e-8)
    # bh n=3 has Q = 2, so theta must exceed F(1,1)/Q = 1/3
    with pytest.raises(ValueError):
        solve_shrinker(bh3, 25.0, theta=0.2, tol=1e-8)


@pytest.mark.parametrize("solve,args,kwargs,name", [
    (solve_bowl, (20.0,), {"tol": 0.0}, "tol"),
    (solve_bowl, (20.0,), {"tol": math.nan}, "tol"),
    (solve_shrinker, (50.0,), {"theta": 0.9, "tol": math.nan}, "tol"),
])
def test_profile_tolerances_must_be_finite_positive(sum3, solve, args,
                                                    kwargs, name):
    # a zero or NaN tolerance reached the solver and came back as a
    # ConeExit (or a ZeroDivisionError) that named no input
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        solve(sum3, *args, **kwargs)


# -- w diagnostic --------------------------------------------------------------

def test_w_lower_bound_and_tip(shrinker_sum3_a100, sum3):
    diag = gf.shrinker_w_diagnostic(shrinker_sum3_a100, M=50.0)
    assert diag.lower_ok
    assert diag.min_margin > 0.0
    # tip limit 2 F(1,1)/F(0,1) = 3 for the sum speed with n = 3
    assert diag.tip_target == pytest.approx(3.0)
    assert diag.tip_limit == pytest.approx(3.0, rel=0.02)


def test_w_upper_barrier(shrinker_sum3_a100):
    diag = gf.shrinker_w_diagnostic(shrinker_sum3_a100, M=50.0)
    assert diag.upper_window is not None
    assert diag.upper_ok


def test_w_upper_barrier_window_follows_M(shrinker_sum3_a100):
    # the window ends at the height z_{M,a} = a - psi(M)/a of rho = M
    prof = shrinker_sum3_a100
    ends = {}
    for M in (20.0, 50.0):
        diag = gf.shrinker_w_diagnostic(prof, M=M)
        assert diag.upper_ok
        ends[M] = diag.upper_window[1]
        assert ends[M] == pytest.approx(prof.a - prof.poly(M) / prof.a,
                                        rel=1e-14)
    assert ends[20.0] > ends[50.0]


def test_w_mid_neck_window(shrinker_sum3_a100, sum3):
    # w at the inner end of the window sits in (2, 2 + K w1]
    prof = shrinker_sum3_a100
    z0 = prof.z[0]
    w0 = prof.w[0]
    bound = 2.0 + prof.K * (1.0 / z0 ** 2
                            + 1.0 / (prof.a ** 2 - z0 ** 2))
    assert 2.0 < w0 <= bound


def test_neck_constants_sum(sum3):
    # dgamma^1(t,1,...,1) = 1 for the linear speed, so c = 1 and K = 17
    consts = neck_constants(sum3)
    assert consts["c"] == pytest.approx(1.0, rel=1e-9)
    assert consts["K"] == pytest.approx(17.0, rel=1e-9)
    assert consts["L0"] == pytest.approx(math.sqrt(17.0) + 1.0, rel=1e-9)


def ladder_c(speed):
    """c = 1 / sup_{t>=0} F_x(t, 1), the sup taken on a logarithmic ladder
    of 1,501 points t in {0} and [1e-6, 1e8], without using concavity."""
    t = np.concatenate(([0.0], np.logspace(-6.0, 8.0, 1500)))
    return float(1.0 / np.asarray(speed.Fx(t, 1.0)).max())


def test_c_is_exact():
    # F(., 1) is linear or concave, so F_x(., 1) peaks at 0 and c = 1/a_lin
    for kind, n, k in [("sum", 2, None), ("sum", 3, None), ("sum", 4, None),
                       ("sum", 6, None), ("bh", 3, None), ("bh", 4, None),
                       ("bh", 6, None), ("sigma_ratio", 3, 2),
                       ("sigma_ratio", 4, 1), ("sigma_ratio", 4, 2),
                       ("sigma_ratio", 5, 2), ("sigma_ratio", 5, 3),
                       ("sigma_ratio", 6, 4)]:
        sp = gf.SpeedFunction(kind, n, k)
        assert neck_constants(sp)["c"] == 1.0 / sp.a_lin == ladder_c(sp)


# -- upper bound and convergence to the bowl -----------------------------------

def test_upper_bound_fit_sweep(shrinker_sum3_sweep):
    rep = gf.fit_shrinker_neck(shrinker_sum3_sweep, L=15.0)["upper"]
    assert rep["stable"]
    cs = [r["C_fit"] for r in rep["rows"]]
    assert all(c > 0 for c in cs)
    assert max(cs[-3:]) <= 2.0 * min(cs[-3:])


def test_upper_bound_fit_needs_a_node_below_L(shrinker_sum3_a50):
    z_min = float(shrinker_sum3_a50.z[0])
    for L in (0.5 * z_min, -1.0, math.nan):
        with pytest.raises(WindowTooNarrow, match="lowest solved height"):
            shrinker_upper_bound_fit(shrinker_sum3_a50, L=L)


def test_w_diagnostic_rejects_bad_M(shrinker_sum3_a50):
    # M = -5 once read the step polynomials outside the solved range
    for M in (-5.0, 0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="M must be finite and positive"):
            gf.shrinker_w_diagnostic(shrinker_sum3_a50, M=M)


def test_upper_bound_strict_inside(shrinker_sum3_a100):
    # at z = z_min the fitted inequality is strict for large a
    c = shrinker_upper_bound_fit(shrinker_sum3_a100, L=15.0)
    prof = shrinker_sum3_a100
    a = prof.a
    la = math.log(a) / a ** 2
    rhs = 2.0 * prof.speed.F01 * (
        1.0 - (1.0 - c * la) * (prof.z[0] ** 2 - c) / a ** 2)
    assert prof.v[0] ** 2 < rhs


def test_shrinker_to_bowl():
    # criterion 5: the `shrinker` caps a = 25, 50, 100 against the
    # `bowl --speed sum` profile on rho in [0.05, 10]
    rows = acceptance.run_criterion(5).details["rows"]
    assert [r["a"] for r in rows] == [25.0, 50.0, 100.0]
    gaps = [r["sup_gap"] for r in rows]
    dgaps = [r["sup_gap_rho"] for r in rows]
    assert gaps[0] > gaps[1] > gaps[2]
    assert dgaps[0] > dgaps[1] > dgaps[2]
    assert gaps[2] < 0.25 * gaps[0]


def test_shrinker_and_bowl_share_tip(sum3, bowl_sum3, shrinker_sum3_a50):
    # both tip curvatures equal 1/(2 F(1,1)) independent of a
    assert bowl_sum3.tip_curvature == pytest.approx(
        shrinker_sum3_a50.tip_curvature, rel=1e-5)


def test_w_finite_on_valid_profile(shrinker_sum3_a50):
    # w is only undefined where v^2 >= 2F(0,1), which a valid profile
    # never reaches
    diag = gf.shrinker_w_diagnostic(shrinker_sum3_a50, M=50.0)
    assert np.all(np.isfinite(diag.w))


def test_shrinker_other_speeds(bh3, sr24):
    # the construction and its diagnostics hold across the speed families
    for sp in (bh3, sr24):
        prof = solve_shrinker(sp, 40.0, theta=0.9, tol=1e-8)
        target = 1.0 / (2.0 * sp.F11)
        assert prof.tip_curvature == pytest.approx(target, rel=1e-6)
        assert np.all(prof.lower_bound_margin() >= 0.0)
        diag = gf.shrinker_w_diagnostic(prof, M=50.0)
        assert diag.lower_ok
        assert diag.tip_limit == pytest.approx(2.0 * sp.F11 / sp.F01,
                                               rel=0.02)
        assert prof.monitor.bounded
        assert float(np.max(prof.residual_norms())) <= 10.0
