"""Asymptotic tail fits: bowl expansion, shrinker neck bounds, decay rates."""

import math

import numpy as np
import pytest
from scipy.special import erf

import gflowlab as gf
from gflowlab.errors import WindowTooNarrow, WindowTooShort
from gflowlab.fits import (fit_bowl_expansion, fit_shrinker_neck,
                           measure_rescaled_decay)
from gflowlab.flow import (BoundaryCondition, RadialFlowState,
                           cylinder_radius, run_flow)
from gflowlab.spectral import build_basis


def test_bowl_expansion_sum(bowl_sum3):
    fit = fit_bowl_expansion(bowl_sum3, (100.0, 1000.0))
    assert fit.coefficients["c2"] == pytest.approx(-2.0, rel=0.05)
    # residual small against the smallest retained term |c2|/rho_hi
    assert fit.residual <= 0.01 * abs(fit.coefficients["c2"]) / 100.0


def test_bowl_expansion_sum_n2():
    # dgamma^1 = 1 independent of n for the linear speed
    bowl = gf.solve_bowl(gf.SpeedFunction("sum", 2), 1000.0, tol=1e-10)
    fit = fit_bowl_expansion(bowl, (100.0, 1000.0))
    assert fit.coefficients["c2"] == pytest.approx(-2.0, rel=0.05)


def test_bowl_expansion_bh(bowl_bh3, bh3):
    fit = fit_bowl_expansion(bowl_bh3, (100.0, 1000.0))
    # target -2 dgamma^1(0,1,1) = -0.64 from the finite-difference oracle
    h = 1e-6
    lam = np.array([0.0, 1.0, 1.0])
    fd = (bh3.gamma(lam + [h, 0, 0]) - bh3.gamma(lam - [h, 0, 0])) / (2 * h)
    assert fit.coefficients["c2"] == pytest.approx(-2.0 * fd, rel=0.05)


def test_fit_window_guards(bowl_sum3):
    with pytest.raises(WindowTooNarrow):
        fit_bowl_expansion(bowl_sum3, (100.0, 500.0))
    with pytest.raises(WindowTooNarrow):
        fit_bowl_expansion(bowl_sum3, (5.0, 1000.0))
    with pytest.raises(WindowTooNarrow):
        fit_bowl_expansion(bowl_sum3, (200.0, 2000.0))


def test_fit_resolution_invariance(sum3):
    # the fitted coefficient moves by < 1% under tolerance refinement
    vals = []
    for tol in (1e-8, 1e-10):
        bowl = gf.solve_bowl(sum3, 1000.0, tol=tol)
        vals.append(fit_bowl_expansion(bowl, (100.0, 1000.0))
                    .coefficients["c2"])
    assert abs(vals[0] - vals[1]) <= 0.01 * abs(vals[1])


def test_shrinker_neck_report(shrinker_sum3_sweep):
    profiles = shrinker_sum3_sweep
    for prof in profiles:
        assert float(np.max(prof.residual_norms())) <= 10.0, prof.a
        assert float(np.min(prof.lower_bound_margin())) >= 0.0, prof.a
    rep = fit_shrinker_neck(profiles, L=15.0)
    assert rep["upper"]["stable"]
    cs = [row["C_fit"] for row in rep["upper"]["rows"]]
    assert max(cs[-3:]) <= 2.0 * min(cs[-3:])


def test_shrinker_neck_sweep_to_1600(sum3, shrinker_sum3_sweep):
    # the neck bounds hold further out in a, and the fitted upper-bound
    # constant settles as a grows
    profiles = [*shrinker_sum3_sweep[2:],
                *(gf.solve_shrinker(sum3, a, theta=0.9, tol=1e-8)
                  for a in (800.0, 1600.0))]
    for prof in profiles:
        assert float(np.min(prof.lower_bound_margin())) >= 0.0, prof.a
    rep = fit_shrinker_neck(profiles, L=15.0)
    assert rep["upper"]["stable"]
    cs = [row["C_fit"] for row in rep["upper"]["rows"]]
    assert all(hi >= lo for hi, lo in zip(cs, cs[1:])), cs


def test_shrinker_neck_sweep_guard(sum3, shrinker_sum3_sweep):
    profiles = [*shrinker_sum3_sweep[:2],
                gf.solve_shrinker(sum3, 150.0, theta=0.9, tol=1e-8),
                shrinker_sum3_sweep[2]]
    with pytest.raises(WindowTooNarrow):
        fit_shrinker_neck(profiles, L=15.0)


def _rescaled_run(speed, u0_fn, T, delta=0.06, window=18.0):
    sigma = cylinder_radius(speed)
    z = np.linspace(-window, window, int(round(2 * window / delta)) + 1)
    st = RadialFlowState("rescaled", z, sigma + u0_fn(z), 0.0, speed)
    nsteps = int(round(20 * T))
    return run_flow(st, T / nsteps, nsteps,
                    bc=BoundaryCondition(mode="frozen"),
                    scheme="semi_implicit",
                    record_every=max(1, nsteps // 100))


def test_decay_rate_k1_mode(sum3):
    basis = build_basis(sum3.a_lin, K=4, quad_order=40)
    hist = _rescaled_run(sum3, lambda z: 1e-5 * basis.value(1, z), 7.0)
    res = measure_rescaled_decay(hist, L=4.0)
    assert res["slope"] == pytest.approx(0.5, abs=0.01)


def test_decay_rate_monotone_seed(sum3):
    # monotone noncompact-side profile: the bowl-consistent rate is 1/2
    hist = _rescaled_run(
        sum3, lambda z: -1e-5 * erf(z / (2 * math.sqrt(sum3.a_lin))), 7.0)
    res = measure_rescaled_decay(hist, L=4.0)
    assert 0.4 <= res["slope"] <= 0.6


def test_decay_cylinder_fixed_point(sum3):
    hist = _rescaled_run(sum3, lambda z: 0.0 * z, 7.0)
    res = measure_rescaled_decay(hist, L=4.0)
    assert res["fixed_point"]
    assert res["slope"] is None


def test_decay_window_guard(sum3):
    hist = _rescaled_run(sum3, lambda z: 0.0 * z, 2.0)
    with pytest.raises(WindowTooShort):
        measure_rescaled_decay(hist, L=4.0)
