"""Near-cylinder expansion checks on rotationally symmetric normal graphs."""

import numpy as np
import pytest
from scipy.interpolate import CubicHermiteSpline

import gflowlab as gf
from gflowlab.errors import ConeViolation
from gflowlab.geometry import (CylinderGraph, expansion_error_G, trace_gamma,
                               trace_gamma_expansion_error)

Z = np.linspace(-6.0, 6.0, 241)


def _gauss_graph(radius, amp):
    return CylinderGraph.from_callable(
        radius, Z,
        lambda z: amp * np.exp(-z ** 2),
        lambda z: -2.0 * z * amp * np.exp(-z ** 2),
        lambda z: amp * (4.0 * z ** 2 - 2.0) * np.exp(-z ** 2))


def test_zero_graph_reproduces_cylinder():
    g = CylinderGraph.from_callable(2.0, Z, lambda z: 0.0 * z,
                                    lambda z: 0.0 * z, lambda z: 0.0 * z)
    kax, krot = g.exact_curvatures()
    assert np.all(kax == 0.0)
    assert np.allclose(krot, 0.5, rtol=0, atol=0)


def test_constant_offset_closed_form():
    # u = c: the exact curvatures are (0, 1/(r+c))
    r = 2.0
    for c in (0.05, 0.025):
        g = CylinderGraph.from_callable(r, Z, lambda z: c + 0.0 * z,
                                        lambda z: 0.0 * z, lambda z: 0.0 * z)
        kax, krot = g.exact_curvatures()
        assert np.all(kax == 0.0)
        assert np.allclose(krot, 1.0 / (r + c), rtol=1e-15, atol=0)


def test_expansion_G_scale_stable(bh3):
    ratios = [expansion_error_G(_gauss_graph(2.0, 0.01 * 2.0 ** -j),
                                bh3).ratio for j in range(6)]
    for r in ratios:
        assert abs(r / ratios[-1] - 1.0) < 0.2


def test_smallness_precondition_enforced(sum3):
    big = _gauss_graph(2.0, 0.5)
    with pytest.raises(ValueError, match="smallness"):
        expansion_error_G(big, sum3)


def test_G_expansion_linear_speed_structure(sum3):
    # for the linear speed the u_zz-term of the expansion is exact up to
    # the normalization factors, leaving O(u_z^2 + u^2) error
    g = _gauss_graph(2.0, 0.01)
    rep = expansion_error_G(g, sum3)
    denom_no_uzz = np.max(g.u ** 2 / 8.0 + g.u_z ** 2 / 2.0)
    assert rep.sup_error <= 3.0 * denom_no_uzz


def test_trace_cone_violation():
    # within the smallness window of the expansions the curvature pair
    # cannot leave the cone (r |u_zz| would have to reach 1), so the guard
    # is exercised through trace_gamma on a strongly dimpled graph
    g = CylinderGraph.from_callable(
        2.0, Z, lambda z: 0.9 * np.cos(4.0 * z),
        lambda z: -3.6 * np.sin(4.0 * z),
        lambda z: -14.4 * np.cos(4.0 * z))
    with pytest.raises(ConeViolation):
        trace_gamma(g, gf.SpeedFunction("bh", 3), 1.0, 1.0)


# -- trace_gamma -------------------------------------------------------------

def test_trace_euler_identity(bh3):
    g = _gauss_graph(2.0, 0.01)
    kax, krot = g.exact_curvatures()
    tg = trace_gamma(g, bh3, kax, krot)
    gam = np.array([bh3.F(a, b) for a, b in zip(kax, krot)])
    assert np.allclose(tg, gam, rtol=1e-12)


def test_trace_diagonal_exact_at_cylinder(bh3):
    g = CylinderGraph.from_callable(2.0, Z, lambda z: 0.0 * z,
                                    lambda z: 0.0 * z, lambda z: 0.0 * z)
    tg = trace_gamma(g, bh3, 0.7, 0.2)
    grad = bh3.gradient([0.0, 0.5, 0.5])
    assert np.allclose(tg, grad[0] * 0.7 + (grad[1] + grad[2]) * 0.2,
                       rtol=1e-12)


def test_trace_expansion_hessian_direction(bh3):
    g = _gauss_graph(2.0, 0.01)
    rep = trace_gamma_expansion_error(g, bh3, 1.0, 1.0)
    assert rep.ratio < 10.0
    # first-order smallness: halving u roughly halves the error
    g2 = _gauss_graph(2.0, 0.005)
    rep2 = trace_gamma_expansion_error(g2, bh3, 1.0, 1.0)
    assert rep2.ratio == pytest.approx(rep.ratio, rel=0.5)


# -- cross-check against the soliton side ------------------------------------

def test_soliton_curvatures_match_graph_formulas(sum3, shrinker_sum3_a50):
    """Shrinker profile as a normal graph over a tangent cylinder: the
    graph-geometry curvatures must match the ODE-side values to 1e-8."""
    prof = shrinker_sum3_a50
    # cubic Hermite interpolant of v on [z_min, a), tip node excluded
    vint = CubicHermiteSpline(prof.z[:-1], prof.v[:-1], prof.v_z[:-1])
    z0, z1 = 10.0, 14.0
    h = 0.01
    z = np.arange(z0, z1, h)
    v = np.asarray(vint(z))
    rbar = float(np.mean(v))
    graph = CylinderGraph.from_callable(rbar, z, lambda zz: vint(zz) - rbar,
                                        vint.derivative(1),
                                        vint.derivative(2))
    kax_g, krot_g = graph.exact_curvatures()

    # ODE side: v_z from the profile data, v_zz from the inverted equation
    zz = graph.z
    vv = np.asarray(vint(zz))
    idx = np.searchsorted(prof.z, zz)
    v_z = np.empty_like(zz)
    for i, zp in enumerate(zz):
        j = int(np.clip(np.searchsorted(prof.z[:-1], zp), 1,
                        prof.z.size - 2))
        # linear interpolation of the stored exact derivative -1/psi_rho
        t = (zp - prof.z[j - 1]) / (prof.z[j] - prof.z[j - 1])
        v_z[i] = (1 - t) * prof.v_z[j - 1] + t * prof.v_z[j]
    zarg = 0.5 * (vv - zz * v_z)
    v_zz = -(1.0 + v_z ** 2) * np.asarray(sum3.f_closed(1.0 / vv, zarg))
    kax_ode = -v_zz / (1.0 + v_z ** 2) ** 1.5
    krot_ode = 1.0 / (vv * np.sqrt(1.0 + v_z ** 2))
    assert np.max(np.abs(kax_g - kax_ode)) <= 1e-6
    assert np.max(np.abs(krot_g - krot_ode)) <= 1e-6
