"""Hermite eigenbasis, projections, gamma traces and mode classification."""

import math

import numpy as np
import pytest
import sympy
from scipy.interpolate import PchipInterpolator

import gflowlab as gf
from gflowlab.errors import WindowTooShort
from gflowlab.flow import (BoundaryCondition, RadialFlowState, cylinder_radius,
                           line_fit, run_flow, step_plan)
from gflowlab.spectral import (GammaTrace, build_basis, eigen_table,
                               eigenvalue, mode_energies, mode_sign,
                               smooth_cutoff)


def hermite_h(k, x):
    """Physicists' Hermite polynomial H_k (raw, unnormalized): the oracle
    for the basis's normalized recurrence."""
    x = np.asarray(x, dtype=float)
    hkm1 = np.zeros_like(x)
    hk = np.ones_like(x)
    for j in range(k):
        hkm1, hk = hk, 2.0 * x * hk - 2.0 * j * hkm1
    return hk


# -- eigenvalues ---------------------------------------------------------------

def test_eigenvalue_formula():
    # 1 - k/2 - l(l+n-2)/(2(n-1))
    assert eigenvalue(3, 0, 0) == 1.0
    assert eigenvalue(3, 1, 0) == 0.5
    assert eigenvalue(3, 2, 0) == 0.0
    assert eigenvalue(3, 3, 0) == -0.5
    assert eigenvalue(3, 0, 1) == 0.5
    assert eigenvalue(3, 1, 1) == 0.0
    assert eigenvalue(5, 0, 2) == pytest.approx(1.0 - 10.0 / 8.0)


def test_sign_table_all_n():
    positive = {(0, 0), (1, 0), (0, 1)}
    zero = {(2, 0), (1, 1)}
    for n in range(2, 7):
        for k in range(7):
            for l in range(7):
                expected = "+" if (k, l) in positive else \
                    ("0" if (k, l) in zero else "-")
                assert mode_sign(n, k, l) == expected, (n, k, l)


def test_eigen_table_shape():
    tab = eigen_table(3, 6, 6)
    assert tab.shape == (7, 7)
    assert tab[0, 0] == 1.0


# -- basis ----------------------------------------------------------------------

def test_gaussian_weight_normalization():
    # <1, 1> = integral of e^{-z^2/4a} = 2 sqrt(pi a)
    for a in (0.32, 1.0, 2.5):
        basis = build_basis(a, K=4, quad_order=40)
        one = np.ones_like(basis.z)
        assert basis.norm_sq(one) == pytest.approx(
            2.0 * math.sqrt(math.pi * a), rel=1e-13)


def test_orthogonality(sum3):
    basis = build_basis(1.0, K=10, quad_order=40)
    assert basis.gram_error <= 1e-10
    h1 = hermite_h(1, basis.z / 2.0)
    h2 = hermite_h(2, basis.z / 2.0)
    assert abs(np.sum(basis.wz * h1 * h2)) <= 1e-10


def test_eigen_identity_sympy_oracle():
    # direct differentiation: (a d^2/dz^2 - z/2 d/dz) H_k(z/(2 sqrt a))
    # equals -(k/2) H_k(z/(2 sqrt a))
    a_val = sympy.Rational(7, 10)
    z = sympy.symbols("z")
    for k in (1, 2, 3, 5):
        hk = sympy.hermite(k, z / (2 * sympy.sqrt(a_val)))
        action = a_val * sympy.diff(hk, z, 2) - z / 2 * sympy.diff(hk, z)
        diff = sympy.simplify(action + sympy.Rational(k, 2) * hk)
        assert diff == 0


def test_value_matches_normalized_raw_hermite():
    # the recurrence against H_k(z / (2 sqrt a)) / ||H_k||, norm squared
    # 2 sqrt(pi a) 2^k k!
    a = 0.7
    basis = build_basis(a, K=10, quad_order=40)
    z = np.linspace(-9.0, 9.0, 181)
    for k in range(13):
        norm = math.sqrt(2.0 * math.sqrt(math.pi * a) * 2.0 ** k
                         * math.factorial(k))
        oracle = hermite_h(k, z / (2.0 * math.sqrt(a))) / norm
        assert np.allclose(basis.value(k, z), oracle, rtol=1e-12,
                           atol=1e-14 * np.max(np.abs(oracle)))
    # and the same recurrence as the nodal values
    for k in range(11):
        assert np.allclose(basis.value(k, basis.z), basis.values[k],
                           rtol=1e-13, atol=1e-15)


def test_quad_order_guard():
    with pytest.raises(ValueError):
        build_basis(1.0, K=10, quad_order=10)


@pytest.mark.parametrize("a", [math.nan, math.inf, 0.0, -1.0])
def test_build_basis_rejects_a_bad_scale(a):
    # a NaN scale once gave a basis full of NaN: its NaN Gram error passed
    # the orthogonality check
    with pytest.raises(ValueError, match="a must be finite and positive"):
        build_basis(a, K=4, quad_order=40)


def test_quadrature_scaling():
    # doubling quad_order leaves coefficients of band-limited input unchanged
    basis1 = build_basis(1.0, K=6, quad_order=40)
    basis2 = build_basis(1.0, K=6, quad_order=80)
    def u(z):
        return 0.3 * basis1.value(0, z) - 1.2 * basis1.value(3, z)
    c1 = basis1.project(u(basis1.z))
    c2 = basis2.project(u(basis2.z))
    assert float(np.max(np.abs(c1 - c2))) <= 1e-12


# -- projection ---------------------------------------------------------------

def test_constant_is_positive_mode():
    basis = build_basis(1.0, K=6, quad_order=40)
    u = np.ones_like(basis.z)
    plus_sq, zero_sq, minus_sq = mode_energies(basis.project(u))
    assert plus_sq == pytest.approx(basis.norm_sq(u), rel=1e-12)
    assert zero_sq <= 1e-20 and minus_sq <= 1e-20
    assert eigenvalue(3, 0, 0) == 1.0


def test_h2_is_zero_mode():
    # z^2/a - 2 equals H_2 at the scaled argument, the annihilated direction
    a = 0.5
    basis = build_basis(a, K=6, quad_order=40)
    u = basis.z ** 2 / a - 2.0
    zero_sq = mode_energies(basis.project(u))[1]
    assert zero_sq / basis.norm_sq(u) == pytest.approx(1.0, rel=1e-12)


def test_h3_is_negative_mode():
    basis = build_basis(1.0, K=6, quad_order=40)
    u = hermite_h(3, basis.z / 2.0)
    minus_sq = mode_energies(basis.project(u))[2]
    assert minus_sq / basis.norm_sq(u) == pytest.approx(1.0, rel=1e-12)
    assert eigenvalue(3, 3, 0) == -0.5


def test_round_trip_band_limited():
    basis = build_basis(1.0, K=8, quad_order=40)
    rng = np.random.default_rng(3)
    coeffs = rng.normal(size=7)  # degree <= K - 2
    def u(z):
        return sum(c * basis.value(k, z) for k, c in enumerate(coeffs))
    c = basis.project(u(basis.z))
    z = np.linspace(-8, 8, 100)
    recon = sum(ck * basis.value(k, z) for k, ck in enumerate(c))
    assert np.max(np.abs(recon - u(z))) <= 1e-10
    total = basis.norm_sq(u(basis.z))
    tail = max(total - float(np.sum(c ** 2)), 0.0)
    assert tail <= 1e-10 * total + 1e-18


def test_interpolate_samples_block_matches_columns():
    # one PCHIP over a (z, profile) block gives the per-column bits, zero
    # at the nodes outside the sampled range
    basis = build_basis(1.0, K=4, quad_order=40)
    z = np.linspace(-6.0, 6.0, 121)
    block = np.column_stack([np.sin(k * z) * np.exp(-z ** 2 / 8.0)
                             for k in range(1, 6)])
    whole = basis.interpolate_samples(z, block)
    assert whole.shape == (basis.z.size, 5)
    assert np.any(np.abs(basis.z) > 6.0)
    np.testing.assert_array_equal(whole, np.column_stack(
        [basis.interpolate_samples(z, col) for col in block.T]))


def test_parseval_inequality():
    basis = build_basis(1.0, K=4, quad_order=40)
    u = np.cos(3.0 * basis.z)
    c = basis.project(u)
    assert np.sum(c ** 2) <= basis.norm_sq(u) * (1 + 1e-12)


# -- cutoff ------------------------------------------------------------------------

def test_cutoff_shape():
    assert smooth_cutoff(0.0) == 1.0
    assert smooth_cutoff(0.49) == 1.0
    assert smooth_cutoff(1.0) == 0.0
    assert smooth_cutoff(-1.2) == 0.0
    s = np.linspace(-2, 2, 401)
    chi = smooth_cutoff(s)
    # monotone away from the origin: s * chi'(s) <= 0
    dchi = np.gradient(chi, s)
    assert np.all(s * dchi <= 1e-12)


# -- gamma traces -------------------------------------------------------------------

@pytest.fixture(scope="module")
def trace_setup():
    sp = gf.SpeedFunction("sum", 3)
    sigma = cylinder_radius(sp)
    basis = build_basis(sp.a_lin, K=10, quad_order=90)
    delta = 0.06
    z = np.linspace(-18.0, 18.0, int(round(36 / delta)) + 1)

    def run(u0, T=9.0):
        st = RadialFlowState("rescaled", z, sigma + u0, 0.0, sp)
        dt, nsteps = step_plan(sp, delta, T)
        return run_flow(st, dt, nsteps, bc=BoundaryCondition(mode="frozen"),
                        scheme="rk2",
                        record_every=max(1, int(nsteps // (T * 8))))

    return sp, basis, z, run


def test_trace_k0_seed_positive_dominated(trace_setup):
    sp, basis, z, run = trace_setup
    hist = run(1e-6 * basis.value(0, z))
    trace = gf.gamma_trace_from_run(hist, basis, r=0.3, L=10.0)
    ratio = (trace.Gamma_zero + trace.Gamma_minus) / trace.Gamma_plus
    assert ratio[-1] < 1e-3  # -> 0 into the tail
    assert np.all(np.diff(trace.Gamma) <= 1e-18)  # nonincreasing in k
    verdict = gf.merle_zaag_classifier(trace)
    assert verdict["verdict"] == "positive-dominated"
    # sandwich with the measured constant
    s = trace.gamma_plus + trace.gamma_zero + trace.gamma_minus
    C = trace.sandwich_constant
    assert np.all(s <= C * trace.gamma * (1 + 1e-12))
    assert np.all(s >= trace.gamma / C * (1 - 1e-12))


def test_trace_k2_seed_neutral(trace_setup):
    sp, basis, z, run = trace_setup
    hist = run(1e-4 * basis.value(2, z))
    trace = gf.gamma_trace_from_run(hist, basis, r=0.3, L=10.0)
    verdict = gf.merle_zaag_classifier(trace)
    assert verdict["verdict"] == "neutral-dominated"


def test_trace_k1_decay_factor(trace_setup):
    # Gamma^+_{k+1} <= e^{-1} Gamma^+_k with equality approached by the
    # slowest positive mode
    sp, basis, z, run = trace_setup
    hist = run(1e-5 * basis.value(1, z))
    trace = gf.gamma_trace_from_run(hist, basis, r=0.3, L=10.0)
    gp = trace.Gamma_plus
    assert np.all(gp > 0)
    slope, _, _ = line_fit(np.arange(gp.size), np.log(gp))
    assert math.exp(slope) == pytest.approx(math.exp(-1.0), rel=0.10)
    # per-window law holds up to the run's small error terms
    assert np.all(gp[1:] <= math.exp(-1.0) * gp[:-1] * 1.05)


def test_trace_monotone_seed(trace_setup):
    sp, basis, z, run = trace_setup
    u0 = 1e-5 * (basis.value(1, z) + 0.1 * basis.value(3, z))
    assert np.all(np.diff(u0) > 0) or np.all(np.diff(u0) < 0)
    hist = run(u0)
    trace = gf.gamma_trace_from_run(hist, basis, r=0.3, L=10.0)
    assert gf.merle_zaag_classifier(trace)["verdict"] == "positive-dominated"


def test_trace_small_r_is_well_formed(trace_setup):
    # with a small r = 1e-4 the cutoff radius delta^{-r} stays near 1 for
    # finite amplitudes; the trace is still well formed
    sp, basis, z, run = trace_setup
    hist = run(1e-4 * basis.value(0, z), T=4.0)
    trace = gf.gamma_trace_from_run(hist, basis, r=1e-4, L=10.0)
    assert trace.r == 1e-4
    assert np.all(trace.gamma >= 0)
    assert np.all(np.diff(trace.Gamma) <= 1e-18)


def test_trace_matches_per_snapshot_loop():
    # the windowed trace equals, bit for bit, the loop with one PCHIP per
    # snapshot and per window; window edges share their snapshot
    sp = gf.SpeedFunction("sum", 3)
    sigma = cylinder_radius(sp)
    basis = build_basis(sp.a_lin, K=8, quad_order=80)
    z = np.linspace(-14.0, 14.0, 281)
    st = RadialFlowState("rescaled", z, sigma + 1e-4 * basis.value(2, z),
                         0.0, sp)
    hist = run_flow(st, 1.0 / 20, 60, bc=BoundaryCondition(mode="frozen"),
                    scheme="semi_implicit", record_every=1)
    r, L = 0.3, 10.0
    trace = gf.gamma_trace_from_run(hist, basis, r=r, L=L)
    T = hist.times[-1]
    sup_L = hist.sup_deviation(sigma, window=L)
    rows = []
    for j in range(trace.gamma.size):
        chi = smooth_cutoff(np.max(sup_L[hist.times <= T - j]) ** r * basis.z)
        best = np.zeros(4)
        for t, snap in zip(hist.times, hist.snapshots):
            if T - j - 1 <= t <= T - j:
                vals = PchipInterpolator(z, snap - sigma,
                                         extrapolate=False)(basis.z)
                u = np.where(np.isnan(vals), 0.0, vals) * chi
                parts = np.array([basis.norm_sq(u),
                                  *mode_energies(basis.project(u))])
                if parts[0] > best[0]:
                    best = parts
        rows.append(best)
    assert trace.gamma.size == 3
    np.testing.assert_array_equal(
        np.column_stack([trace.gamma, trace.gamma_plus, trace.gamma_zero,
                         trace.gamma_minus]), rows)


def test_trace_window_too_short(trace_setup):
    sp, basis, z, run = trace_setup
    hist = run(1e-5 * basis.value(1, z), T=1.0)
    with pytest.raises(WindowTooShort):
        gf.gamma_trace_from_run(hist, basis, r=0.3, L=10.0)


# -- classifier on synthetic traces ---------------------------------------------

def _synthetic_trace(gamma_plus, gamma_zero, gamma_minus):
    """A trace assembled from raw per-window parts."""
    gp, g0, gm = (np.asarray(g, dtype=float)
                  for g in (gamma_plus, gamma_zero, gamma_minus))
    g = gp + g0 + gm
    return GammaTrace(gamma=g, gamma_plus=gp, gamma_zero=g0, gamma_minus=gm,
                      delta=np.sqrt(g), r=1e-4, sandwich_constant=1.0)


def test_classifier_synthetic_positive():
    k = np.arange(10)
    trace = _synthetic_trace(np.exp(-k), np.exp(-2.0 * k), np.exp(-3.0 * k))
    assert gf.merle_zaag_classifier(trace)["verdict"] == "positive-dominated"


def test_classifier_synthetic_neutral():
    k = np.arange(10)
    trace = _synthetic_trace(0.5 * np.exp(-2.0 * k), np.ones(10),
                             np.exp(-3.0 * k))
    assert gf.merle_zaag_classifier(trace)["verdict"] == "neutral-dominated"


def test_classifier_synthetic_inconclusive():
    trace = _synthetic_trace(np.ones(10), 0.9 * np.ones(10),
                             0.1 * np.ones(10))
    assert gf.merle_zaag_classifier(trace)["verdict"] == "inconclusive"


def test_classifier_needs_windows():
    trace = _synthetic_trace(np.ones(4), np.ones(4), np.ones(4))
    with pytest.raises(WindowTooShort):
        gf.merle_zaag_classifier(trace)
