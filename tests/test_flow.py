"""Graph-flow stepping: regressions against exact solutions, scheme order,
discrete comparison, diagnostics, and the heat-kernel barrier."""

import math

import numpy as np
import pytest
from scipy.interpolate import CubicHermiteSpline

import gflowlab as gf
from gflowlab import _accel, cli
from gflowlab.acceptance import (heat_barrier_psi, heat_barrier_psi_quadrature,
                                 linearize_rescaled_at_cylinder)
from gflowlab.errors import (ConeExit, DomainViolation, Pinch,
                             StabilityViolation)
from gflowlab.flow import (BoundaryCondition, FlowHistory, RadialFlowState,
                           cylinder_radius, level_set_positions, run_flow, shrinking_cylinder_reference,
                           state_from_reference, step_plan,
                           translating_bowl_reference, translation_speed)
from gflowlab.spectral import build_basis


def _rescaled_rhs(st):
    """The rescaled flow's interior right-hand side v_tau at a state."""
    return _accel._rhs_terms(st.speed.forms[0], st.speed.cone_factor, 1,
                             st.values, st.z, st.dz)[0]


def _cylinder_run(speed, r0, delta, t_end, scheme="rk2"):
    ref = shrinking_cylinder_reference(speed, r0)
    st = state_from_reference(speed, ref, -5.0, 5.0, delta)
    bc = BoundaryCondition.from_reference(ref, st.z[0], st.z[-1])
    dt, nsteps = step_plan(speed, delta, t_end)
    return run_flow(st, dt, nsteps, bc=bc, scheme=scheme,
                    record_every=nsteps)


def test_cylinder_regression(sum3):
    # exact solution r^2 = r0^2 - 2 F(0,1) t
    hist = _cylinder_run(sum3, 2.0, 0.025, 0.25)
    exact = math.sqrt(4.0 - 2.0 * sum3.F01 * 0.25)
    assert float(np.max(np.abs(hist.final_state.values - exact))) <= 1e-6


def test_cylinder_order_of_accuracy(sum3):
    errs = []
    for delta in (0.1, 0.05, 0.025):
        hist = _cylinder_run(sum3, 2.0, delta, 0.25)
        exact = math.sqrt(4.0 - 2.0 * sum3.F01 * 0.25)
        errs.append(float(np.max(np.abs(hist.final_state.values - exact))))
    assert errs[0] / errs[1] >= 3.5
    assert errs[1] / errs[2] >= 3.5


@pytest.mark.parametrize("scheme", ["rk2", "semi_implicit"])
def test_run_flow_records_the_final_state(sum3, scheme):
    # a stride that does not divide nsteps still ends on the state at t_end
    ref = shrinking_cylinder_reference(sum3, 2.0)
    st = state_from_reference(sum3, ref, -5.0, 5.0, 0.1)
    bc = BoundaryCondition.from_reference(ref, st.z[0], st.z[-1])
    dt = 1e-3
    hist = run_flow(st, dt, 10, bc=bc, scheme=scheme, record_every=3)
    every = run_flow(st, dt, 10, bc=bc, scheme=scheme, record_every=1)
    assert hist.times[-1] == 10 * dt
    np.testing.assert_array_equal(hist.times, every.times[[0, 3, 6, 9, 10]])
    np.testing.assert_array_equal(hist.snapshots,
                                  every.snapshots[[0, 3, 6, 9, 10]])


def test_run_flow_single_step(sum3):
    ref = shrinking_cylinder_reference(sum3, 2.0)
    st = state_from_reference(sum3, ref, -5.0, 5.0, 0.1)
    bc = BoundaryCondition.from_reference(ref, st.z[0], st.z[-1])
    new = run_flow(st, 1e-4, 1, bc=bc, scheme="rk2",
                   record_every=1).final_state
    assert new.t == pytest.approx(1e-4)
    assert np.all(new.values < st.values)


@pytest.mark.parametrize("dt, nsteps, name", [
    (1e-3, -1, "nsteps"),      # once returned a history at t = -0.001
    (-1e-3, 10, "dt"),         # once stepped the flow backwards
    (math.nan, 10, "dt"),      # once reported as "ellipticity lost"
    (1e-3, 2.5, "nsteps"),     # once a bare numpy TypeError
])
def test_run_flow_rejects_a_step_it_cannot_take(sum3, dt, nsteps, name):
    ref = shrinking_cylinder_reference(sum3, 2.0)
    st = state_from_reference(sum3, ref, -5.0, 5.0, 0.1)
    for scheme in ("rk2", "semi_implicit"):
        with pytest.raises(ValueError, match=f"^{name} must be"):
            run_flow(st, dt, nsteps, scheme=scheme)


def test_cfl_violation_raises(sum3):
    ref = shrinking_cylinder_reference(sum3, 2.0)
    st = state_from_reference(sum3, ref, -5.0, 5.0, 0.1)
    with pytest.raises(StabilityViolation):
        run_flow(st, 0.1, 5, bc=BoundaryCondition(mode="frozen"),
                 scheme="rk2")


def test_cfl_timestep_helper(all_speeds):
    # F_x(0,1) <= 1 for the built-in speeds: the plan is 0.4 delta^2 / 2
    for sp in all_speeds:
        assert step_plan(sp, 0.025, 0.25) == (0.25 / 2000, 2000)


def test_pinch_detected(sum3):
    # drive the exact shrinking cylinder into the configured radius floor
    ref = shrinking_cylinder_reference(sum3, 0.5)
    st = state_from_reference(sum3, ref, -2.0, 2.0, 0.05)
    bc = BoundaryCondition.from_reference(ref, st.z[0], st.z[-1])
    with pytest.raises(Pinch):
        run_flow(st, 2e-5, 3100, bc=bc, r_floor=0.05, scheme="rk2")


def test_cone_exit_detected(sum3):
    z = np.linspace(-2.0, 2.0, 81)
    st = RadialFlowState("radial", z, 2.0 - 1.2 * np.exp(-8 * z ** 2),
                         0.0, sum3)
    with pytest.raises(ConeExit):
        run_flow(st, 1e-4, 10, bc=BoundaryCondition(mode="frozen"),
                 scheme="rk2")


@pytest.mark.parametrize("scheme", ["rk2", "semi_implicit"])
def test_nan_state_stops_at_the_cone_guard(sum3, scheme):
    # NaN compares false with everything; the guard must stop on it
    # rather than step NaN to the end of the run
    z = np.linspace(-2.0, 2.0, 81)
    v = np.full(z.size, 2.0)
    v[40] = np.nan
    st = RadialFlowState("radial", z, v, 0.0, sum3)
    with pytest.raises(ConeExit, match="step 0") as exc:
        run_flow(st, 1e-4, 10, bc=BoundaryCondition(mode="frozen"),
                 scheme=scheme)
    # the NaN reaches the differences at its neighbours: node 39 fails first
    assert str(exc.value).startswith(
        "step 0 of 10 (t = 0): ellipticity lost at z = -0.05:")


def test_bowl_translation(sum3, bowl_sum3):
    ref = translating_bowl_reference(bowl_sum3)
    delta = 0.05
    st = state_from_reference(sum3, ref, 5.0, 25.0, delta)
    bc = BoundaryCondition.from_reference(ref, st.z[0], st.z[-1])
    dt, nsteps = step_plan(sum3, delta, 1.0)
    hist = run_flow(st, dt, nsteps, bc=bc, scheme="rk2",
                    record_every=max(1, nsteps // 40))
    level = float(st.values[st.values.size // 2])
    res = translation_speed(hist, level)
    # bowl-side graph: r_z > 0 and r_zz < 0 along the run
    snap = hist.final_state.values
    assert np.all(np.diff(snap) > 0)
    assert np.all(np.diff(snap, 2) < 0)
    assert res["speed"] == pytest.approx(0.5, abs=1e-3)


def _whole_snapshot_positions(hist, level):
    """The level set read off one pchip through each whole snapshot."""
    out = []
    for v in hist.snapshots:
        zz = hist.z
        if v[0] > v[-1]:
            v, zz = v[::-1], zz[::-1]
        out.append(_accel.pchip(v, zz, level))
    return np.array(out)


def _one_snapshot(sum3, v):
    z = np.linspace(0.0, 1.0, v.size)
    return FlowHistory("radial", z, np.array([0.0]), v[None, :], sum3,
                       "heun")


@pytest.mark.parametrize("family", [["sum", "--n", "3"], ["bh", "--n", "3"],
                                    ["sigma_ratio", "--n", "4", "--k", "2"]],
                         ids=["sum3", "bh3", "sigma_ratio42"])
def test_level_set_positions_match_whole_snapshot_pchip(family):
    # the interval-local read gives the whole snapshot's PCHIP bit for bit
    # on the run that `flow --preset bowl-translation` measures
    hist = cli.compute(["flow", "--preset", "bowl-translation",
                        "--t-end", "1", "--speed", *family])[1]
    level = float(hist.snapshots[0][hist.z.size // 2])
    got = level_set_positions(hist, level)
    assert got.tobytes() == _whole_snapshot_positions(hist, level).tobytes()


_V = 1.0 + np.linspace(0.0, 1.0, 41) ** 2 + 0.1 * np.sin(
    7.0 * np.linspace(0.0, 1.0, 41))


@pytest.mark.parametrize("v, level", [
    (_V, 0.5 * (_V[0] + _V[1])),             # first interval
    (_V, 0.3 * _V[-2] + 0.7 * _V[-1]),       # last interval
    (_V, _V[17]),                            # exactly on a node
    (_V, _V[1]),                             # on the first interior node
    (_V, _V[-2]),                            # on the last interior node
    (_V[::-1].copy(), 0.5 * (_V[3] + _V[4])),  # a decreasing snapshot
    (_V[::-1].copy(), 0.5 * (_V[0] + _V[1])),  # decreasing, at its far end
    (_V[:2], 0.5 * (_V[0] + _V[1])),         # two nodes
    (_V[:3], 0.4 * _V[1] + 0.6 * _V[2]),     # three nodes
], ids=["first", "last", "node", "node1", "node_last", "decreasing",
        "decreasing_end", "two_nodes", "three_nodes"])
def test_level_set_positions_window_cases(sum3, v, level):
    hist = _one_snapshot(sum3, v)
    got = level_set_positions(hist, level)
    assert got.tobytes() == _whole_snapshot_positions(hist, level).tobytes()


@pytest.mark.parametrize("bad", [
    lambda v: np.concatenate([v[:-5], v[-4:-3], v[-5:-4], v[-3:]]),
    lambda v: np.append(v[:-1], np.inf),
], ids=["non_monotone", "non_finite"])
def test_level_set_positions_check_the_whole_snapshot(sum3, bad):
    # a defect far from the crossing still raises the whole call's error
    v = bad(_V)
    level = 0.5 * (v[0] + v[1])
    hist = _one_snapshot(sum3, v)
    with pytest.raises(ValueError) as whole:
        _whole_snapshot_positions(hist, level)
    with pytest.raises(ValueError) as local:
        level_set_positions(hist, level)
    assert type(local.value) is type(whole.value)
    assert str(local.value) == str(whole.value)


def test_ordering_preserved_semi_implicit(sum3, rng):
    violations = 0
    for _ in range(50):
        z = np.linspace(-2.0, 2.0, 41)
        base = 3.0 + 0.05 * rng.normal() * np.sin(rng.uniform(0.3, 0.7) * z)
        bump = np.cos(np.pi * z / 4) ** 2 * rng.uniform(0.01, 0.05)
        bc = BoundaryCondition(mode="dirichlet",
                               left=lambda t, v=base[0]: v,
                               right=lambda t, v=base[-1]: v)
        st1 = RadialFlowState("radial", z, base, 0.0, sum3)
        st2 = RadialFlowState("radial", z, base + bump, 0.0, sum3)
        h1 = run_flow(st1, 2e-4, 5, bc=bc, scheme="semi_implicit",
                      record_every=5)
        h2 = run_flow(st2, 2e-4, 5, bc=bc, scheme="semi_implicit",
                      record_every=5)
        diff = h2.final_state.values[1:-1] - h1.final_state.values[1:-1]
        if np.any(diff <= 0):
            violations += 1
    assert violations == 0


def test_semi_implicit_matches_explicit(sum3):
    # on a smooth state Heun (second order) and ROS3P (third order) agree
    # to O(dt^2)
    ref = shrinking_cylinder_reference(sum3, 2.0)
    st = state_from_reference(sum3, ref, -5.0, 5.0, 0.1)
    bc = BoundaryCondition.from_reference(ref, st.z[0], st.z[-1])
    a = run_flow(st, 1e-4, 50, bc=bc, scheme="rk2").final_state.values
    b = run_flow(st, 1e-4, 50, bc=bc,
                 scheme="semi_implicit").final_state.values
    assert np.max(np.abs(a - b)) <= 1e-5


def test_semi_implicit_cylinder_error(sum3):
    # the CLI preset's own check, at Heun's dt = 1.25e-4
    hist = _cylinder_run(sum3, 2.0, 0.025, 0.25, scheme="semi_implicit")
    exact = math.sqrt(4.0 - 2.0 * sum3.F01 * 0.25)
    err = float(np.max(np.abs(hist.final_state.values - exact)))
    assert err <= 1e-6


def test_semi_implicit_stage_cone_exit(sum3):
    # the start state is admissible; ROS3P's stage at dt = 0.01 is not
    z = np.linspace(-2.0, 2.0, 81)
    st = RadialFlowState("radial", z, 1.0 - 0.9 * np.exp(-2.0 * z ** 2),
                         0.0, sum3)
    _accel._rhs_terms(sum3.forms[0], sum3.cone_factor, 0, st.values, st.z,
                      st.dz)  # no raise
    with pytest.raises(ConeExit, match="step 0"):
        run_flow(st, 0.01, 1, bc=BoundaryCondition(mode="frozen"),
                 scheme="semi_implicit")


@pytest.fixture(scope="module")
def bowl_window(sum3):
    """Criterion 7's window z in [5, 25] on a tight (tol 1e-12) sum n=3
    bowl: (translating reference, state and Dirichlet data at delta)."""
    bowl = gf.solve_bowl(sum3, rho_max=60.0, tol=1e-12)
    ref = translating_bowl_reference(bowl)

    def at(delta):
        st = state_from_reference(sum3, ref, 5.0, 25.0, delta)
        return st, BoundaryCondition.from_reference(ref, st.z[0], st.z[-1])

    return ref, at


def test_heun_spatial_order_bowl_window(sum3, bowl_window):
    # z-dependent data: the O(delta^2) stencil error dominates Heun's
    # O(dt^2) = O(delta^4) time error at the CFL step
    ref, at = bowl_window
    t_end = 0.25
    errs = []
    for delta in (0.1, 0.05, 0.025):
        st, bc = at(delta)
        dt, nsteps = step_plan(sum3, delta, t_end)
        hist = run_flow(st, dt, nsteps, bc=bc, scheme="rk2",
                        record_every=nsteps)
        errs.append(float(np.max(np.abs(hist.final_state.values
                                        - ref(st.z, t_end)))))
    assert errs[0] / errs[1] >= 3.5
    assert errs[1] / errs[2] >= 3.5


def test_semi_implicit_third_order_bowl_window(sum3, bowl_window):
    # fixed delta = 0.05 and time-dependent Dirichlet data; the reference is
    # Heun at half its CFL step, whose time error is ~1e-10 against
    # ROS3P's >= 9e-9 here
    _, at = bowl_window
    st, bc = at(0.05)
    dt, nsteps = step_plan(sum3, 0.05, 1.0)
    tight = run_flow(st, dt / 2, 2 * nsteps, bc=bc,
                     record_every=2 * nsteps, scheme="rk2").final_state.values
    errs = []
    for n in (5, 10, 20, 40):
        hist = run_flow(st, 1.0 / n, n, bc=bc, scheme="semi_implicit",
                        record_every=n)
        errs.append(float(np.max(np.abs(hist.final_state.values - tight))))
    for coarse, fine in zip(errs, errs[1:]):
        assert coarse / fine >= 6.5


def test_unknown_boundary_mode_is_named(sum3):
    ref = shrinking_cylinder_reference(sum3, 2.0)
    st = state_from_reference(sum3, ref, -5.0, 5.0, 0.025)
    for scheme in ("rk2", "semi_implicit"):
        with pytest.raises(ValueError, match="'extrapolate'"):
            run_flow(st, 1e-4, 10, bc=BoundaryCondition(mode="extrapolate"),
                     scheme=scheme)


def test_dirichlet_without_callable_names_the_side(sum3):
    ref = shrinking_cylinder_reference(sum3, 2.0)
    st = state_from_reference(sum3, ref, -5.0, 5.0, 0.1)
    for bc, side in ((BoundaryCondition(mode="dirichlet"), "left"),
                     (BoundaryCondition(mode="dirichlet", left=lambda t: 2.0),
                      "right")):
        with pytest.raises(ValueError, match=f"no {side} callable"):
            run_flow(st, 1e-4, 10, bc=bc, scheme="rk2")


# -- rescaled flow -------------------------------------------------------------

def test_cylinder_fixed_point(sum3):
    sigma = cylinder_radius(sum3)
    z = np.linspace(-10.0, 10.0, 201)
    st = RadialFlowState("rescaled", z, np.full(z.size, sigma), 0.0, sum3)
    assert float(np.max(np.abs(_rescaled_rhs(st)))) == 0.0
    new = run_flow(st, 1e-3, 1, bc=BoundaryCondition(mode="frozen"),
                   record_every=1, scheme="rk2").final_state
    assert np.max(np.abs(new.values - sigma)) == 0.0
    hist = run_flow(st, 0.1, 10, bc=BoundaryCondition(mode="frozen"),
                    scheme="semi_implicit")
    assert np.max(np.abs(hist.snapshots - sigma)) == 0.0


def test_shrinker_stationarity_refinement(sum3, shrinker_sum3_a50):
    prof = shrinker_sum3_a50
    # cubic Hermite interpolant of v on [z_min, a), tip node excluded
    vint = CubicHermiteSpline(prof.z[:-1], prof.v[:-1], prof.v_z[:-1])
    residuals = []
    for delta in (0.1, 0.05, 0.025):
        n = int(round(22.0 / delta)) + 1
        z = np.linspace(8.0, 30.0, n)
        st = RadialFlowState("rescaled", z, np.asarray(vint(z)), 0.0, sum3)
        residuals.append(float(np.max(np.abs(_rescaled_rhs(st)))))
    assert residuals[0] / residuals[1] > 3.5
    assert residuals[1] / residuals[2] > 3.5


def test_k0_mode_growth_rate(sum3):
    sigma = cylinder_radius(sum3)
    basis = build_basis(sum3.a_lin, K=4, quad_order=40)
    delta = 0.05
    z = np.linspace(-14.0, 14.0, int(round(28 / delta)) + 1)
    st = RadialFlowState("rescaled", z, sigma + 1e-4 * basis.value(0, z),
                         0.0, sum3)
    dt, nsteps = step_plan(sum3, delta, 1.0)
    hist = run_flow(st, dt, nsteps, bc=BoundaryCondition(mode="frozen"),
                    record_every=max(1, nsteps // 20), scheme="rk2")
    sup = hist.sup_deviation(sigma, window=4.0)
    slope = float(np.polyfit(hist.times, np.log(sup), 1)[0])
    assert slope == pytest.approx(1.0, rel=0.05)


def test_sup_deviation_window_without_nodes(sum3):
    st = RadialFlowState("rescaled", np.linspace(-3.0, 3.0, 6),
                         np.full(6, 2.0), 0.0, sum3)
    hist = run_flow(st, 1e-3, 1, bc=BoundaryCondition(mode="frozen"),
                    record_every=1, scheme="rk2")
    assert np.all(hist.sup_deviation(2.0, window=1.2) == 0.0)
    for window in (0.5, -1.0):
        with pytest.raises(ValueError,
                           match=f"window \\|z\\| <= {window:g} holds no"):
            hist.sup_deviation(2.0, window=window)


def test_semi_implicit_k1_rate(sum3):
    # ROS3P at dt = 0.01, 16x Heun's CFL step, keeps criterion 10's 5% on
    # the k=1 eigenvalue 1/2 and lands within 1e-3 of Heun's rate
    sigma = cylinder_radius(sum3)
    basis = build_basis(sum3.a_lin, K=4, quad_order=40)
    delta = 0.05
    z = np.linspace(-14.0, 14.0, int(round(28 / delta)) + 1)
    st = RadialFlowState("rescaled", z, sigma + 1e-4 * basis.value(1, z),
                         0.0, sum3)
    frozen = BoundaryCondition(mode="frozen")
    dt, nsteps = step_plan(sum3, delta, 1.0)
    rates = []
    for hist in (run_flow(st, dt, nsteps, bc=frozen,
                          record_every=max(1, nsteps // 100), scheme="rk2"),
                 run_flow(st, 0.01, 100, bc=frozen, scheme="semi_implicit",
                          record_every=1)):
        sup = hist.sup_deviation(sigma, window=4.0)
        rates.append(float(np.polyfit(hist.times, np.log(sup), 1)[0]))
    heun, ros3p = rates
    assert ros3p == pytest.approx(0.5, rel=0.05)
    assert ros3p == pytest.approx(heun, rel=1e-3)


# -- linearization --------------------------------------------------------------

def test_linearize_at_cylinder(sum3, bh3):
    for sp in (sum3, bh3):
        rep = linearize_rescaled_at_cylinder(sp, delta=0.05, window=10.0)
        assert rep["max_deviation"] <= max(1e-4, 10 * 0.05 ** 2)
    # for the linear speed a = dgamma^1 = 1: matches the plain MCF operator
    rep = linearize_rescaled_at_cylinder(sum3, delta=0.05, window=10.0)
    assert rep["a_lin"] == 1.0


def test_zero_mode_direction(sum3):
    # u = z^2/a - 2 is annihilated by the discrete operator (exact for
    # quadratics under central differences)
    a = sum3.a_lin
    delta = 0.05
    z = np.linspace(-10.0, 10.0, int(round(20 / delta)) + 1)
    u = z ** 2 / a - 2.0
    uz, uzz = _accel.central_differences(u, delta)
    lu = a * uzz - 0.5 * z[1:-1] * uz + u[1:-1]
    assert float(np.max(np.abs(lu))) <= 1e-10


def test_constant_direction_eigenvalue_one(sum3):
    a = sum3.a_lin
    delta = 0.05
    z = np.linspace(-10.0, 10.0, int(round(20 / delta)) + 1)
    u = np.ones_like(z)
    uz, uzz = _accel.central_differences(u, delta)
    lu = a * uzz - 0.5 * z[1:-1] * uz + u[1:-1]
    assert np.allclose(lu, u[1:-1])


# -- heat barrier ----------------------------------------------------------------

def test_heat_barrier_value_against_quadrature():
    closed = heat_barrier_psi(2.0, 1.0)
    assert closed == pytest.approx(0.8427008, abs=5e-8)
    assert abs(closed - heat_barrier_psi_quadrature(2.0, 1.0)) <= 1e-8


def test_heat_barrier_limits():
    assert heat_barrier_psi(1e-8, 1.0) <= 1e-6
    assert 1.0 - heat_barrier_psi(20.0, 1.0) <= 1e-6
    assert 1.0 - heat_barrier_psi(1.0, 1e-6) <= 1e-6
    assert heat_barrier_psi(1.0, 1e12) <= 1e-6


def test_heat_barrier_solves_heat_equation():
    zz, tt = np.meshgrid(np.linspace(0.1, 10.0, 25),
                         np.linspace(0.1, 10.0, 25))
    z, t = zz.ravel(), tt.ravel()
    # central differences with steps that scale with the point (the
    # kernel's derivatives grow like inverse powers of t near t = 0)
    hz = 2e-4 * np.minimum(z, 1.0)
    ht = 2e-4 * np.minimum(t, 1.0)
    psi_t = (heat_barrier_psi(z, t + ht)
             - heat_barrier_psi(z, t - ht)) / (2 * ht)
    psi_zz = (heat_barrier_psi(z + hz, t) - 2 * heat_barrier_psi(z, t)
              + heat_barrier_psi(z - hz, t)) / hz ** 2
    res = psi_t - psi_zz
    assert float(np.max(np.abs(res))) <= 1e-6


def test_heat_barrier_concave_in_z():
    # analytic: psi_zz = -z e^{-z^2/4t} / (2t sqrt(pi t)) < 0; check the
    # finite-difference sign where the magnitude clears roundoff
    z = np.linspace(0.05, 6.0, 200)
    t = 1.3
    h = 1e-4
    pzz = (heat_barrier_psi(z + h, t) - 2 * heat_barrier_psi(z, t)
           + heat_barrier_psi(z - h, t)) / h ** 2
    analytic = -z * np.exp(-z ** 2 / (4 * t)) / (2 * t * math.sqrt(math.pi * t))
    assert np.all(analytic < 0)
    assert np.allclose(pzz, analytic, rtol=1e-4, atol=1e-10)


def test_heat_barrier_domain():
    with pytest.raises(DomainViolation):
        heat_barrier_psi(-1.0, 1.0)
    with pytest.raises(DomainViolation):
        heat_barrier_psi(1.0, 0.0)
    with pytest.raises(DomainViolation):
        heat_barrier_psi_quadrature(0.0, 1.0)


# -- states ----------------------------------------------------------------------

def test_state_validation(sum3):
    with pytest.raises(ValueError):
        RadialFlowState("radial", np.array([0, 1, 2, 3, 4.5]),
                        np.ones(5), 0.0, sum3)
    with pytest.raises(ValueError):
        RadialFlowState("radial", np.linspace(0, 1, 5),
                        np.array([1, 1, -1, 1, 1.0]), 0.0, sum3)
    with pytest.raises(ValueError):
        RadialFlowState("spiral", np.linspace(0, 1, 5), np.ones(5), 0.0,
                        sum3)


def test_dirichlet_tables_one_call_per_side(sum3, bowl_sum3):
    calls = []

    def left(t):
        calls.append(np.shape(t))
        return 2.5  # a scalar broadcasts over the times

    ref = translating_bowl_reference(bowl_sum3)
    bc = BoundaryCondition(mode="dirichlet", left=left,
                           right=lambda t: ref(25.0, t))
    bl, br = bc.tables(0.5, 0.01, 40)
    assert calls == [(41,)]
    assert np.all(bl == 2.5)
    times = 0.5 + 0.01 * np.arange(41)
    assert np.array_equal(br, [ref(np.array([25.0]), t)[0] for t in times])
