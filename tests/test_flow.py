"""Graph-flow stepping: regressions against exact solutions, scheme order,
discrete comparison, diagnostics, and the heat-kernel barrier."""

import math

import numpy as np
import pytest

import gflowlab as gf
from gflowlab import _accel
from gflowlab.errors import (ConeExit, DomainViolation, InsufficientTail,
                             Pinch, StabilityViolation)
from gflowlab.flow import (BoundaryCondition, RadialFlowState,
                           cylinder_radius, heat_barrier_psi,
                           heat_barrier_psi_quadrature, heat_barrier_residual,
                           rescaled_rhs, run_flow, shrinking_cylinder_reference,
                           state_from_reference, step_plan, step_radial,
                           step_rescaled, tip_neck_diagnostics,
                           translating_bowl_reference, translation_speed)
from gflowlab.spectral import build_basis


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


def test_step_radial_single(sum3):
    ref = shrinking_cylinder_reference(sum3, 2.0)
    st = state_from_reference(sum3, ref, -5.0, 5.0, 0.1)
    bc = BoundaryCondition.from_reference(ref, st.z[0], st.z[-1])
    new = step_radial(st, 1e-4, bc=bc)
    assert new.t == pytest.approx(1e-4)
    assert np.all(new.values < st.values)


def test_cfl_violation_raises(sum3):
    ref = shrinking_cylinder_reference(sum3, 2.0)
    st = state_from_reference(sum3, ref, -5.0, 5.0, 0.1)
    with pytest.raises(StabilityViolation):
        run_flow(st, 0.1, 5, bc=BoundaryCondition(mode="frozen"))


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
        run_flow(st, 2e-5, 3100, bc=bc, r_floor=0.05)


def test_cone_exit_detected(sum3):
    z = np.linspace(-2.0, 2.0, 81)
    st = RadialFlowState("radial", z, 2.0 - 1.2 * np.exp(-8 * z ** 2),
                         0.0, sum3)
    with pytest.raises(ConeExit):
        run_flow(st, 1e-4, 10, bc=BoundaryCondition(mode="frozen"))


def test_bowl_translation(sum3, bowl_sum3):
    ref = translating_bowl_reference(bowl_sum3, tip_speed=0.5)
    delta = 0.05
    st = state_from_reference(sum3, ref, 5.0, 25.0, delta)
    bc = BoundaryCondition.from_reference(ref, st.z[0], st.z[-1])
    dt, nsteps = step_plan(sum3, delta, 1.0)
    hist = run_flow(st, dt, nsteps, bc=bc, record_every=max(1, nsteps // 40))
    level = float(st.values[st.values.size // 2])
    res = translation_speed(hist, level)
    # bowl-side graph: r_z > 0 and r_zz < 0 along the run
    snap = hist.final_state.values
    assert np.all(np.diff(snap) > 0)
    assert np.all(np.diff(snap, 2) < 0)
    assert res["speed"] == pytest.approx(0.5, abs=1e-3)


def test_ordering_preserved_semi_implicit(sum3, rng):
    violations = 0
    for _ in range(50):
        z = np.linspace(-2.0, 2.0, 41)
        base = 3.0 + 0.05 * rng.normal() * np.sin(rng.uniform(0.3, 0.7) * z)
        bump = np.cos(np.pi * z / 4) ** 2 * rng.uniform(0.01, 0.05)
        bc = BoundaryCondition.dirichlet(lambda t, v=base[0]: v,
                                         lambda t, v=base[-1]: v)
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
    # on a smooth state both second-order schemes agree to O(dt^2)
    ref = shrinking_cylinder_reference(sum3, 2.0)
    st = state_from_reference(sum3, ref, -5.0, 5.0, 0.1)
    bc = BoundaryCondition.from_reference(ref, st.z[0], st.z[-1])
    a = run_flow(st, 1e-4, 50, bc=bc, scheme="rk2").final_state.values
    b = run_flow(st, 1e-4, 50, bc=bc,
                 scheme="semi_implicit").final_state.values
    assert np.max(np.abs(a - b)) <= 1e-5


def test_semi_implicit_cylinder_error(sum3):
    # the CLI preset's own check: ROS2 at the preset dt = 1.25e-4
    hist = _cylinder_run(sum3, 2.0, 0.025, 0.25, scheme="semi_implicit")
    exact = math.sqrt(4.0 - 2.0 * sum3.F01 * 0.25)
    err = float(np.max(np.abs(hist.final_state.values - exact)))
    assert err <= 1e-6


def test_semi_implicit_stage_cone_exit(sum3):
    # the start state is admissible; ROS2's stage at dt = 0.01 is not
    z = np.linspace(-2.0, 2.0, 81)
    st = RadialFlowState("radial", z, 1.0 - 0.9 * np.exp(-2.0 * z ** 2),
                         0.0, sum3)
    assert _accel._discrete_pair(st.values, st.dz, sum3.cone_factor)[0]
    with pytest.raises(ConeExit, match="step 0"):
        run_flow(st, 0.01, 1, bc=BoundaryCondition(mode="frozen"),
                 scheme="semi_implicit")


@pytest.fixture(scope="module")
def bowl_window(sum3):
    """Criterion 7's window z in [5, 25] on a tight (tol 1e-12) sum n=3
    bowl: (translating reference, state and Dirichlet data at delta)."""
    bowl = gf.solve_bowl(sum3, rho_max=60.0, tol=1e-12)
    ref = translating_bowl_reference(bowl, tip_speed=0.5)

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
        hist = run_flow(st, dt, nsteps, bc=bc, record_every=nsteps)
        errs.append(float(np.max(np.abs(hist.final_state.values
                                        - ref(st.z, t_end)))))
    assert errs[0] / errs[1] >= 3.5
    assert errs[1] / errs[2] >= 3.5


def test_semi_implicit_second_order_bowl_window(sum3, bowl_window):
    # fixed delta = 0.05; the reference is Heun at half its CFL step, whose
    # time error is ~1e-10 against ROS2's >= 6e-8 here
    _, at = bowl_window
    st, bc = at(0.05)
    dt, nsteps = step_plan(sum3, 0.05, 1.0)
    tight = run_flow(st, dt / 2, 2 * nsteps, bc=bc,
                     record_every=2 * nsteps).final_state.values
    errs = []
    for n in (160, 320, 640):
        hist = run_flow(st, 1.0 / n, n, bc=bc, scheme="semi_implicit",
                        record_every=n)
        errs.append(float(np.max(np.abs(hist.final_state.values - tight))))
    assert errs[0] / errs[1] >= 3.5
    assert errs[1] / errs[2] >= 3.5


def test_semi_implicit_rejects_extrapolate(sum3):
    ref = shrinking_cylinder_reference(sum3, 2.0)
    st = state_from_reference(sum3, ref, -5.0, 5.0, 0.025)
    with pytest.raises(ValueError, match="extrapolate"):
        run_flow(st, 1e-4, 10, bc=BoundaryCondition(mode="extrapolate"),
                 scheme="semi_implicit")


# -- rescaled flow -------------------------------------------------------------

def test_cylinder_fixed_point(sum3):
    sigma = cylinder_radius(sum3)
    z = np.linspace(-10.0, 10.0, 201)
    st = RadialFlowState("rescaled", z, np.full(z.size, sigma), 0.0, sum3)
    assert float(np.max(np.abs(rescaled_rhs(st)))) == 0.0
    new = step_rescaled(st, 1e-3, bc=BoundaryCondition(mode="frozen"))
    assert np.max(np.abs(new.values - sigma)) == 0.0
    hist = run_flow(st, 0.1, 10, bc=BoundaryCondition(mode="frozen"),
                    scheme="semi_implicit")
    assert np.max(np.abs(hist.snapshots - sigma)) == 0.0


def test_shrinker_stationarity_refinement(sum3, shrinker_sum3_a50):
    vint = shrinker_sum3_a50.v_interp()
    residuals = []
    for delta in (0.1, 0.05, 0.025):
        n = int(round(22.0 / delta)) + 1
        z = np.linspace(8.0, 30.0, n)
        st = RadialFlowState("rescaled", z, np.asarray(vint(z)), 0.0, sum3)
        residuals.append(float(np.max(np.abs(rescaled_rhs(st)))))
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
                    record_every=max(1, nsteps // 20))
    sup = hist.sup_deviation(sigma, window=4.0)
    slope = float(np.polyfit(hist.times, np.log(sup), 1)[0])
    assert slope == pytest.approx(1.0, rel=0.05)


def test_semi_implicit_k1_rate(sum3):
    # ROS2 at dt = 0.01, 16x Heun's CFL step, keeps criterion 10's 5% on
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
                          record_every=max(1, nsteps // 100)),
                 run_flow(st, 0.01, 100, bc=frozen, scheme="semi_implicit",
                          record_every=1)):
        sup = hist.sup_deviation(sigma, window=4.0)
        rates.append(float(np.polyfit(hist.times, np.log(sup), 1)[0]))
    heun, ros2 = rates
    assert ros2 == pytest.approx(0.5, rel=0.05)
    assert ros2 == pytest.approx(heun, rel=1e-3)


# -- linearization --------------------------------------------------------------

def test_linearize_at_cylinder(sum3, bh3):
    for sp in (sum3, bh3):
        rep = gf.linearize_rescaled_at_cylinder(sp, delta=0.05, window=10.0)
        assert rep["max_deviation"] <= max(1e-4, 10 * 0.05 ** 2)
    # for the linear speed a = dgamma^1 = 1: matches the plain MCF operator
    rep = gf.linearize_rescaled_at_cylinder(sum3, delta=0.05, window=10.0)
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


# -- tip / neck diagnostics ------------------------------------------------------

def test_rr_z_tail_on_bowl(sum3):
    bowl = gf.solve_bowl(sum3, rho_max=70.0, tol=1e-10)
    ref = translating_bowl_reference(bowl, tip_speed=0.5)
    st = state_from_reference(sum3, ref, 200.0, 400.0, 0.1)
    bc = BoundaryCondition.from_reference(ref, st.z[0], st.z[-1])
    dt, nsteps = step_plan(sum3, 0.1, 0.5)
    hist = run_flow(st, dt, nsteps, bc=bc, record_every=max(1, nsteps // 20))
    diag = tip_neck_diagnostics(hist, window=(220.0, 380.0))
    # tip speed 1/2 means the tail limit is F(0,1)/G = 2 F(0,1) = 4
    assert diag.rr_z_tail == pytest.approx(2.0 * sum3.F01, rel=0.02)


def test_rr_z_cylinder_is_zero(sum3):
    # r_z = 0 for the exact cylinder; the measured tail sits at the
    # discretization noise floor of the run
    hist = _cylinder_run(sum3, 2.0, 0.1, 0.05)
    diag = tip_neck_diagnostics(hist)
    assert abs(diag.rr_z_tail) <= 1e-5


def test_extinction_bound_shrinking_cylinder(sum3):
    ref = shrinking_cylinder_reference(sum3, 2.0)
    st = state_from_reference(sum3, ref, -5.0, 5.0, 0.1)
    bc = BoundaryCondition.from_reference(ref, st.z[0], st.z[-1])
    hist = run_flow(st, 1e-3, 500, bc=bc, record_every=50)
    diag = tip_neck_diagnostics(hist, shrinking=True)
    # T(z) constant in z and r^2 = 2F(0,1)(T - t) exactly
    assert float(np.ptp(diag.extinction)) <= 1e-6
    assert diag.extinction[0] == pytest.approx(4.0 / (2.0 * sum3.F01),
                                               abs=1e-5)
    assert diag.extinction_bound_min >= -1e-8


def test_insufficient_tail_raises(sum3):
    hist = _cylinder_run(sum3, 2.0, 0.1, 0.05)
    with pytest.raises(InsufficientTail):
        tip_neck_diagnostics(hist, window=(4.8, 5.0))


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
    res = heat_barrier_residual(zz.ravel(), tt.ravel())
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


def test_vertical_representation_not_stepped(sum3):
    st = RadialFlowState("vertical", np.linspace(0, 1, 6),
                         np.linspace(0, 1, 6) ** 2, 0.0, sum3)
    with pytest.raises(ValueError):
        step_radial(st, 1e-4)


def test_first_derivative_bound_on_neck(sum3, bowl_sum3):
    # r r_z <= 4 (F(0,1) + C0 eps0) / G on a neck, with the measured
    # spread standing in for the neck-quality term
    ref = translating_bowl_reference(bowl_sum3, tip_speed=0.5)
    st = state_from_reference(sum3, ref, 20.0, 40.0, 0.1)
    bc = BoundaryCondition.from_reference(ref, st.z[0], st.z[-1])
    hist = run_flow(st, 1e-3, 200, bc=bc, record_every=20)
    diag = tip_neck_diagnostics(hist, g_tip=0.5)
    assert diag.bound_ok
    assert diag.rr_z_tail <= diag.first_derivative_bound


def test_vertical_to_radial_conversion(sum3, bowl_sum3):
    from gflowlab.flow import vertical_to_radial
    r = np.linspace(4.0, 16.0, 241)
    st = RadialFlowState("vertical", r, np.asarray(bowl_sum3.zeta_at(r)),
                         0.0, sum3)
    radial = vertical_to_radial(st, z_lo=6.0, z_hi=25.0, delta=0.05)
    assert radial.representation == "radial"
    # round trip through the bowl profile: zeta(r(z)) = z
    back = np.asarray(bowl_sum3.zeta_at(radial.values))
    assert np.max(np.abs(back - radial.z)) <= 1e-6
    # converted state steps fine
    bc = BoundaryCondition(mode="frozen")
    nxt = step_radial(radial, 1e-4, bc=bc)
    assert np.all(nxt.values[1:-1] < radial.values[1:-1])


def test_extrapolate_boundary_mode(sum3):
    # one-sided extrapolation tracks the exact spatially-constant solution
    ref = shrinking_cylinder_reference(sum3, 2.0)
    st = state_from_reference(sum3, ref, -5.0, 5.0, 0.05)
    nsteps = 500
    hist = run_flow(st, 2e-4, nsteps,
                    bc=BoundaryCondition(mode="extrapolate"),
                    record_every=nsteps)
    exact = math.sqrt(4.0 - 2.0 * sum3.F01 * nsteps * 2e-4)
    assert float(np.max(np.abs(hist.final_state.values - exact))) <= 1e-6


def test_dirichlet_tables_one_call_per_side(sum3, bowl_sum3):
    calls = []

    def left(t):
        calls.append(np.shape(t))
        return 2.5  # a scalar broadcasts over the times

    ref = translating_bowl_reference(bowl_sum3, tip_speed=0.5)
    bc = BoundaryCondition.dirichlet(left, lambda t: ref(25.0, t))
    bl, br = bc.tables(None, 0.5, 0.01, 40)
    assert calls == [(41,)]
    assert np.all(bl == 2.5)
    times = 0.5 + 0.01 * np.arange(41)
    assert np.array_equal(br, [ref(np.array([25.0]), t)[0] for t in times])
