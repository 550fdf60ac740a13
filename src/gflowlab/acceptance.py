"""Acceptance suite: the quantitative exit criteria of the package.

Each criterion returns a :class:`CriterionResult` with the measured value,
its target, the tolerance, and a provenance tag for the target:

* ``closed-form``    -- target evaluates from the speed algebra directly,
* ``oracle``         -- target computed by an independent numerical route,
* ``exact-solution`` -- target is an exact solution of the flow.

``run_all`` executes every criterion; the CLI ``verify`` subcommand and
``tests/test_acceptance.py`` both consume this registry.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.special import erf

from . import _accel, fits, flow, geometry, solitons, spectral, speeds
from .flow import (BoundaryCondition, RadialFlowState, run_flow,
                   cylinder_radius, shrinking_cylinder_reference,
                   state_from_reference, step_plan,
                   translating_bowl_reference, translation_speed)


@dataclass
class CriterionResult:
    cid: int
    title: str
    passed: bool
    measured: str
    target: str
    tolerance: str
    provenance: str
    runtime: float
    details: dict = field(default_factory=dict)

    def line(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        return (f"[{mark}] {self.cid:2d} {self.title}: measured {self.measured}"
                f" | target {self.target} | tol {self.tolerance}"
                f" | basis {self.provenance} | {self.runtime:.2f}s")


def _speed(kind, n, k=None):
    return speeds.SpeedFunction(kind, n, k)


@lru_cache(maxsize=None)
def _bowl(kind, n, k, rho_max, tol):
    return solitons.solve_bowl(_speed(kind, n, k), rho_max=rho_max, tol=tol)


@lru_cache(maxsize=None)
def _shrinker(kind, n, k, a, tol):
    return solitons.solve_shrinker(_speed(kind, n, k), a, tol=tol)


_TIP_SPEEDS = (("sum", 3, None), ("sum", 4, None), ("bh", 3, None),
               ("bh", 4, None), ("sigma_ratio", 3, 2), ("sigma_ratio", 4, 2))


def criterion_1():
    """Bowl tip curvature = 1/(2 F(1,1)) for every built-in speed."""
    worst = 0.0
    details = {}
    for kind, n, k in _TIP_SPEEDS:
        sp = _speed(kind, n, k)
        bowl = _bowl(kind, n, k, 1.0, 1e-10)
        target = 1.0 / (2.0 * sp.F11)
        rel = abs(bowl.tip_curvature - target) / target
        details[sp.label()] = rel
        worst = max(worst, rel)
    return worst <= 1e-6, f"max rel gap {worst:.2e}", "1/(2 F(1,1))", \
        "1e-6 relative", "closed-form", details


def criterion_2():
    """Bowl gradient tail: fitted c2 equals -2 dgamma^1(0,1,...,1)."""
    details = {}
    worst = 0.0
    for kind, n, k in (("sum", 3, None), ("bh", 3, None)):
        bowl = _bowl(kind, n, k, 1000.0, 1e-10)
        fit = fits.fit_bowl_expansion(bowl, (100.0, 1000.0))
        rel = fit.meta["relative_gap"]
        details[bowl.speed.label()] = {"c2": fit.coefficients["c2"],
                                       "target": fit.targets["c2"],
                                       "rel": rel}
        worst = max(worst, rel)
    return worst <= 0.05, f"max rel gap {worst:.2e}", \
        "c2 = -2 (sum), -0.64 (bh)", "5%", "oracle", details


def criterion_3():
    """Shrinker lower bound v^2 >= 2F(0,1)(1 - z^2/a^2) at every node."""
    details = {}
    violations = 0
    for a in (25.0, 50.0, 100.0):
        prof = _shrinker("sum", 3, None, a, 1e-8)
        margin = prof.lower_bound_margin()
        bad = int(np.sum(margin < 0.0))
        violations += bad
        details[f"a={a:g}"] = {"min_margin": float(np.min(margin)),
                               "violations": bad}
    return violations == 0, f"{violations} violations", "0 violations", \
        "pointwise >=", "closed-form", details


def criterion_4():
    """Neck quantity w > 2 everywhere; tip limit 2 F(1,1)/F(0,1)."""
    details = {}
    ok = True
    for a in (25.0, 50.0, 100.0):
        prof = _shrinker("sum", 3, None, a, 1e-8)
        diag = solitons.shrinker_w_diagnostic(prof)
        rel = abs(diag.tip_limit - diag.tip_target) / diag.tip_target
        details[f"a={a:g}"] = {"w_min": float(np.min(diag.w)),
                               "lower_ok": diag.lower_ok,
                               "tip": diag.tip_limit, "tip_rel": rel}
        ok = ok and diag.lower_ok and rel <= 0.02
    return ok, "w>2 and tip limits (see details)", \
        "w > 2; tip -> 3 (sum n=3)", "strict; 2% on tip", "closed-form", \
        details


def criterion_5():
    """Shrinker profiles converge to the bowl on compacts as a grows."""
    rows = solitons.shrinker_to_bowl_convergence(
        _speed("sum", 3), [20.0, 40.0, 80.0], M=10.0)
    gaps = [r["sup_gap"] for r in rows]
    monotone = gaps[0] > gaps[1] > gaps[2]
    ratio = gaps[2] / gaps[0]
    ok = monotone and ratio < 0.25
    return ok, f"gaps {gaps[0]:.3g} > {gaps[1]:.3g} > {gaps[2]:.3g}; " \
               f"ratio {ratio:.3g}", "monotone; a=80 gap < 1/4 of a=20", \
        "ratio < 0.25", "oracle", {"rows": rows}


def criterion_6():
    """Cylinder regression: second-order convergence and 1e-6 accuracy."""
    sp = _speed("sum", 3)
    r0, t_end = 2.0, 0.25
    ref = shrinking_cylinder_reference(sp, r0)
    errs = []
    for delta in (0.1, 0.05, 0.025):
        st = state_from_reference(sp, ref, -5.0, 5.0, delta)
        bc = BoundaryCondition.from_reference(ref, st.z[0], st.z[-1])
        dt, nsteps = step_plan(sp, delta, t_end)
        hist = run_flow(st, dt, nsteps, bc=bc, record_every=nsteps)
        exact = math.sqrt(r0 ** 2 - 2.0 * sp.F01 * t_end)
        errs.append(float(np.max(np.abs(hist.final_state.values - exact))))
    ratios = [errs[i] / errs[i + 1] for i in range(2)]
    ok = min(ratios) >= 3.5 and errs[-1] <= 1e-6
    return ok, f"errors {errs[0]:.2e}/{errs[1]:.2e}/{errs[2]:.2e}, " \
               f"ratios {ratios[0]:.1f}/{ratios[1]:.1f}", \
        "ratio >= 3.5; final <= 1e-6", "see target", "exact-solution", \
        {"errors": errs}


def criterion_7():
    """Simulated bowl window translates at its soliton speed 1/2."""
    sp = _speed("sum", 3)
    bowl = _bowl("sum", 3, None, 60.0, 1e-10)
    ref = translating_bowl_reference(bowl, tip_speed=0.5)
    delta = 0.05
    st = state_from_reference(sp, ref, 5.0, 25.0, delta)
    bc = BoundaryCondition.from_reference(ref, st.z[0], st.z[-1])
    dt, nsteps = step_plan(sp, delta, 1.0)
    hist = run_flow(st, dt, nsteps, bc=bc, record_every=max(1, nsteps // 40))
    level = float(st.values[st.values.size // 2])
    res = translation_speed(hist, level)
    err = abs(res["speed"] - 0.5)
    return err <= 1e-3, f"speed {res['speed']:.6f} (err {err:.2e})", "0.5", \
        "1e-3", "exact-solution", res


def criterion_8():
    """Spectral identities: sign table, zero mode, orthogonality."""
    pos = {(0, 0), (1, 0), (0, 1)}
    zero = {(2, 0), (1, 1)}
    table_ok = True
    for n in range(2, 7):
        for k in range(7):
            for l in range(7):
                sign = spectral.mode_sign(n, k, l)
                expect = "+" if (k, l) in pos else \
                    ("0" if (k, l) in zero else "-")
                if sign != expect:
                    table_ok = False
    sp = _speed("sum", 3)
    a = sp.a_lin
    delta = 0.05
    z = np.linspace(-12.0, 12.0, int(round(24 / delta)) + 1)
    u = z ** 2 / a - 2.0
    uz, uzz = _accel.central_differences(u, delta)
    lu = a * uzz - 0.5 * z[1:-1] * uz + u[1:-1]
    zero_action = float(np.max(np.abs(lu)))
    basis = spectral.build_basis(a, K=8, quad_order=60)
    ok = table_ok and zero_action <= 1e-8 and basis.gram_error <= 1e-10
    return ok, f"table {'exact' if table_ok else 'WRONG'}; " \
               f"|L(z^2/a-2)| {zero_action:.1e}; gram {basis.gram_error:.1e}", \
        "exact sets; 0; identity", "exact/1e-8/1e-10", "closed-form", {}


def criterion_9():
    """Directional derivative of the rescaled operator matches L at the
    cylinder."""
    worst = 0.0
    details = {}
    for kind, n, k in (("sum", 3, None), ("bh", 3, None)):
        rep = flow.linearize_rescaled_at_cylinder(_speed(kind, n, k),
                                                  delta=0.05, window=10.0)
        details[f"{kind} n={n}"] = rep["max_deviation"]
        worst = max(worst, rep["max_deviation"])
    tol = max(1e-4, 10 * 0.05 ** 2)
    return worst <= tol, f"max deviation {worst:.2e}", "L u (l=0)", \
        f"{tol:g}", "closed-form", details


def criterion_10():
    """Seeded Hermite modes evolve at their eigenvalue rates."""
    sp = _speed("sum", 3)
    sigma = cylinder_radius(sp)
    a = sp.a_lin
    basis = spectral.build_basis(a, K=8, quad_order=80)
    delta = 0.05
    z = np.linspace(-14.0, 14.0, int(round(28 / delta)) + 1)
    eps = 1e-4
    dt, nsteps = step_plan(sp, delta, 1.0)
    details = {}
    ok = True
    for k in (0, 1, 2, 3):
        st = RadialFlowState("rescaled", z, sigma + eps * basis.value(k, z),
                             0.0, sp)
        hist = run_flow(st, dt, nsteps,
                        bc=BoundaryCondition(mode="frozen"),
                        record_every=max(1, nsteps // 20))
        coeffs = []
        for snap in hist.snapshots:
            un = basis.interpolate_samples(z, snap - sigma)
            coeffs.append(basis.project(un)[k])
        coeffs = np.asarray(coeffs)
        if k == 2:
            drift = float(abs(coeffs[-1] - coeffs[0]))
            details["k=2 drift"] = drift
            ok = ok and drift < 1e-5
        else:
            slope = float(np.polyfit(hist.times,
                                     np.log(np.abs(coeffs)), 1)[0])
            target = 1.0 - k / 2.0
            rel = abs(slope - target) / abs(target)
            details[f"k={k} rate"] = slope
            ok = ok and rel <= 0.05
    return ok, "; ".join(f"{kk}: {vv:.4g}" for kk, vv in details.items()), \
        "e^{(1-k/2) tau}; k=2 stationary", "5%; drift < 1e-5", \
        "closed-form", details


def criterion_11():
    """Heat barrier: boundary limits and the quadrature oracle."""
    probes = {
        "z->0": flow.heat_barrier_psi(1e-8, 1.0),
        "z->inf": 1.0 - flow.heat_barrier_psi(20.0, 1.0),
        "t->0": 1.0 - flow.heat_barrier_psi(1.0, 1e-6),
        "t->inf": flow.heat_barrier_psi(1.0, 1e12),
    }
    limits_ok = all(abs(v) <= 1e-6 for v in probes.values())
    closed = flow.heat_barrier_psi(2.0, 1.0)
    oracle = flow.heat_barrier_psi_quadrature(2.0, 1.0)
    gap = abs(closed - oracle)
    ok = limits_ok and gap <= 1e-8
    return ok, f"limit defects <= {max(abs(v) for v in probes.values()):.1e};" \
               f" psi(2,1) gap {gap:.1e}", "0/1 limits; quadrature", \
        "1e-6; 1e-8", "oracle", dict(probes)


def criterion_12():
    """Property suites: speed-kernel algebra and expansion scale stability."""
    rng = np.random.default_rng(20260810)
    ok = True
    details = {}
    for kind, n, k in (("sum", 3, None), ("bh", 3, None),
                       ("sigma_ratio", 4, 2)):
        sp = _speed(kind, n, k)
        lam = speeds.sample_cone_interior(sp, rng, 100)
        worst_h = worst_m = worst_inv = worst_hom = 0.0
        for row in lam:
            g = sp.gamma(row)
            for t in (0.5, 2.0, 10.0):
                worst_h = max(worst_h, abs(sp.gamma(t * row) - t * g)
                              / (t * g))
            grad = sp.gradient(row)
            if np.any(grad <= 0):
                ok = False
            h = 1e-5
            for i in range(sp.n):
                e = np.zeros(sp.n)
                e[i] = h
                fd = (sp.gamma(row + e) - sp.gamma(row - e)) / (2 * h)
                worst_m = max(worst_m, abs(fd - grad[i]) / abs(grad[i]))
        inv = speeds.ImplicitInverse(sp)
        hi = min(sp.Q, 100.0 * sp.F01)
        for _ in range(100):
            y = rng.uniform(0.1, 10.0)
            ratio = rng.uniform(sp.F01 * 1.01, hi * 0.99)
            x = inv(y, ratio * y)
            worst_inv = max(worst_inv,
                            abs(sp.F(x, y) - ratio * y) / (ratio * y))
            t = rng.uniform(0.5, 2.0)
            worst_hom = max(worst_hom,
                            abs(inv(t * y, t * ratio * y) - t * x)
                            / max(t * x, 1e-10))
        details[sp.label()] = {"homog": worst_h, "monot_fd": worst_m,
                               "inverse": worst_inv, "inv_homog": worst_hom}
        ok = ok and worst_h <= 1e-12 and worst_m <= 1e-6 \
            and worst_inv <= 1e-12 and worst_hom <= 1e-10

    z = np.linspace(-6.0, 6.0, 241)
    ratios = []
    for j in range(6):
        amp = 0.01 * 2.0 ** -j
        graph = geometry.CylinderGraph.from_callable(
            2.0, z, lambda zz: amp * np.exp(-zz ** 2),
            lambda zz: -2 * zz * amp * np.exp(-zz ** 2),
            lambda zz: amp * (4 * zz ** 2 - 2) * np.exp(-zz ** 2))
        ratios.append(geometry.expansion_error_G(graph,
                                                 _speed("bh", 3)).ratio)
    drift = max(abs(r / ratios[-1] - 1.0) for r in ratios)
    details["expansion_scale_drift"] = drift
    ok = ok and drift < 0.2
    return ok, "property suites (see details)", \
        "homog 1e-12; fd 1e-6; inverse 1e-12; scale drift < 20%", \
        "composite", "oracle", details


_REGISTRY = [
    (1, "bowl tip curvature", criterion_1),
    (2, "bowl gradient tail coefficient", criterion_2),
    (3, "shrinker lower bound", criterion_3),
    (4, "neck quantity w", criterion_4),
    (5, "shrinker-to-bowl convergence", criterion_5),
    (6, "cylinder flow regression", criterion_6),
    (7, "bowl translation speed", criterion_7),
    (8, "spectral identities", criterion_8),
    (9, "linearization at the cylinder", criterion_9),
    (10, "seeded mode rates", criterion_10),
    (11, "heat barrier", criterion_11),
    (12, "property suites", criterion_12),
]


def criteria_ids():
    return [cid for cid, _, _ in _REGISTRY]


def run_criterion(cid: int) -> CriterionResult:
    for c, title, fn in _REGISTRY:
        if c == cid:
            start = time.perf_counter()
            passed, measured, target, tol, prov, details = fn()
            return CriterionResult(cid=c, title=title, passed=passed,
                                   measured=measured, target=target,
                                   tolerance=tol, provenance=prov,
                                   runtime=time.perf_counter() - start,
                                   details=details)
    raise ValueError(f"unknown criterion id {cid}")


def run_all(only=None) -> list[CriterionResult]:
    ids = criteria_ids() if only is None else list(only)
    return [run_criterion(cid) for cid in ids]
