"""Acceptance suite: the quantitative exit criteria of the package.

Each criterion returns a :class:`CriterionResult` with the measured value,
its target, the tolerance, and a provenance tag for the target:

* ``closed-form``    -- target evaluates from the speed algebra directly,
* ``oracle``         -- target computed by an independent numerical route,
* ``exact-solution`` -- target is an exact solution of the flow.

Criteria 1-7 certify the CLI's own runs: each names its run as the command
line a user would type, which ``cli.compute`` resolves and computes as the
command does, and each run is computed once per process.  The oracles that
only the criteria call (the exact geometry of graphs over the cylinder,
the linearization check and the heat-kernel barrier) live here too, so no
command loads them.

``run_all`` executes every criterion; the CLI ``verify`` subcommand and
``tests/test_acceptance.py`` both consume this registry.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

import numpy as np
from scipy.integrate import quad
from scipy.special import erf

from . import _accel, cli, flow, spectral, speeds
from .errors import ConeViolation, DomainViolation
from .flow import BoundaryCondition, RadialFlowState, run_flow, cylinder_radius

# linearize_rescaled_at_cylinder's random directions, their seed and eps
LINEARIZE_DIRECTIONS = 20
LINEARIZE_SEED = 12345
LINEARIZE_EPS = 1e-6


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
    # CLI runs this criterion took from the _run cache instead of computing
    # them, so a short runtime is not mistaken for fast work
    cache_hits: int = 0

    def line(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        hits = f" ({self.cache_hits} cache hits)" if self.cache_hits else ""
        return (f"[{mark}] {self.cid:2d} {self.title}: measured {self.measured}"
                f" | target {self.target} | tol {self.tolerance}"
                f" | basis {self.provenance} | {self.runtime:.2f}s" + hits)


def _speed(kind, n, k=None):
    return speeds.SpeedFunction(kind, n, k)


@lru_cache(maxsize=None)
def _run(argv):
    """``cli.compute(argv)``: the CLI run ``argv``, computed once."""
    return cli.compute(argv)


_TIP_RUNS = tuple(("bowl", "--speed", kind, "--n", n, *k, "--rho-max", "1")
                  for kind, n, k in (("sum", "3", ()), ("sum", "4", ()),
                                     ("bh", "3", ()), ("bh", "4", ()),
                                     ("sigma_ratio", "3", ("--k", "2")),
                                     ("sigma_ratio", "4", ("--k", "2"))))


# -- exact geometry of graphs over the cylinder (criterion 12) ---------------
#
# For a height function u(z) over the cylinder of radius r the graph is the
# surface of revolution with radius R(z) = r + u(z); its principal
# curvatures (outward normal) are
#
#     kappa_rot   = 1 / (R sqrt(1 + R_z^2)),
#     kappa_axial = -R_zz / (1 + R_z^2)^{3/2}.
#
# The expansions are the principal-frame ones: the curvature pair expands as
# (0, 1/r) + (-u_zz, -u/r^2) + quadratic error, and G expands as
# G_Sigma - dgamma^1(0,1,...,1) u_zz - gamma(0,1,...,1) u / r^2 + quadratic
# error.  (The frame-uncorrected coordinate expansion carries the opposite
# sign on the u A^2 term; the principal-frame form is the one the exact
# curvatures satisfy.)

@dataclass
class CylinderGraph:
    """A rotationally symmetric normal graph u(z) over R x S^{n-1}(r)."""

    radius: float
    z: np.ndarray
    u: np.ndarray
    u_z: np.ndarray
    u_zz: np.ndarray

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError("cylinder radius must be positive")

    @classmethod
    def from_callable(cls, radius: float, z: np.ndarray, fn: Callable,
                      dfn: Callable, d2fn: Callable) -> "CylinderGraph":
        """Build from a height function u and its derivatives u_z, u_zz,
        each evaluated at the heights z."""
        z = np.asarray(z, dtype=float)
        return cls(radius, z, np.asarray(fn(z), dtype=float),
                   np.asarray(dfn(z), dtype=float),
                   np.asarray(d2fn(z), dtype=float))

    def _first_order(self) -> np.ndarray:
        r = self.radius
        return np.abs(self.u) / r + np.abs(self.u_z) + r * np.abs(self.u_zz)

    @property
    def smallness(self) -> float:
        """sup(|u|/r + |u_z| + r |u_zz|), the expansion's small parameter."""
        return float(np.max(self._first_order()))

    def exact_curvatures(self):
        """(kappa_axial, kappa_rot) of the surface of revolution."""
        R = self.radius + self.u
        one = 1.0 + self.u_z ** 2
        kax = -self.u_zz / one ** 1.5
        krot = 1.0 / (R * np.sqrt(one))
        return kax, krot

    def _require_small(self):
        if self.smallness > 0.1:
            raise ValueError(
                f"graph smallness {self.smallness:.3g} exceeds the 0.1 "
                "validity threshold of the expansions")


@dataclass
class ExpansionReport:
    """Sup-norm expansion error with its quadratic-smallness ratio."""

    sup_error: float
    ratio: float


def _report(err, denom) -> ExpansionReport:
    sup_err = float(np.max(err))
    sup_den = float(np.max(denom))
    return ExpansionReport(sup_error=sup_err,
                           ratio=sup_err / sup_den if sup_den > 0 else 0.0)


def _quadratic(graph: CylinderGraph) -> np.ndarray:
    """u^2/r^3 + u_z^2/r + r u_zz^2, the quadratic-smallness scale."""
    r = graph.radius
    return graph.u ** 2 / r ** 3 + graph.u_z ** 2 / r + r * graph.u_zz ** 2


def expansion_error_G(graph: CylinderGraph,
                      speed: speeds.SpeedFunction) -> ExpansionReport:
    """Error of G ~ G_Sigma - dgamma^1(0,1,..,1) u_zz - gamma(0,1,..,1) u/r^2."""
    graph._require_small()
    r = graph.radius
    kax, krot = graph.exact_curvatures()
    if np.any(kax + speed.cone_factor * krot <= 0):
        raise ConeViolation("graph curvatures leave the admissible cone")
    g_exact = np.asarray(speed.F(kax, krot))
    g_sigma = speed.F01 / r
    expansion = (g_sigma - speed.a_lin * graph.u_zz
                 - speed.F01 * graph.u / r ** 2)
    return _report(np.abs(g_exact - expansion), _quadratic(graph))


def trace_gamma(graph: CylinderGraph, speed: speeds.SpeedFunction,
                s_axial: np.ndarray, s_rot: np.ndarray) -> np.ndarray:
    """Directional derivative d/dt|_0 gamma(A + t S) in the principal frame.

    S is given by its principal-frame components (one axial, n-1 equal
    rotational); the derivative is the analytic gradient contraction
    dgamma^1 s_axial + sum_{i>=2} dgamma^i s_rot, evaluated at the exact
    graph curvatures; ``speed.gradient`` raises ConeViolation naming the
    first curvature vector outside the speed's cone.
    """
    kax, krot = graph.exact_curvatures()
    grad = speed.gradient(np.column_stack([kax] + [krot] * (speed.n - 1)))
    return grad[:, 0] * s_axial + np.sum(grad[:, 1:], axis=1) * s_rot


def trace_gamma_expansion_error(graph: CylinderGraph,
                                speed: speeds.SpeedFunction,
                                s_axial, s_rot) -> ExpansionReport:
    """Error of trace_gamma against the cylinder-frame contraction
    dgamma^{ij}(A_Sigma) S_ij; first-order small in the graph."""
    graph._require_small()
    s_axial, s_rot = np.asarray(s_axial, float), np.asarray(s_rot, float)
    exact = trace_gamma(graph, speed, s_axial, s_rot)
    grad0 = speed.gradient(np.r_[0.0, np.ones(speed.n - 1)])
    approx = grad0[0] * s_axial + np.sum(grad0[1:]) * s_rot
    s_norm = np.sqrt(s_axial ** 2 + (speed.n - 1) * s_rot ** 2)
    return _report(np.abs(exact - approx), graph._first_order() * s_norm)


# -- the linearized rescaled operator (criterion 9) --------------------------

def linearize_rescaled_at_cylinder(speed: speeds.SpeedFunction, delta: float,
                                   window: float) -> dict:
    """Directional-derivative check of the rescaled operator at the cylinder.

    Compares (N(sigma + eps u) - N(sigma - eps u)) / (2 eps) against the
    drift-diffusion operator L u = a u_zz - z u_z / 2 + u with
    a = dgamma^1(0,1,...,1), both discretized with the same central
    differences, over ``LINEARIZE_DIRECTIONS`` random directions u.
    Expected deviation O(eps) + O(delta^2), eps = ``LINEARIZE_EPS``.
    """
    sigma = cylinder_radius(speed)
    a = speed.a_lin
    eps = LINEARIZE_EPS
    z = flow.uniform_grid(-window, window, delta)
    rng = np.random.default_rng(LINEARIZE_SEED)
    dev = []
    for _ in range(LINEARIZE_DIRECTIONS):
        c = rng.normal(size=6)
        width = rng.uniform(2.0, 6.0)
        u = np.zeros_like(z)
        for j, cj in enumerate(c):
            u += cj * (z / width) ** j
        u *= np.exp(-(z / width) ** 2)
        u /= np.max(np.abs(u))

        plus, minus = (_accel._rhs_terms(speed.forms[0], speed.cone_factor,
                                         1, sigma + du, z, delta)[0]
                       for du in (eps * u, -eps * u))
        d_num = (plus - minus) / (2 * eps)
        uz, uzz = _accel.central_differences(u, delta)
        lu = a * uzz - 0.5 * z[1:-1] * uz + u[1:-1]
        scale = max(1.0, float(np.max(np.abs(lu))))
        dev.append(float(np.max(np.abs(d_num - lu)) / scale))
    return {"max_deviation": max(dev), "deviations": dev, "a_lin": a,
            "delta": delta, "eps": eps}


# -- the heat-kernel barrier (criterion 11) ----------------------------------

def heat_barrier_psi(z, t):
    """Closed form of (4 pi t)^{-1/2} int_0^inf (e^{-(z-y)^2/4t} - e^{-(z+y)^2/4t}) dy.

    Equals erf(z / (2 sqrt(t))); solves psi_t = psi_zz with psi_zz < 0 for
    z, t > 0, tends to 0 as z->0 or t->inf and to 1 as z->inf or t->0.
    """
    z_arr = np.asarray(z, dtype=float)
    t_arr = np.asarray(t, dtype=float)
    if np.any(z_arr <= 0) or np.any(t_arr <= 0):
        raise DomainViolation("heat barrier requires z > 0 and t > 0")
    out = erf(z_arr / (2.0 * np.sqrt(t_arr)))
    if np.ndim(z) == 0 and np.ndim(t) == 0:
        return float(out)
    return out


def heat_barrier_psi_quadrature(z: float, t: float) -> float:
    """Adaptive quadrature of the defining integral (independent oracle)."""
    if z <= 0 or t <= 0:
        raise DomainViolation("heat barrier requires z > 0 and t > 0")
    s = 2.0 * math.sqrt(t)

    def integrand(y):
        return math.exp(-((z - y) / s) ** 2) - math.exp(-((z + y) / s) ** 2)

    upper = z + 25.0 * s
    val, _ = quad(integrand, 0.0, upper, limit=400,
                  points=[z] if z < upper else None)
    return val / math.sqrt(4.0 * math.pi * t)


# -- the criteria -------------------------------------------------------------

def criterion_1():
    """Bowl tip curvature = 1/(2 F(1,1)) for every built-in speed."""
    worst = 0.0
    details = {}
    for argv in _TIP_RUNS:
        report, bowl, _ = _run(argv)
        target = report["tip_target"]
        rel = abs(report["tip_curvature"] - target) / target
        details[bowl.speed.label()] = rel
        worst = max(worst, rel)
    return worst <= 1e-6, f"max rel gap {worst:.2e}", "1/(2 F(1,1))", \
        "1e-6 relative", "closed-form", details


def criterion_2():
    """Bowl gradient tail: fitted c2 equals -2 dgamma^1(0,1,...,1)."""
    details = {}
    worst = 0.0
    for kind in ("sum", "bh"):
        _, bowl, fit = _run(("bowl", "--speed", kind))
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
    for row in _run(("shrinker",))[0]["rows"]:
        violations += row["lower_bound_violations"]
        details[f"a={row['a']:g}"] = {
            "min_margin": row["lower_bound_min_margin"],
            "violations": row["lower_bound_violations"]}
    return violations == 0, f"{violations} violations", "0 violations", \
        "pointwise >=", "closed-form", details


def criterion_4():
    """Neck quantity w > 2 everywhere; tip limit 2 F(1,1)/F(0,1)."""
    details = {}
    ok = True
    for row in _run(("shrinker",))[0]["rows"]:
        rel = abs(row["w_tip"] - row["w_tip_target"]) / row["w_tip_target"]
        details[f"a={row['a']:g}"] = {"w_min": row["w_min"],
                                      "lower_ok": row["w_lower_ok"],
                                      "tip": row["w_tip"], "tip_rel": rel}
        ok = ok and row["w_lower_ok"] and rel <= 0.02
    return ok, "w>2 and tip limits (see details)", \
        "w > 2; tip -> 3 (sum n=3)", "strict; 2% on tip", "closed-form", \
        details


def criterion_5():
    """Shrinker caps converge to the bowl on compacts as a grows."""
    _, bowl, _ = _run(("bowl", "--speed", "sum"))
    caps = _run(("shrinker",))[1]
    grid = np.geomspace(0.05, 10.0, 400)
    zeta, zeta_rho = bowl.poly(grid), bowl.poly(grid, 1)
    rows = [{"a": cap.a,
             "sup_gap": float(np.max(np.abs(cap.poly(grid) - zeta))),
             "sup_gap_rho": float(np.max(np.abs(cap.poly(grid, 1)
                                                - zeta_rho)))}
            for cap in caps]
    gaps = [r["sup_gap"] for r in rows]
    monotone = gaps[0] > gaps[1] > gaps[2]
    ratio = gaps[2] / gaps[0]
    ok = monotone and ratio < 0.25
    return ok, f"gaps {gaps[0]:.3g} > {gaps[1]:.3g} > {gaps[2]:.3g}; " \
               f"ratio {ratio:.3g}", \
        f"monotone; a={caps[2].a:g} gap < 1/4 of a={caps[0].a:g}", \
        "ratio < 0.25", "oracle", {"rows": rows}


def criterion_6():
    """Cylinder regression: second-order convergence and 1e-6 accuracy."""
    errs = [_run(("flow", "--scheme", "rk2", "--delta", d))[0]["final_error"]
            for d in ("0.1", "0.05", "0.025")]
    ratios = [errs[i] / errs[i + 1] for i in range(2)]
    ok = min(ratios) >= 3.5 and errs[-1] <= 1e-6
    return ok, f"errors {errs[0]:.2e}/{errs[1]:.2e}/{errs[2]:.2e}, " \
               f"ratios {ratios[0]:.1f}/{ratios[1]:.1f}", \
        "ratio >= 3.5; final <= 1e-6", "see target", "exact-solution", \
        {"errors": errs}


def criterion_7():
    """Simulated bowl window translates at its soliton speed 1/2."""
    # each of the run's 40 steps is recorded: the level-set fit's rms
    # depends on where the samples fall on the grid, and the verify
    # baseline holds it for the samples t = k/40
    run = ("flow", "--preset", "bowl-translation", "--t-end", "1")
    res = _run(run)[0]["translation"]
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
    z = flow.uniform_grid(-12.0, 12.0, delta)
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
        rep = linearize_rescaled_at_cylinder(_speed(kind, n, k),
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
    z = flow.uniform_grid(-14.0, 14.0, 0.05)
    eps = 1e-4
    details = {}
    ok = True
    for k in (0, 1, 2, 3):
        st = RadialFlowState("rescaled", z, sigma + eps * basis.value(k, z),
                             0.0, sp)
        hist = run_flow(st, 1.0 / 20, 20, bc=BoundaryCondition(mode="frozen"),
                        scheme="semi_implicit", record_every=1)
        nodes = basis.interpolate_samples(z, (hist.snapshots - sigma).T)
        coeffs = np.array([basis.project(un)[k] for un in nodes.T])
        if k == 2:
            drift = float(abs(coeffs[-1] - coeffs[0]))
            details["k=2 drift"] = drift
            ok = ok and drift < 1e-5
        else:
            slope, _, _ = flow.line_fit(hist.times, np.log(np.abs(coeffs)))
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
        "z->0": heat_barrier_psi(1e-8, 1.0),
        "z->inf": 1.0 - heat_barrier_psi(20.0, 1.0),
        "t->0": 1.0 - heat_barrier_psi(1.0, 1e-6),
        "t->inf": heat_barrier_psi(1.0, 1e12),
    }
    limits_ok = all(abs(v) <= 1e-6 for v in probes.values())
    closed = heat_barrier_psi(2.0, 1.0)
    oracle = heat_barrier_psi_quadrature(2.0, 1.0)
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
        g = sp.gamma(lam)
        worst_h = max(float(np.max(np.abs(sp.gamma(t * lam) - t * g)
                                   / (t * g))) for t in (0.5, 2.0, 10.0))
        grad = sp.gradient(lam)
        ok = ok and not np.any(grad <= 0)
        # central differences along each axis, one row of probes per sample
        h = 1e-5
        steps = np.eye(sp.n) * h
        fd = (sp.gamma((lam[:, None] + steps).reshape(-1, sp.n))
              - sp.gamma((lam[:, None] - steps).reshape(-1, sp.n))) / (2 * h)
        worst_m = float(np.max(np.abs(fd.reshape(lam.shape) - grad)
                               / np.abs(grad)))
        # the closed-form inverse f the profile kernels use, on 100 samples
        # (y, z/y, t) of the cone F(0,1) < z/y < Q
        hi = min(sp.Q, 100.0 * sp.F01)
        y, ratio, t = rng.uniform([0.1, 1.01 * sp.F01, 0.5],
                                  [10.0, 0.99 * hi, 2.0], size=(100, 3)).T
        x = sp.f_closed(y, ratio * y)
        worst_inv = float(np.max(np.abs(sp.F(x, y) - ratio * y)
                                 / (ratio * y)))
        worst_hom = float(np.max(np.abs(sp.f_closed(t * y, t * ratio * y)
                                        - t * x)
                                 / np.maximum(t * x, 1e-10)))
        details[sp.label()] = {"homog": worst_h, "monot_fd": worst_m,
                               "inverse": worst_inv, "inv_homog": worst_hom}
        ok = ok and worst_h <= 1e-12 and worst_m <= 1e-6 \
            and worst_inv <= 1e-12 and worst_hom <= 1e-10

    # the G expansion is quadratic and the trace-gamma expansion (with
    # S = (1, 1)) first-order small in the graph: each error over its
    # smallness measure stays put as the amplitude halves
    z = np.linspace(-6.0, 6.0, 241)
    bh3 = _speed("bh", 3)
    ratios, trace_ratios = [], []
    for j in range(6):
        amp = 0.01 * 2.0 ** -j
        graph = CylinderGraph.from_callable(
            2.0, z, lambda zz: amp * np.exp(-zz ** 2),
            lambda zz: -2 * zz * amp * np.exp(-zz ** 2),
            lambda zz: amp * (4 * zz ** 2 - 2) * np.exp(-zz ** 2))
        ratios.append(expansion_error_G(graph, bh3).ratio)
        trace_ratios.append(trace_gamma_expansion_error(
            graph, bh3, 1.0, 1.0).ratio)
    for key, rs in (("expansion_scale_drift", ratios),
                    ("trace_gamma_scale_drift", trace_ratios)):
        details[key] = max(abs(r / rs[-1] - 1.0) for r in rs)
        ok = ok and details[key] < 0.2
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
            hits = _run.cache_info().hits
            start = time.perf_counter()
            passed, measured, target, tol, prov, details = fn()
            return CriterionResult(cid=c, title=title, passed=passed,
                                   measured=measured, target=target,
                                   tolerance=tol, provenance=prov,
                                   runtime=time.perf_counter() - start,
                                   details=details,
                                   cache_hits=_run.cache_info().hits - hits)
    raise ValueError(f"unknown criterion id {cid}")


def run_all(only=None) -> list[CriterionResult]:
    ids = criteria_ids() if only is None else list(only)
    return [run_criterion(cid) for cid in ids]
