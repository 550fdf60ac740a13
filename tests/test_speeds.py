"""Speed algebra: gamma, gradients, restriction F, inverse f, ceiling Q.

Expected values come from independent oracles implemented here: direct
pair summation for the bh speed, central finite differences for gradients,
and, for the closed-form inverse ``f_closed``, a bracketing-bisection-Newton
inverter and a plain bisection on F(., 1).  A source guard keeps the
families' names, and so their formulas, in ``speeds`` alone.
"""

import ast
import itertools
import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

import gflowlab as gf
from gflowlab.errors import ConeViolation, DomainViolation
from gflowlab.speeds import KINDS, sample_cone_interior

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "gflowlab"


# -- oracles ----------------------------------------------------------------

def bh_gamma_oracle(lam):
    """Direct pair summation: (sum_{i<j} (lam_i + lam_j)^{-1})^{-1}."""
    lam = np.asarray(lam, dtype=float)
    total = 0.0
    for i, j in itertools.combinations(range(lam.size), 2):
        total += 1.0 / (lam[i] + lam[j])
    return 1.0 / total


def fd_gradient_oracle(fn, lam, h=1e-6):
    lam = np.asarray(lam, dtype=float)
    out = np.empty_like(lam)
    for i in range(lam.size):
        e = np.zeros_like(lam)
        e[i] = h
        out[i] = (fn(lam + e) - fn(lam - e)) / (2 * h)
    return out


# ImplicitInverse's Newton polish stops at |F(x, y) - z| <= INVERSE_TOL z
INVERSE_TOL = 1e-12


@dataclass
class ImplicitInverse:
    """Numeric partial inverse f with F(f(y, z), y) = z, the oracle that
    ``SpeedFunction.f_closed`` is checked against.

    Defined on the open cone U = {(y, z): F(0,1) < z/y < Q}.  Root finding
    is bracketing + bisection followed by a Newton polish; the residual
    satisfies |F(x, y) - z| <= ``INVERSE_TOL`` z.
    """

    speed: gf.SpeedFunction

    def __call__(self, y: float, z: float) -> float:
        y = float(y)
        z = float(z)
        if y <= 0.0 or z <= 0.0:
            raise DomainViolation("need y > 0 and z > 0")
        ratio = z / y
        if ratio <= self.speed.F01:
            raise DomainViolation(
                f"z/y = {ratio} <= F(0,1) = {self.speed.F01}")
        if ratio >= self.speed.Q:
            raise DomainViolation(f"z/y = {ratio} >= Q = {self.speed.Q}")

        lo = 0.0
        hi = max(y, 1.0)
        for _ in range(600):
            if self.speed.F(hi, y) >= z:
                break
            lo = hi
            hi *= 2.0
        else:  # pragma: no cover - excluded by the Q check above
            raise DomainViolation("failed to bracket the inverse")

        for _ in range(90):
            mid = 0.5 * (lo + hi)
            if self.speed.F(mid, y) < z:
                lo = mid
            else:
                hi = mid
            if hi - lo <= 1e-15 * (1.0 + hi):
                break
        x = 0.5 * (lo + hi)
        for _ in range(8):
            res = self.speed.F(x, y) - z
            if abs(res) <= INVERSE_TOL * z:
                break
            step = res / self.speed.Fx(x, y)
            x_new = x - step
            if not (lo <= x_new <= hi):
                x_new = 0.5 * (lo + hi)
            if res > 0:
                hi = x
            else:
                lo = x
            x = x_new
        return float(max(x, 0.0))


def bisect_f_oracle(speed, y, z, iters=200):
    """Bisection on x -> F(x, y) - z, independent of ImplicitInverse."""
    lo, hi = 0.0, 1.0
    while speed.F(hi, y) < z:
        hi *= 2.0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if speed.F(mid, y) < z:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# -- gamma -------------------------------------------------------------------

def test_sum_linear_examples(sum3):
    assert sum3.gamma([1.0, 1.0, 1.0]) == 3.0
    assert sum3.gamma([0.0, 1.0, 1.0]) == 2.0 == sum3.F01


def test_bh_pair_summation_limit(bh3):
    # gamma(eps, 1, 1) -> 0.4 as eps -> 0: pair sums 1/1 + 1/1 + 1/2 = 2.5
    for eps in (1e-3, 1e-6, 1e-9):
        val = bh3.gamma([eps, 1.0, 1.0])
        assert val == pytest.approx(bh_gamma_oracle([eps, 1.0, 1.0]), rel=1e-14)
    assert bh3.gamma([0.0, 1.0, 1.0]) == pytest.approx(0.4, abs=1e-15)


def test_bh_matches_oracle_random(bh3, rng):
    for lam in sample_cone_interior(bh3, rng, 50):
        assert bh3.gamma(lam) == pytest.approx(bh_gamma_oracle(lam), rel=1e-13)


def test_cone_violation_raises(bh3, sum3):
    with pytest.raises(ConeViolation):
        bh3.gamma([-1.0, 0.5, 1.0])
    with pytest.raises(ConeViolation):
        sum3.gamma([-2.0, 1.0, 1.0])


def test_bh_needs_three_dimensions():
    with pytest.raises(ConeViolation):
        gf.SpeedFunction("bh", 2)


def test_sigma_ratio_values(sr24):
    # sigma_2/sigma_1 at (1,1,1,1) = 6/4
    assert sr24.gamma([1.0, 1.0, 1.0, 1.0]) == pytest.approx(1.5)
    assert sr24.F01 == pytest.approx(1.0)   # C(3,2)/C(3,1)


# -- gradient ----------------------------------------------------------------

def test_sum_gradient_is_ones(sum3, rng):
    lam = sample_cone_interior(sum3, rng, 1)[0]
    assert np.allclose(sum3.gradient(lam), 1.0)


def test_bh_gradient_closed_form(bh3):
    # dgamma^1(0,1,1) = gamma^2 * sum_{j>=2} (lam_1+lam_j)^{-2} = 0.16*2
    grad = bh3.gradient([0.0, 1.0, 1.0])
    assert grad[0] == pytest.approx(0.32, rel=1e-12)
    fd = fd_gradient_oracle(lambda l: bh_gamma_oracle(l), [0.0, 1.0, 1.0])
    assert np.allclose(grad, fd, rtol=1e-6)


def test_euler_identity(all_speeds, rng):
    for sp in all_speeds:
        for lam in sample_cone_interior(sp, rng, 25):
            grad = sp.gradient(lam)
            assert np.dot(grad, lam) == pytest.approx(sp.gamma(lam), rel=1e-10)


def test_gradient_matches_fd(all_speeds, rng):
    for sp in all_speeds:
        for lam in sample_cone_interior(sp, rng, 20):
            grad = sp.gradient(lam)
            fd = fd_gradient_oracle(sp.gamma, lam, h=1e-5)
            assert np.all(grad > 0)
            assert np.allclose(grad, fd, rtol=1e-6, atol=1e-9)


# -- stacks of curvature vectors ---------------------------------------------

# sigma_ratio k=1 has no sigma_{k-2} term in its gradient
STACK_SPEEDS = [("sum", 3, None), ("bh", 3, None), ("sigma_ratio", 4, 2),
                ("sigma_ratio", 4, 1)]


def _outside(n):
    """A vector outside every built-in cone: sigma_1 < 0 and the two
    smallest entries sum below zero."""
    return np.array([-3.0, -3.0] + [1.0] * (n - 2))


@pytest.mark.parametrize("kind,n,k", STACK_SPEEDS)
def test_stack_matches_per_vector(kind, n, k, rng):
    sp = gf.SpeedFunction(kind, n, k)
    lam = sample_cone_interior(sp, rng, 50) * rng.uniform(0.1, 10.0, (50, 1))
    gammas = [sp.gamma(row) for row in lam]
    assert all(type(g) is float for g in gammas)
    np.testing.assert_array_equal(sp.gamma(lam), gammas)
    np.testing.assert_array_equal(sp.gradient(lam),
                                  [sp.gradient(row) for row in lam])
    probes = np.vstack([lam, _outside(n)])
    for margin in (0.0, 1.0):
        inside = [sp.contains_cone(row, margin) for row in probes]
        assert all(type(c) is bool for c in inside)
        np.testing.assert_array_equal(sp.contains_cone(probes, margin),
                                      inside)


def test_stack_in_any_memory_order_matches_per_vector(rng):
    # from 8 terms on numpy sums a row by its memory layout, so a stack in
    # Fortran order must be summed as C-ordered rows
    for kind in ("sum", "bh"):
        sp = gf.SpeedFunction(kind, 9)
        lam = np.asfortranarray(sample_cone_interior(sp, rng, 200)
                                * 10.0 ** rng.integers(-3, 3, (200, 1)))
        np.testing.assert_array_equal(sp.gamma(lam),
                                      [sp.gamma(row) for row in lam])
        np.testing.assert_array_equal(sp.gradient(lam),
                                      [sp.gradient(row) for row in lam])


@pytest.mark.parametrize("kind,n,k", STACK_SPEEDS)
def test_stack_names_the_vector_outside_the_cone(kind, n, k, rng):
    sp = gf.SpeedFunction(kind, n, k)
    lam = sample_cone_interior(sp, rng, 10)
    lam[7] = _outside(n)
    for fn in (sp.gamma, sp.gradient):
        with pytest.raises(ConeViolation, match=re.escape(
                f"curvature vector {_outside(n).tolist()} (row 7) lies "
                f"outside the cone of the {kind} speed")):
            fn(lam)
        # one vector keeps its message
        with pytest.raises(ConeViolation) as err:
            fn(_outside(n))
        assert str(err.value) == (
            f"curvature vector {_outside(n).tolist()} lies outside the "
            f"cone of the {kind} speed")


@pytest.mark.parametrize("kind,n,k", STACK_SPEEDS)
def test_stack_of_wrong_width_names_the_count(kind, n, k):
    sp = gf.SpeedFunction(kind, n, k)
    for fn in (sp.gamma, sp.gradient):
        with pytest.raises(ConeViolation,
                           match=f"expected {n} curvatures, got {n + 1}$"):
            fn(np.ones((4, n + 1)))
    np.testing.assert_array_equal(sp.contains_cone(np.ones((4, n + 1))),
                                  [False] * 4)


@pytest.mark.parametrize("kind,n,k", STACK_SPEEDS)
def test_three_dimensional_curvatures_are_a_value_error(kind, n, k):
    sp = gf.SpeedFunction(kind, n, k)
    for fn in (sp.gamma, sp.gradient, sp.contains_cone):
        with pytest.raises(ValueError, match="got 3 dimensions") as err:
            fn(np.ones((2, 2, n)))
        assert not isinstance(err.value, ConeViolation)
    with pytest.raises(ValueError) as err:
        sp.gamma([1.0])
    assert str(err.value) == "curvature vector must be 1D with n >= 2 entries"


# -- restriction F -----------------------------------------------------------

def test_restriction_examples(sum3, bh3, all_speeds):
    assert sum3.F(1.0, 1.0) == 3.0
    assert bh3.F(0.0, 1.0) == pytest.approx(0.4)
    for sp in all_speeds:
        assert sp.F(1.0, 1.0) == pytest.approx(
            sp.gamma(np.ones(sp.n)), rel=1e-14)


def test_restriction_matches_gamma(all_speeds, rng):
    for sp in all_speeds:
        for _ in range(20):
            x = rng.uniform(0.0, 5.0)
            y = rng.uniform(0.1, 3.0)
            lam = np.sort(np.concatenate([[x], np.full(sp.n - 1, y)]))
            assert sp.F(x, y) == pytest.approx(sp.gamma(lam), rel=1e-13)


def test_restriction_monotone(all_speeds, rng):
    for sp in all_speeds:
        x = np.linspace(0.0, 8.0, 50)
        vals = np.asarray(sp.F(x, 1.0))
        assert np.all(np.diff(vals) > 0)
        ys = np.linspace(0.5, 3.0, 50)
        vals_y = np.asarray(sp.F(1.0, ys))
        assert np.all(np.diff(vals_y) > 0)


# -- Q ------------------------------------------------------------------------

def _ladder_Q(sp):
    """lim F(x, 1) from F(10^j, 1), j <= 12: +inf when the last value exceeds
    10^6 F(1, 1), else Richardson extrapolation of the 1/x tail."""
    vals = [float(sp.F(10.0 ** j, 1.0)) for j in range(13)]
    if vals[-1] > 1e6 * float(sp.F(1.0, 1.0)):
        return math.inf
    return vals[-1] + (vals[-1] - vals[-2]) / 9.0


def test_Q_sum_is_infinite():
    for n in (2, 3, 5):
        sp = gf.SpeedFunction("sum", n)
        assert math.isinf(sp.Q) and math.isinf(_ladder_Q(sp))


def test_Q_bh_oracle():
    # pair summation: only the (n-1)(n-2)/2 pairs of ones survive x -> inf
    for n, expected in ((3, 2.0), (4, 2.0 / 3.0), (5, 1.0 / 3.0)):
        sp = gf.SpeedFunction("bh", n)
        assert sp.Q == expected
        assert sp.Q == pytest.approx(_ladder_Q(sp), rel=1e-12)
        big = bh_gamma_oracle(np.concatenate([[1e14], np.ones(n - 1)]))
        assert sp.Q == pytest.approx(big, rel=1e-10)


def test_Q_sigma_ratio():
    # F(x,1) -> C(n-1,k-1)/C(n-1,k-2); unbounded for k = 1
    for n, k, expected in ((3, 1, math.inf), (3, 2, 2.0), (4, 2, 3.0),
                           (4, 3, 1.0), (5, 2, 4.0)):
        sp = gf.SpeedFunction("sigma_ratio", n, k)
        assert sp.Q == expected
        assert sp.Q == pytest.approx(_ladder_Q(sp), rel=1e-12)


# -- inverse f ---------------------------------------------------------------

def test_invert_linear(sum3):
    inv = ImplicitInverse(sum3)
    assert inv(1.0, 2.5) == pytest.approx(0.5, abs=1e-12)


def test_invert_bh_example(bh3):
    # solve 2/(x+1) + 1/2 = 1  =>  x = 3
    inv = ImplicitInverse(bh3)
    x = inv(1.0, 1.0)
    assert x == pytest.approx(3.0, rel=1e-12)
    assert x == pytest.approx(bisect_f_oracle(bh3, 1.0, 1.0), rel=1e-12)


def test_invert_limit_at_cone_edge(all_speeds):
    for sp in all_speeds:
        inv = ImplicitInverse(sp)
        prev = math.inf
        for eps in (1e-2, 1e-4, 1e-6):
            x = inv(1.0, sp.F01 + eps)
            assert 0.0 <= x < prev
            prev = x
        assert prev < 1e-4


def test_invert_domain_violations(bh3):
    inv = ImplicitInverse(bh3)
    with pytest.raises(DomainViolation):
        inv(1.0, bh3.F01 * 0.5)
    with pytest.raises(DomainViolation):
        inv(1.0, bh3.Q * 1.5)
    with pytest.raises(DomainViolation):
        inv(-1.0, 1.0)


def test_inverse_consistency_random(all_speeds, rng):
    for sp in all_speeds:
        inv = ImplicitInverse(sp)
        hi = min(sp.Q, 100.0 * sp.F01)
        for _ in range(100):
            y = rng.uniform(0.1, 10.0)
            ratio = rng.uniform(1.01 * sp.F01, 0.99 * hi)
            x = inv(y, ratio * y)
            assert abs(sp.F(x, y) - ratio * y) <= 1e-12 * ratio * y
            t = rng.uniform(0.5, 2.0)
            assert inv(t * y, t * ratio * y) == pytest.approx(
                t * x, rel=1e-10, abs=1e-12)


def test_closed_form_inverse_matches_generic(all_speeds, rng):
    for sp in all_speeds:
        inv = ImplicitInverse(sp)
        hi = min(sp.Q, 50.0 * sp.F01)
        for _ in range(30):
            y = rng.uniform(0.2, 5.0)
            z = y * rng.uniform(1.05 * sp.F01, 0.95 * hi)
            assert sp.f_closed(y, z) == pytest.approx(inv(y, z), rel=1e-10,
                                                      abs=1e-12)


# -- invariants --------------------------------------------------------------

def test_homogeneity(all_speeds, rng):
    for sp in all_speeds:
        for lam in sample_cone_interior(sp, rng, 100):
            g = sp.gamma(lam)
            for t in (0.5, 2.0, 10.0):
                assert abs(sp.gamma(t * lam) - t * g) <= 1e-12 * t * g


def test_symmetry_exhaustive(all_speeds, rng):
    for sp in all_speeds:
        if sp.n > 4:
            continue
        lam = sample_cone_interior(sp, rng, 5)
        for row in lam:
            base = sp.gamma(row)
            for perm in itertools.permutations(row):
                assert sp.gamma(np.asarray(perm)) == pytest.approx(
                    base, rel=1e-13)


def test_concavity_flags(all_speeds, rng):
    for sp in all_speeds:
        pairs = sample_cone_interior(sp, rng, 200).reshape(100, 2, sp.n)
        for lam, mu in pairs:
            mid = sp.gamma(0.5 * (lam + mu))
            avg = 0.5 * (sp.gamma(lam) + sp.gamma(mu))
            if sp.kind == "sum":
                assert mid == pytest.approx(avg, rel=1e-12)
            else:
                assert mid >= avg - 1e-12 * abs(avg)


def test_config_round_trip(all_speeds):
    for sp in all_speeds:
        again = gf.SpeedFunction(**sp.to_config())
        assert again.kind == sp.kind and again.n == sp.n and again.k == sp.k


def test_symmetry_sampled_above_four(rng):
    # exhaustive permutation checks are capped at small n; sample above
    for kind in ("sum", "bh"):
        sp = gf.SpeedFunction(kind, 8)
        lam = sample_cone_interior(sp, rng, 3)
        for row in lam:
            base = sp.gamma(row)
            for _ in range(20):
                perm = rng.permutation(row)
                assert sp.gamma(perm) == pytest.approx(base, rel=1e-13)


def test_mutated_inverse_fails_consistency(bh3):
    # a sign error in the inverse breaks F(f(y,z), y) = z loudly
    inv = ImplicitInverse(bh3)
    y, z = 1.0, 1.0
    x = inv(y, z)
    mutated = -x
    with pytest.raises((ConeViolation, AssertionError)):
        assert abs(bh3.F(mutated, y) - z) <= 1e-12 * z


def test_sigma_ratio_higher_order(rng):
    # k = 3 exercises the C(n-1, k-2) term of the restriction algebra
    sp = gf.SpeedFunction("sigma_ratio", 5, 3)
    assert sp.F01 == pytest.approx((5 - 3) / 3)       # C(4,3)/C(4,2)
    assert sp.F11 == pytest.approx(1.0)               # C(5,3)/C(5,2)
    assert sp.Q == pytest.approx(1.5, rel=1e-12)      # C(4,2)/C(4,1)
    inv = ImplicitInverse(sp)
    for lam in sample_cone_interior(sp, rng, 20):
        grad = sp.gradient(lam)
        assert np.all(grad > 0)
        assert np.dot(grad, lam) == pytest.approx(sp.gamma(lam), rel=1e-10)
        fd = fd_gradient_oracle(sp.gamma, lam, h=1e-5)
        assert np.allclose(grad, fd, rtol=1e-6, atol=1e-9)
    for _ in range(20):
        y = rng.uniform(0.2, 4.0)
        z = y * rng.uniform(1.05 * sp.F01, 0.95 * sp.Q)
        x = inv(y, z)
        assert abs(sp.F(x, y) - z) <= 1e-12 * z
        assert sp.f_closed(y, z) == pytest.approx(x, rel=1e-10)


def test_sigma_ratio_bowl_tip():
    sp = gf.SpeedFunction("sigma_ratio", 5, 3)
    bowl = gf.solve_bowl(sp, rho_max=1.0, tol=1e-10)
    assert bowl.tip_curvature == pytest.approx(0.5, rel=1e-6)


def family_comparisons(source):
    """Line numbers of the comparisons in ``source`` that test a value
    against a speed family's name, alone or in a tuple, list or set."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Compare):
            continue
        values = []
        for operand in [node.left, *node.comparators]:
            values += (operand.elts
                       if isinstance(operand, (ast.Tuple, ast.List, ast.Set))
                       else [operand])
        if any(isinstance(v, ast.Constant) and v.value in KINDS
               for v in values):
            lines.append(node.lineno)
    return lines


def test_only_speeds_compares_family_names():
    # the guard itself, on a small source
    source = ('if kind == "sum":\n    pass\n'
              'x = kind in ("bh", "other")\n'
              'y = "sigma_ratio" != kind\n'
              'z = kind == "cylinder"\n'
              'KINDS = ("sum", "bh")\n')
    assert family_comparisons(source) == [1, 3, 4]
    # a family's closed forms live in speeds.closed_forms; every other
    # module reaches them through a SpeedFunction
    found = {p.name: family_comparisons(p.read_text())
             for p in sorted(PACKAGE.glob("*.py")) if p.name != "speeds.py"}
    assert {name: lines for name, lines in found.items() if lines} == {}
