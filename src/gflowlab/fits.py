"""Quantitative tail fits: bowl asymptotics, shrinker neck bounds, and the
decay rate of rescaled-flow runs.

Fits use log-spaced samples over the window and weighted least squares with
weights proportional to the expected next-order term, since the remainders
of the underlying expansions come with no explicit rates.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import WindowTooNarrow, WindowTooShort
from .flow import FlowHistory, cylinder_radius, line_fit
from .solitons import (BowlProfile, ShrinkerProfile,
                       shrinker_upper_bound_fit)

# shortest tau range measure_rescaled_decay fits a slope over
MIN_DECAY_SPAN = 6.0


@dataclass
class AsymptoticFit:
    """A fitted tail model with its residual and target values."""

    model: str
    window: tuple
    coefficients: dict
    residual: float
    targets: dict = field(default_factory=dict)
    meta: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"model": self.model, "window": list(self.window),
                "coefficients": self.coefficients, "residual": self.residual,
                "targets": self.targets, "meta": self.meta}


def fit_bowl_expansion(bowl: BowlProfile, window: tuple) -> AsymptoticFit:
    """Fit zeta_rho - rho/(2 F(0,1)) against c2/rho over the window.

    The fitted c2 is compared with -2 dgamma^1(0,1,...,1).  Weighted least
    squares with weights rho^2 (the deviation itself decays like 1/rho).
    """
    lo, hi = float(window[0]), float(window[1])
    if not (hi >= 10.0 * lo and lo >= 10.0):
        raise WindowTooNarrow("need rho_hi >= 10 rho_lo >= 100")
    if hi > bowl.rho[-1]:
        raise WindowTooNarrow(
            f"window end {hi} beyond the solved range {bowl.rho[-1]:.4g}")
    f01 = bowl.speed.F01
    rho = np.geomspace(lo, hi, 200)
    xi = bowl.poly(rho, 1) - rho / (2.0 * f01)
    wts = rho ** 2
    c2 = float(np.sum(wts * xi / rho) / np.sum(wts / rho ** 2))
    resid = float(np.max(np.abs(xi - c2 / rho)))
    target = -2.0 * bowl.speed.a_lin
    return AsymptoticFit(
        model="zeta_rho ~ rho/(2 F(0,1)) + c2/rho",
        window=(lo, hi),
        coefficients={"c2": c2, "leading": 1.0 / (2.0 * f01)},
        residual=resid,
        targets={"c2": target, "provenance": "closed-form gradient"},
        meta={"speed": bowl.speed.label(),
              "relative_gap": abs(c2 - target) / abs(target)})


def fit_shrinker_neck(profiles: list[ShrinkerProfile], L: float) -> dict:
    """Upper-bound correction fit on a sweep: the constant is fitted per a,
    and the verified claim is boundedness: ``stable`` flags whether the
    fitted constants of the top three parameters stay within a factor of
    two.  The lower bound v^2 >= 2F(0,1)(1 - z^2/a^2) is checked per
    profile by ``ShrinkerProfile.lower_bound_margin``.
    """
    if len(profiles) < 1:
        raise ValueError("need at least one profile")
    a_vals = sorted(p.a for p in profiles)
    if len(profiles) >= 4 and a_vals[-1] < 8.0 * a_vals[0]:
        raise WindowTooNarrow("a-sweep should span a factor >= 8")
    rows = [{"a": p.a, "C_fit": shrinker_upper_bound_fit(p, L)}
            for p in sorted(profiles, key=lambda q: q.a)]
    top = [r["C_fit"] for r in rows[-3:]]
    stable = bool(max(top) <= 2.0 * min(top)) if len(top) >= 2 else True
    return {"upper": {"L": L, "rows": rows, "stable": stable}}


def sup_growth_fit(history: FlowHistory, L: float) -> dict:
    """Fitted slope of log sup_{|z|<=L} |v - sigma| against tau, or the
    exact fixed point when that deviation stays below 1e-14."""
    sup = history.sup_deviation(cylinder_radius(history.speed), window=L)
    if np.max(sup) < 1e-14:
        return {"fixed_point": True, "slope": None, "sup_final": 0.0}
    valid = sup > 0
    slope, _, rms = line_fit(history.times[valid], np.log(sup[valid]))
    return {"fixed_point": False, "slope": slope, "rms": rms,
            "sup_final": float(sup[-1])}


def measure_rescaled_decay(history: FlowHistory, L: float) -> dict:
    """``sup_growth_fit`` over a run that spans ``MIN_DECAY_SPAN``.

    A positive-mode-dominated run grows like e^{tau/2} forward in time
    (the k = 1 eigenvalue), so the target slope is 1/2 for bowl-consistent
    data.
    """
    span = float(history.times[-1] - history.times[0])
    if span < MIN_DECAY_SPAN:
        raise WindowTooShort(f"tau range {span:.2f} < {MIN_DECAY_SPAN}")
    return sup_growth_fit(history, L)
