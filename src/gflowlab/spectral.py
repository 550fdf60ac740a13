"""Weighted-L^2 eigenstructure of the linearized rescaled flow.

The linearization at the cylinder is the drift-diffusion operator

    L u = a u_zz + Delta_{S^{n-1}} u / (2(n-1)) - z u_z / 2 + u,

symmetric for the measure e^{-z^2/4a} dz dtheta.  Its eigenfunctions are
H_k(z / (2 sqrt(a))) Y_l^m(theta) with eigenvalues
1 - k/2 - l(l+n-2)/(2(n-1)).  This module builds the Gauss-Hermite
machinery for the z-factor, projections onto the positive / zero / negative
eigenspaces, and the windowed tail traces used for mode-dominance
bookkeeping of rescaled-flow runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.hermite import hermgauss

from . import _accel
from .errors import QuadratureFailure, WindowTooShort, require_positive
from .flow import cylinder_radius, line_fit

# fewest windows a trace may have (one per time unit of the run), and the
# fewest the mode-dominance classifier fits
MIN_TRACE_WINDOWS = 2
MIN_CLASSIFIER_WINDOWS = 8
# merle_zaag_classifier's thresholds on the log-ratio slope and on the share
SLOPE_THRESHOLD = -0.1
RATIO_THRESHOLD = 0.1


def eigenvalue(n: int, k: int, l: int) -> float:
    """mu_{k,l} = 1 - k/2 - l(l+n-2)/(2(n-1))."""
    if n < 2 or k < 0 or l < 0:
        raise ValueError("need n >= 2 and k, l >= 0")
    return 1.0 - 0.5 * k - l * (l + n - 2) / (2.0 * (n - 1.0))


def mode_sign(n: int, k: int, l: int) -> str:
    mu = eigenvalue(n, k, l)
    if mu > 0:
        return "+"
    if mu < 0:
        return "-"
    return "0"


def eigen_table(n: int, kmax: int, lmax: int) -> np.ndarray:
    """Eigenvalues mu_{k,l} for 0 <= k <= kmax, 0 <= l <= lmax."""
    return np.array([[eigenvalue(n, k, l) for l in range(lmax + 1)]
                     for k in range(kmax + 1)])


def _hermite_functions(K: int, x) -> np.ndarray:
    """Rows psi_0..psi_K of the Hermite functions orthonormal for e^{-x^2} dx,
    at the points x, by the stable three-term recurrence."""
    x = np.asarray(x, dtype=float)
    out = np.empty((K + 1,) + x.shape)
    psi_km1 = np.zeros_like(x)
    psi_k = np.full_like(x, math.pi ** -0.25)
    for k in range(K + 1):
        out[k] = psi_k
        psi_km1, psi_k = psi_k, (x * psi_k * math.sqrt(2.0 / (k + 1))
                                 - psi_km1 * math.sqrt(k / (k + 1.0)))
    return out


def eigenfunction(a: float, k: int, z) -> np.ndarray:
    """The eigenfunction n_k, normalized for the weight e^{-z^2/4a}, at
    arbitrary points z: no quadrature nodes are needed for it."""
    s = 2.0 * math.sqrt(a)
    x = np.asarray(z, dtype=float) / s
    return _hermite_functions(k, x)[k] / math.sqrt(s)


@dataclass
class HermiteBasis:
    """Orthonormal Hermite-eigenfunction basis for the weight e^{-z^2/4a}.

    values[k] holds n_k(z_i) at the rescaled Gauss-Hermite nodes z_i with
    weights wz_i, so that <u, v> ~= sum_i wz_i u(z_i) v(z_i) and
    <n_j, n_k> = delta_jk.
    """

    a: float
    z: np.ndarray
    wz: np.ndarray
    values: np.ndarray
    gram_error: float

    def value(self, k: int, z):
        """Normalized eigenfunction n_k at arbitrary points."""
        return eigenfunction(self.a, k, z)

    def project(self, u_nodes: np.ndarray) -> np.ndarray:
        """Coefficients <u, n_k>, one per row of ``values``."""
        return self.values @ (self.wz * u_nodes)

    def norm_sq(self, u_nodes: np.ndarray) -> float:
        return float(np.sum(self.wz * u_nodes ** 2))

    def interpolate_samples(self, z_samples, u_samples) -> np.ndarray:
        """Sampled profiles resampled onto the quadrature nodes (0 outside).

        z runs along axis 0 of ``u_samples``: one profile, or a
        (z, profile) block whose columns one PCHIP call interpolates, bit
        for bit as one call per column would.
        """
        vals = _accel.pchip(z_samples, u_samples, self.z)
        return np.where(np.isnan(vals), 0.0, vals)


def build_basis(a: float, K: int, quad_order: int) -> HermiteBasis:
    """Gauss-Hermite basis adapted to the weight e^{-z^2/4a}.

    Nodes are rescaled by z = 2 sqrt(a) x.  Requires a finite and positive
    and quad_order >= 2K + 2, so that pairwise products of retained modes
    are integrated exactly; raises QuadratureFailure when the Gram matrix
    deviates from the identity (or is not finite).
    """
    a = require_positive("a", a)
    if K < 0:
        raise ValueError("max degree K must be >= 0")
    if quad_order < 2 * K + 2:
        raise ValueError("quad_order must be at least 2K + 2")
    x, w = hermgauss(quad_order)
    s = 2.0 * math.sqrt(a)
    vals = _hermite_functions(K, x) / math.sqrt(s)
    wz = s * w
    gram = vals @ (vals * wz).T
    gram_err = float(np.max(np.abs(gram - np.eye(K + 1))))
    if not gram_err <= 1e-10:
        raise QuadratureFailure(
            f"orthogonality defect {gram_err:.3g} exceeds 1e-10")
    return HermiteBasis(a=a, z=s * x, wz=wz, values=vals, gram_error=gram_err)


def mode_energies(c) -> tuple[float, float, float]:
    """Energies of the coefficients c in the positive (k <= 1), zero (k = 2)
    and negative (k >= 3) eigenspaces."""
    c = np.asarray(c, dtype=float)
    return (float(np.sum(c[:2] ** 2)), float(np.sum(c[2:3] ** 2)),
            float(np.sum(c[3:] ** 2)))


def smooth_cutoff(s):
    """C^3 polynomial smoothstep bump: 1 on [-1/2, 1/2], 0 off [-1, 1],
    with s * chi'(s) <= 0 everywhere."""
    s = np.abs(np.asarray(s, dtype=float))
    t = np.clip(2.0 * s - 1.0, 0.0, 1.0)
    ramp = 35 * t ** 4 - 84 * t ** 5 + 70 * t ** 6 - 20 * t ** 7
    return 1.0 - ramp


def suffix_max(arr):
    """out[j] = max(arr[j:])."""
    return np.maximum.accumulate(arr[::-1])[::-1]


@dataclass
class GammaTrace:
    """Windowed tail traces of a rescaled-flow run.

    Window j covers run times [T-j-1, T-j] (counted backward from the end
    so that larger j means closer to the cylinder, mirroring the tau -> -inf
    convention); the per-mode Gamma_k are suffix suprema over j >= k.
    """

    gamma: np.ndarray
    gamma_plus: np.ndarray
    gamma_zero: np.ndarray
    gamma_minus: np.ndarray
    delta: np.ndarray
    sandwich_constant: float
    windows: np.ndarray = field(init=False)
    Gamma_plus: np.ndarray = field(init=False)
    Gamma_zero: np.ndarray = field(init=False)
    Gamma_minus: np.ndarray = field(init=False)

    def __post_init__(self):
        self.windows = np.arange(self.gamma.size)
        self.Gamma_plus = suffix_max(self.gamma_plus)
        self.Gamma_zero = suffix_max(self.gamma_zero)
        self.Gamma_minus = suffix_max(self.gamma_minus)


def gamma_trace_from_run(history, basis: HermiteBasis, r: float,
                         L: float) -> GammaTrace:
    """Windowed weighted norms of u = v - sigma from a rescaled-flow run.

    Each window's profile is cut off by chi(delta_j^r z) before projecting,
    where delta_j is the running sup of |u| over |z| <= L from the window
    onward into the tail.  delta^{-r} grows slowly for a small r, so a
    small r keeps only |z| <~ 1 of the weight.  One ``pchip`` call per
    window interpolates all of the window's snapshots, with z along axis 0;
    each snapshot is then projected on its own.
    """
    sigma = cylinder_radius(history.speed)
    times = history.times
    T = float(times[-1])
    span = T - float(times[0])
    n_windows = int(math.floor(span))
    if n_windows < MIN_TRACE_WINDOWS:
        raise WindowTooShort(
            f"run spans {span:.2f} time units, need >= {MIN_TRACE_WINDOWS}")

    sup_L = history.sup_deviation(sigma, window=L)

    gamma = np.zeros(n_windows)
    gplus = np.zeros(n_windows)
    gzero = np.zeros(n_windows)
    gminus = np.zeros(n_windows)
    delta = np.zeros(n_windows)
    ratios = []
    for j in range(n_windows):
        tail = times <= T - j
        delta[j] = float(np.max(sup_L[tail])) if np.any(tail) else 0.0
        in_win = (times >= T - j - 1) & (times <= T - j)
        scale = delta[j] ** r if delta[j] > 0 else 1.0
        u = (history.snapshots[in_win] - sigma).T
        nodes = (basis.interpolate_samples(history.z, u)
                 * smooth_cutoff(scale * basis.z)[:, None])
        best = np.zeros(4)
        for u_nodes in nodes.T:
            parts = np.array([basis.norm_sq(u_nodes),
                              *mode_energies(basis.project(u_nodes))])
            if parts[0] > best[0]:
                best = parts
        gamma[j], gplus[j], gzero[j], gminus[j] = best
        if best[0] > 0:
            ratios.append((best[1] + best[2] + best[3]) / best[0])

    ratios = np.asarray(ratios) if ratios else np.array([1.0])
    sandwich = float(max(np.max(ratios), 1.0 / max(np.min(ratios), 1e-300)))
    return GammaTrace(gamma=gamma, gamma_plus=gplus, gamma_zero=gzero,
                      gamma_minus=gminus, delta=delta,
                      sandwich_constant=sandwich)


def _log_ratio_stats(num, den):
    """(slope, last, max) of log(num/den) over the later half of the windows."""
    valid = (num > 0) & (den > 0)
    k = np.arange(num.size)[valid]
    y = np.log(num[valid] / den[valid])
    if k.size >= 4:
        cut = k.size // 2
        k, y = k[cut:], y[cut:]
    if k.size < 2:
        return None, None, None
    slope, _, _ = line_fit(k, y)
    return slope, float(y[-1]), float(np.max(y))


def merle_zaag_classifier(trace: GammaTrace) -> dict:
    """Mode-dominance verdict from the fitted decay of the non-dominant parts.

    A part dominates when the others' share either trends to zero (log-ratio
    slope below ``SLOPE_THRESHOLD`` per window over the later half) or stays
    below ``RATIO_THRESHOLD`` at every fitted window.  The latter clause
    covers runs whose contamination is a flat cutoff-mixing floor or a fixed
    seed admixture.  Inconclusive when neither part qualifies.
    """
    if trace.windows.size < MIN_CLASSIFIER_WINDOWS:
        raise WindowTooShort(f"need >= {MIN_CLASSIFIER_WINDOWS} windows, "
                             f"have {trace.windows.size}")
    rest_p = trace.Gamma_zero + trace.Gamma_minus
    rest_0 = trace.Gamma_plus + trace.Gamma_minus
    slope_p, last_p, max_p = _log_ratio_stats(rest_p, trace.Gamma_plus)
    slope_0, last_0, max_0 = _log_ratio_stats(rest_0, trace.Gamma_zero)
    log_thresh = math.log(RATIO_THRESHOLD)

    def dominated(slope, last, peak):
        if slope is None:
            return False
        if slope < SLOPE_THRESHOLD and last < 0:
            return True
        return peak < log_thresh

    verdict = "inconclusive"
    if dominated(slope_p, last_p, max_p):
        verdict = "positive-dominated"
    elif dominated(slope_0, last_0, max_0):
        verdict = "neutral-dominated"
    return {"verdict": verdict,
            "slope_vs_plus": slope_p, "slope_vs_zero": slope_0,
            "final_log_ratio_vs_plus": last_p,
            "final_log_ratio_vs_zero": last_0,
            "max_log_ratio_vs_plus": max_p,
            "max_log_ratio_vs_zero": max_0}
