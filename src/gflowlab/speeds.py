"""Curvature speed functions and their restriction algebra.

A speed is a symmetric, 1-homogeneous, strictly monotone function
gamma: Gamma -> R_+ of the principal curvatures.  Three families are built
in:

* ``sum``          -- gamma(lam) = lam_1 + ... + lam_n (mean curvature),
* ``bh``           -- gamma(lam) = (sum_{i<j} (lam_i + lam_j)^{-1})^{-1},
* ``sigma_ratio``  -- gamma(lam) = sigma_k(lam) / sigma_{k-1}(lam).

Alongside gamma itself the module provides the two-argument restriction
F(x, y) = gamma(x, y, ..., y), its partial inverse f (the unique x >= 0
with F(x, y) = z), and the ellipticity ceiling Q = lim_{x->inf} F(x, 1).
"""

from __future__ import annotations

import math
import numpy as np

from .errors import ConeViolation

KINDS = ("sum", "bh", "sigma_ratio")
# sample_cone_interior's samples lie inside the cone by at least this margin
SAMPLE_MARGIN = 0.05


def closed_forms(kind, p0, p1, p2):
    """(F, Fx, f) of the family ``kind`` with constants ``params`` (p0, p1,
    p2): F(x, y) = gamma(x, y, ..., y), dF/dx and the partial inverse
    f(y, z), the x with F(x, y) = z, unchecked; all work elementwise.

        sum          F(x, y) = x + p0*y
        bh           F(x, y) = 1 / (p0/(x+y) + p1/y)
        sigma_ratio  F(x, y) = y*(p0*y + p1*x) / (p1*y + p2*x)
    """
    if kind == "sum":
        return (lambda x, y: x + p0 * y, lambda x, y: 1.0 + 0.0 * x,
                lambda y, z: z - p0 * y)
    if kind == "bh":
        def F(x, y):
            return 1.0 / (p0 / (x + y) + p1 / y)

        def Fx(x, y):
            g = F(x, y)
            return g * g * p0 / ((x + y) * (x + y))

        return F, Fx, lambda y, z: p0 / (1.0 / z - p1 / y) - y

    def Fx(x, y):
        d = p1 * y + p2 * x
        return y * y * (p1 * p1 - p0 * p2) / (d * d)

    return (lambda x, y: y * (p0 * y + p1 * x) / (p1 * y + p2 * x), Fx,
            lambda y, z: y * (z * p1 - p0 * y) / (y * p1 - z * p2))


def _elementary_symmetric(lam: np.ndarray) -> np.ndarray:
    """The elementary symmetric sigma_0..sigma_n of ``lam``'s last axis."""
    e = np.zeros(lam.shape[:-1] + (lam.shape[-1] + 1,))
    e[..., 0] = 1.0
    for j in range(lam.shape[-1]):
        e[..., 1:] = e[..., 1:] + lam[..., j, None] * e[..., :-1]
    return e


def _as_lambda(lam) -> np.ndarray:
    """``lam`` as one curvature vector or an (m, n) stack of them, C-ordered
    so that numpy sums each row of a stack as it sums one vector."""
    arr = np.ascontiguousarray(lam, dtype=float)
    if arr.ndim > 2:
        raise ValueError("curvatures must be one vector or an (m, n) stack "
                         f"of them, got {arr.ndim} dimensions")
    if arr.shape[-1] < 2:
        raise ValueError("curvature vector must be 1D with n >= 2 entries")
    return arr


class SpeedFunction:
    """A built-in curvature speed together with its cached constants.

    Instances are immutable in spirit: all state is set at construction.
    The cached constants are F(0,1), F(1,1), a_lin = dgamma^1(0,1,...,1)
    and the ellipticity ceiling Q, set in closed form per family, and
    ``forms``, the family's ``closed_forms`` (F, Fx, f), bound once.
    """

    def __init__(self, kind: str, n: int, k: int | None = None):
        if kind not in KINDS:
            raise ValueError(f"unknown speed kind {kind!r}; choose from {KINDS}")
        n = int(n)
        if n < 2:
            raise ValueError("dimension n must be >= 2")
        if kind == "bh":
            if n < 3:
                raise ConeViolation(
                    "bh speed needs n >= 3: for n = 2 the pair structure is "
                    "degenerate and the inversion window collapses")
            k = None
        elif kind == "sigma_ratio":
            k = 2 if k is None else int(k)
            if k < 1:
                raise ValueError("sigma_ratio needs k >= 1")
            if n < k + 1:
                raise ConeViolation(
                    f"sigma_ratio(k={k}) needs n >= k+1 so the restriction "
                    "cone contains (0, 1, ..., 1)")
        else:
            k = None
        self.kind = kind
        self.n = n
        self.k = k
        # Q = lim_{x->inf} F(x, 1): the leading x-terms of F's numerator and
        # denominator, or +inf where F grows linearly in x; cone_factor is
        # the c with x + c*y > 0 defining the restriction cone of (x, y, ...)
        self.cone_factor = (n - k) / k if kind == "sigma_ratio" else 1.0
        if kind == "sum":
            self.params = (float(n - 1), 0.0, 0.0)
            self.Q = math.inf
        elif kind == "bh":
            self.params = (float(n - 1), (n - 1) * (n - 2) / 4.0, 0.0)
            self.Q = 1.0 / self.params[1]
            self._pairs = np.triu_indices(n, k=1)
        else:
            self.params = (float(math.comb(n - 1, k)),
                           float(math.comb(n - 1, k - 1)),
                           float(math.comb(n - 1, k - 2)) if k >= 2 else 0.0)
            self.Q = self.params[1] / self.params[2] if k >= 2 else math.inf
        self.forms = closed_forms(kind, *self.params)
        self.F01 = self.F(0.0, 1.0)
        self.F11 = self.F(1.0, 1.0)
        self.a_lin = self.Fx(0.0, 1.0)

    # -- full symmetric-function interface ---------------------------------
    # gamma, gradient and contains_cone take one curvature vector or an
    # (m, n) stack; row i of a stack's result is row i's own, bit for bit.

    def _in_cone(self, arr: np.ndarray, margin: float) -> np.ndarray:
        arr = np.sort(arr, axis=-1)
        if self.kind in ("sum", "bh"):
            return arr[..., 0] + arr[..., 1] > margin
        e = _elementary_symmetric(arr)
        return np.all(e[..., 1:self.k + 1] > margin, axis=-1)

    def contains_cone(self, lam, margin: float = 0.0):
        """Whether ``lam`` lies in the admissible cone (strictly, by
        ``margin``): a bool, or one per row of a stack.

        sum/bh use the two-positive cone; sigma_ratio uses the Garding-type
        cone sigma_1 > 0, ..., sigma_k > 0 on which the ratio is positive
        and monotone.
        """
        arr = _as_lambda(lam)
        inside = (self._in_cone(arr, margin) if arr.shape[-1] == self.n
                  else np.zeros(arr.shape[:-1], dtype=bool))
        return bool(inside) if arr.ndim == 1 else inside

    def _require(self, lam) -> np.ndarray:
        arr = _as_lambda(lam)
        if arr.shape[-1] != self.n:
            raise ConeViolation(
                f"expected {self.n} curvatures, got {arr.shape[-1]}")
        outside = np.flatnonzero(~self._in_cone(arr, 0.0))
        if outside.size:
            i = outside[0]
            row, where = ((arr, "") if arr.ndim == 1
                          else (arr[i], f" (row {i})"))
            raise ConeViolation(
                f"curvature vector {row.tolist()}{where} lies outside the "
                f"cone of the {self.kind} speed")
        return arr

    def _gamma(self, arr: np.ndarray):
        if self.kind == "sum":
            return arr.sum(axis=-1)
        if self.kind == "bh":
            # take keeps a stack's pair sums C-ordered, so numpy sums each
            # row as it sums one vector
            i, j = self._pairs
            pair = np.take(arr, i, axis=-1) + np.take(arr, j, axis=-1)
            return 1.0 / np.sum(1.0 / pair, axis=-1)
        e = _elementary_symmetric(arr)
        return e[..., self.k] / e[..., self.k - 1]

    def gamma(self, lam):
        """Evaluate the speed at a curvature vector inside the cone: a
        float, or an array of one value per row of a stack."""
        arr = self._require(lam)
        return float(self._gamma(arr)) if arr.ndim == 1 else self._gamma(arr)

    def gradient(self, lam) -> np.ndarray:
        """Analytic gradient (dgamma^1, ..., dgamma^n) at ``lam``, one row
        per row of a stack."""
        arr = self._require(lam)
        if self.kind == "sum":
            return np.ones(arr.shape)
        if self.kind == "bh":
            g = self._gamma(arr)[..., None]
            pair = arr[..., :, None] + arr[..., None, :]
            pair[..., np.arange(self.n), np.arange(self.n)] = np.inf
            t = np.sum(1.0 / pair ** 2, axis=-1)
            return g * g * t
        k = self.k
        e = _elementary_symmetric(arr)[..., None, :]
        # reduced[..., i, :]: the sigma_j of lam with lam_i left out
        reduced = np.stack([_elementary_symmetric(np.delete(arr, i, axis=-1))
                            for i in range(self.n)], axis=-2)
        dkm1 = reduced[..., k - 2] if k >= 2 else 0.0
        return ((e[..., k - 1] * reduced[..., k - 1] - e[..., k] * dkm1)
                / e[..., k - 1] ** 2)

    # -- restriction algebra -------------------------------------------------

    @staticmethod
    def _num(x):
        return np.asarray(x, dtype=float) if np.ndim(x) else float(x)

    def F(self, x, y):
        """Restriction F(x, y) = gamma(x, y, ..., y)."""
        return self.forms[0](self._num(x), self._num(y))

    def Fx(self, x, y):
        """dF/dx, equal to dgamma^1 at (x, y, ..., y)."""
        return self.forms[1](self._num(x), self._num(y))

    def f_closed(self, y, z):
        """Closed-form partial inverse f(y, z), the x with F(x, y) = z on
        the cone F(0,1) < z/y < Q; elementwise, unchecked.  The profile
        kernels use it, and verify's criterion 12 checks it."""
        return self.forms[2](self._num(y), self._num(z))

    # -- config fragment -----------------------------------------------------

    def to_config(self) -> dict:
        cfg = {"kind": self.kind, "n": self.n}
        if self.k is not None:
            cfg["k"] = self.k
        return cfg

    def label(self) -> str:
        if self.kind == "sigma_ratio":
            return f"sigma_ratio(k={self.k}) n={self.n}"
        return f"{self.kind} n={self.n}"

    def __repr__(self):
        return f"SpeedFunction({self.label()})"


def sample_cone_interior(speed: SpeedFunction, rng: np.random.Generator,
                         count: int) -> np.ndarray:
    """Random curvature vectors inside the cone by ``SAMPLE_MARGIN`` (for
    property tests)."""
    out = np.empty((count, speed.n))
    got = 0
    lo = SAMPLE_MARGIN if speed.kind == "sigma_ratio" else -0.4
    while got < count:
        lam = rng.uniform(lo, 3.0, size=speed.n)
        if speed.contains_cone(lam, margin=SAMPLE_MARGIN):
            out[got] = np.sort(lam)
            got += 1
    return out
