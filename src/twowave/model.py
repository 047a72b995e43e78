"""Coupled stationary two-wave system: parameters, grids, fields, residuals.

The system under study is

    r phi'' - phi + phi psi     = 0,
    s psi'' - alpha psi + phi^2/2 = 0,

written throughout in first-order form phi'' = f1(phi, psi),
psi'' = f2(phi, psi) with

    f1 = (phi - phi psi) / r,      f2 = (alpha psi - phi^2 / 2) / s.

Their linearisation, which the Newton tangent pass lifts, is `eval_df`.

All types are immutable value data; every operation is a pure function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .quadrature import _as_float_array


def _require_finite(value, *names: str) -> None:
    """Raise ConfigurationError naming the first field in `names` that is not finite."""
    for name in names:
        if not math.isfinite(getattr(value, name)):
            raise ConfigurationError(f"{name} must be finite, got {getattr(value, name)!r}")


@dataclass(frozen=True)
class SystemParams:
    """Coefficients (r, s, alpha) of the coupled system.

    All three must be finite; r and s must be nonzero (they divide the
    right-hand sides); alpha must be positive (the series and certificates
    assume it).
    """

    r: float = 1.0
    s: float = 1.0
    alpha: float = 1.0

    def __post_init__(self):
        _require_finite(self, "r", "s", "alpha")
        if self.r == 0.0:
            raise ConfigurationError("r must be nonzero")
        if self.s == 0.0:
            raise ConfigurationError("s must be nonzero")
        if not self.alpha > 0.0:
            raise ConfigurationError("alpha must be positive")


@dataclass(frozen=True)
class Domain:
    """Finite interval [l1, l2], of finite length, the boundary conditions are imposed on."""

    l1: float
    l2: float

    def __post_init__(self):
        _require_finite(self, "l1", "l2")
        if not self.l2 > self.l1:
            raise ConfigurationError(f"need l2 > l1, got [{self.l1}, {self.l2}]")
        _require_finite(self, "length")

    @property
    def length(self) -> float:
        return self.l2 - self.l1


@dataclass(frozen=True)
class Grid:
    """Uniform grid (domain, n, dtype), n >= 3, that computes `nodes` when read; see `uniform`."""

    domain: Domain
    n: int
    dtype: np.dtype

    @classmethod
    def uniform(cls, domain: Domain, n: int, dtype=float) -> "Grid":
        # n is checked, and sized by numpy without touching a page, here.
        if n < 3:
            raise ConfigurationError("grid needs at least 3 nodes")
        try:
            np.empty(n, dtype)
        except (ValueError, MemoryError) as exc:
            raise ConfigurationError(f"too many grid nodes: {exc}") from None
        return cls(domain, n, np.dtype(dtype))

    @property
    def nodes(self) -> np.ndarray:
        return np.linspace(self.domain.l1, self.domain.l2, self.n, dtype=self.dtype)

    @property
    def h(self) -> float:
        return (self.domain.l2 - self.domain.l1) / (self.n - 1)

    def check_samples(self, u) -> None:
        """Raise ConfigurationError unless u holds one sample per node."""
        if np.shape(u) != (self.n,):
            raise ConfigurationError(f"samples of shape {np.shape(u)} do not fit {self.n} nodes")


@dataclass(frozen=True)
class FieldPair:
    """Sampled profiles of the fundamental (phi) and second harmonic (psi)."""

    phi: np.ndarray
    psi: np.ndarray

    def __post_init__(self):
        # Preserve wider float dtypes (longdouble grids are used for
        # convergence studies whose bounds dip below float64 roundoff).
        phi = _as_float_array(self.phi)
        psi = _as_float_array(self.psi)
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "psi", psi)
        if phi.shape != psi.shape or phi.ndim != 1:
            raise ConfigurationError("phi and psi must be 1-d arrays of equal length")
        if not (np.isfinite(phi).all() and np.isfinite(psi).all()):
            raise ConfigurationError("field values must be finite")

    @classmethod
    def zeros(cls, n: int) -> "FieldPair":
        return cls(np.zeros(n), np.zeros(n))


@dataclass(frozen=True)
class Bounds:
    """Finite sup bounds M >= |phi|, Mstar >= |psi| used by the certificates."""

    M: float
    Mstar: float

    def __post_init__(self):
        _require_finite(self, "M", "Mstar")
        if self.M < 0.0 or self.Mstar < 0.0:
            raise ConfigurationError("bounds must be nonnegative")


# With no buffers given, each fresh temporary is freed as soon as it is read
# (eval_f1's nested calls) or reused in place (eval_f2), so at most two are live.
def eval_f1(params: SystemParams, phi, psi, out=None):
    """Right-hand side of the fundamental wave: (phi - phi*psi) / r.

    Written into ``out`` when given (it may not share memory with phi or psi).
    """
    return np.divide(np.subtract(phi, np.multiply(phi, psi, out=out), out=out), params.r, out=out)


def eval_f2(params: SystemParams, phi, psi, out=None, scratch=None):
    """Right-hand side of the second harmonic: (alpha*psi - phi^2/2) / s.

    Written into ``out`` when given, with ``scratch`` holding phi^2/2; neither
    may share memory with phi or psi.
    """
    half_sq = np.multiply(phi, 0.5, out=scratch)
    half_sq *= phi  # in place on arrays; a scalar is rebound
    f2 = np.multiply(psi, params.alpha, out=out)
    f2 -= half_sq
    f2 /= params.s
    return f2


def eval_df(params: SystemParams, phi, psi, a, b, out, scratch):
    """Linearised right-hand side: the derivative of (f1, f2) at (phi, psi) along (a, b).

        df1 = ((1 - psi) a - phi b) / r,      df2 = (alpha b - phi a) / s.

    Written into the pair ``out``, which is returned, with ``scratch`` holding
    phi b and then phi a; none of the three may share memory with phi, psi, a or b.
    """
    g1, g2 = out
    np.subtract(1.0, psi, out=g1)
    g1 *= a
    g1 -= np.multiply(phi, b, out=scratch)
    g1 /= params.r
    np.multiply(b, params.alpha, out=g2)
    g2 -= np.multiply(phi, a, out=scratch)
    g2 /= params.s
    return out


def residual(params: SystemParams, grid: Grid, fields: FieldPair):
    """Central finite-difference residuals of both equations at interior nodes.

    Returns (R1, R2), like phi and psi, with R_i[k] = D2 u[k] - f_i(phi[k], psi[k])
    for 1 <= k <= n-2 and zeros at the two endpoints (boundary conditions are
    checked separately, not mixed into the interior residual).
    """
    grid.check_samples(fields.phi)
    h2 = grid.h * grid.h
    phi, psi = fields.phi, fields.psi
    out = (np.zeros_like(phi), np.zeros_like(psi))
    for u, f, res in zip((phi, psi), (eval_f1, eval_f2), out):
        inner = res[1:-1]  # (u[k-1] - 2 u[k] + u[k+1]) / h^2 - f, written in place
        np.subtract(u[:-2], np.multiply(u[1:-1], 2.0, out=inner), out=inner)
        inner += u[2:]
        inner /= h2
        inner -= f(params, phi[1:-1], psi[1:-1])
    return out


def _sup_norm(x: np.ndarray) -> float:
    """max |x| as a float, read from x's extremes without writing |x|; NaN if x holds one.

    An all-zero x gives +0.0, whatever the signs of its zeros.
    """
    return abs(max(float(x.max()), -float(x.min())))


def sup_norms(fields: FieldPair) -> Bounds:
    """Max-abs bounds of the two profiles, packaged for the certificates."""
    return Bounds(_sup_norm(fields.phi), _sup_norm(fields.psi))
