"""Certificates and integral diagnostics for the coupled system.

The certificates bound the problem data over a box |phi| <= M, |psi| <= Mstar:
sup and Lipschitz bounds of the two right-hand sides, the factorial envelope
of the Picard differences, the largest interval length for which the Schauder
argument applies, and the contraction constant A (A < 1 forces uniqueness).

The energy identity and the H1-norm trichotomy are derived for
r = s = 1; calling them with other coefficients warns but proceeds.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, asdict

import numpy as np

from . import quadrature
from .errors import ConfigurationError, DegenerateBoundsError, DomainError
from .model import Bounds, Domain, FieldPair, Grid, SystemParams, _require_finite

_TINY = 1e-300
_NORM_REL_TOL = 1e-6  # norm_ordering's 'equal': the H1 norms agree to this relative gap


@dataclass(frozen=True)
class LipschitzConstants:
    """Constants L_ij with |f_i(u1) - f_i(u2)| <= L_i1 |dphi| + L_i2 |dpsi|."""

    L11: float
    L12: float
    L21: float
    L22: float

    def __post_init__(self):
        _require_finite(self, "L11", "L12", "L21", "L22")


@dataclass(frozen=True)
class Certificate:
    """Existence/uniqueness certificate for one parameter set and box."""

    params: SystemParams
    domain: Domain
    bounds: Bounds
    lipschitz: LipschitzConstants
    L_max: float
    A: float
    equicontinuity: float
    exists_ok: bool
    unique_ok: bool

    def __post_init__(self):
        # Bounds near the float limit overflow K1, K2; JSON has no Infinity or NaN.
        _require_finite(self, "L_max", "A", "equicontinuity")

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class ConvergenceBound:
    """Sup bounds K1, K2 of |f1|, |f2| over a box (M, Mstar)."""

    K1: float
    K2: float

    @classmethod
    def from_bounds(cls, params: SystemParams, M: float, Mstar: float) -> "ConvergenceBound":
        return cls(
            K1=(M + M * Mstar) / abs(params.r),
            K2=(params.alpha * Mstar + 0.5 * M * M) / abs(params.s),
        )


def convergence_bound(bound: ConvergenceBound, L: float, n: int) -> tuple[float, float]:
    """Factorial bound on the n-th successive difference of the iterates.

    Returns (K1^{n+1} L^{n+2} / (n+2)!, same with K2). The larger of the
    two dominates the larger update max(||dphi||, ||dpsi||) of the n-th step
    on intervals of length L, while the iterates stay inside the box the K's
    were computed from. The entries are not per-field bounds: from slopes
    0.1 on [0, 1], phi's update exceeds the K1 entry at steps 4-9 when
    (r, s, alpha) = (1, 1, 4).
    """
    if not L > 0.0:
        raise ConfigurationError("L must be positive")
    fac = math.factorial(n + 2)
    return (
        bound.K1 ** (n + 1) * L ** (n + 2) / fac,
        bound.K2 ** (n + 1) * L ** (n + 2) / fac,
    )


def lipschitz(params: SystemParams, bounds: Bounds) -> LipschitzConstants:
    """Lipschitz constants of (f1, f2) over the box (M, Mstar)."""
    M, Mstar = bounds.M, bounds.Mstar
    return LipschitzConstants(
        L11=(1.0 + Mstar) / abs(params.r),
        L12=M / abs(params.r),
        L21=M / abs(params.s),
        L22=params.alpha / abs(params.s),
    )


def existence_interval_bound(params: SystemParams, bounds: Bounds) -> float:
    """Largest interval length the existence argument admits: (8(M+M*)/(K1+K2))^(1/3)."""
    cb = ConvergenceBound.from_bounds(params, bounds.M, bounds.Mstar)
    if cb.K1 + cb.K2 == 0.0:
        raise DegenerateBoundsError("M = Mstar = 0 gives an empty existence bound")
    return (8.0 * (bounds.M + bounds.Mstar) / (cb.K1 + cb.K2)) ** (1.0 / 3.0)


def _length_squared(domain: Domain) -> float:
    """L^2, inf where it overflows; the Certificate's finite check rejects that."""
    try:
        return domain.length**2
    except OverflowError:
        return math.inf


def uniqueness_constant(params: SystemParams, domain: Domain, bounds: Bounds) -> float:
    """Contraction constant A; A < 1 implies at most one solution."""
    lip = lipschitz(params, bounds)
    biggest = max(max(lip.L11, lip.L21), max(lip.L12, lip.L22))
    return _length_squared(domain) / 8.0 * biggest


def certify(params: SystemParams, domain: Domain, bounds: Bounds) -> Certificate:
    """Assemble the full certificate for one parameter set and bounding box."""
    lip = lipschitz(params, bounds)
    L_max = existence_interval_bound(params, bounds)
    A = uniqueness_constant(params, domain, bounds)
    cb = ConvergenceBound.from_bounds(params, bounds.M, bounds.Mstar)
    return Certificate(
        params=params,
        domain=domain,
        bounds=bounds,
        lipschitz=lip,
        L_max=L_max,
        A=A,
        equicontinuity=_length_squared(domain) / 8.0 * (cb.K1 + cb.K2),
        exists_ok=domain.length <= L_max,
        unique_ok=A < 1.0,
    )


def green_function(a: float, b: float, x, y):
    """Dirichlet Green kernel of u'' on [a, b].

    G(x, y) = (x-a)(b-y)/(b-a) for x <= y, symmetric in (x, y).
    """
    if not b > a:
        raise DomainError(f"need a < b, got [{a}, {b}]")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if np.any(x < a) or np.any(x > b) or np.any(y < a) or np.any(y > b):
        raise DomainError("green_function arguments must lie in [a, b]")
    lo = np.minimum(x, y)
    hi = np.maximum(x, y)
    out = (lo - a) * (b - hi) / (b - a)
    if out.ndim == 0:
        return float(out)
    return out


class DirichletWarning(UserWarning):
    """An H1 norm was taken of samples that do not vanish at both endpoints."""


def dirichlet_endpoints(u: np.ndarray) -> bool:
    """Whether u vanishes at both endpoints, to the 1e-8 the H1 norm assumes."""
    return bool(max(abs(u[0]), abs(u[-1])) <= 1e-8)


def _square_integrals(grid: Grid, u: np.ndarray) -> tuple[float, float]:
    """(int u^2, int u'^2) of samples u on grid, u' by second-order differences."""
    grid.check_samples(u)
    du = np.gradient(u, grid.h, edge_order=2)
    return quadrature.integrate(u * u, grid.h), quadrature.integrate(du * du, grid.h)


def sobolev_h1_norm(grid: Grid, u: np.ndarray) -> float:
    """H1 norm sqrt(int u^2 + int u'^2) for u vanishing at both endpoints."""
    u = np.asarray(u, dtype=float)
    u2, du2 = _square_integrals(grid, u)
    if not dirichlet_endpoints(u):
        warnings.warn(
            "H1 norm assumes homogeneous Dirichlet data; endpoint values "
            f"are ({u[0]:.3e}, {u[-1]:.3e})",
            DirichletWarning,
            stacklevel=2,
        )
    return math.sqrt(u2 + du2)


class CoefficientWarning(UserWarning):
    """A diagnostic derived for r = s = 1 was evaluated with other coefficients."""


def _warn_if_not_unit_coefficients(params: SystemParams, what: str) -> None:
    if params.r != 1.0 or params.s != 1.0:
        warnings.warn(f"{what} is derived for r = s = 1; got r={params.r}, s={params.s}",
                      CoefficientWarning, stacklevel=3)


def energy_identity_residual(params: SystemParams, grid: Grid, fields: FieldPair) -> float:
    """Relative defect of int phi^2 + int phi'^2 = 2 alpha int psi^2 + 2 int psi'^2."""
    _warn_if_not_unit_coefficients(params, "the energy identity")
    lhs = sum(_square_integrals(grid, fields.phi))
    psi2, dpsi2 = _square_integrals(grid, fields.psi)
    rhs = 2.0 * params.alpha * psi2 + 2.0 * dpsi2
    return abs(lhs - rhs) / max(lhs, rhs, _TINY)


def norm_ordering(params: SystemParams, grid: Grid, fields: FieldPair) -> str:
    """Compare ||phi||_1 with sqrt(2) ||psi||_1: 'less', 'equal', or 'greater'."""
    _warn_if_not_unit_coefficients(params, "the norm trichotomy")
    lhs = sobolev_h1_norm(grid, fields.phi)
    rhs = math.sqrt(2.0) * sobolev_h1_norm(grid, fields.psi)
    scale = max(lhs, rhs, _TINY)
    if abs(lhs - rhs) <= _NORM_REL_TOL * scale:
        return "equal"
    return "less" if lhs < rhs else "greater"
