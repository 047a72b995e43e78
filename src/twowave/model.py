"""Coupled stationary two-wave system: parameters, grids, fields, residuals.

The system under study is

    r phi'' - phi + phi psi     = 0,
    s psi'' - alpha psi + phi^2/2 = 0,

written throughout in first-order form phi'' = f1(phi, psi),
psi'' = f2(phi, psi) with

    f1 = (phi - phi psi) / r,      f2 = (alpha psi - phi^2 / 2) / s.

All types are immutable value data; every operation is a pure function.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError


@dataclass(frozen=True)
class SystemParams:
    """Coefficients (r, s, alpha) of the coupled system.

    r and s must be nonzero (they divide the right-hand sides); alpha
    must be positive (the series and certificates assume it).
    """

    r: float = 1.0
    s: float = 1.0
    alpha: float = 1.0

    def __post_init__(self):
        if self.r == 0.0:
            raise ConfigurationError("r must be nonzero")
        if self.s == 0.0:
            raise ConfigurationError("s must be nonzero")
        if not self.alpha > 0.0:
            raise ConfigurationError("alpha must be positive")


@dataclass(frozen=True)
class Domain:
    """Interval [l1, l2] the boundary conditions are imposed on."""

    l1: float
    l2: float

    def __post_init__(self):
        if not self.l2 > self.l1:
            raise ConfigurationError(f"need l2 > l1, got [{self.l1}, {self.l2}]")

    @property
    def length(self) -> float:
        return self.l2 - self.l1


@dataclass(frozen=True)
class Grid:
    """Uniform sampling of a Domain with n >= 3 nodes; build it with `uniform`."""

    domain: Domain
    n: int
    nodes: np.ndarray = field(repr=False)

    def __post_init__(self):
        if len(self.nodes) != self.n:
            raise ConfigurationError("node array length disagrees with n")

    @classmethod
    def uniform(cls, domain: Domain, n: int, dtype=float) -> "Grid":
        # n is checked before numpy sizes the node array.
        if n < 3:
            raise ConfigurationError("grid needs at least 3 nodes")
        try:
            nodes = np.linspace(domain.l1, domain.l2, n, dtype=dtype)
        except (ValueError, MemoryError) as exc:
            raise ConfigurationError(f"too many grid nodes: {exc}") from None
        return cls(domain, n, nodes)

    @property
    def h(self) -> float:
        return (self.domain.l2 - self.domain.l1) / (self.n - 1)


@dataclass(frozen=True)
class FieldPair:
    """Sampled profiles of the fundamental (phi) and second harmonic (psi)."""

    phi: np.ndarray
    psi: np.ndarray

    def __post_init__(self):
        # Preserve wider float dtypes (longdouble grids are used for
        # convergence studies whose bounds dip below float64 roundoff).
        phi = np.asarray(self.phi)
        psi = np.asarray(self.psi)
        if phi.dtype.kind != "f":
            phi = phi.astype(float)
        if psi.dtype.kind != "f":
            psi = psi.astype(float)
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
    """Sup bounds M >= |phi|, Mstar >= |psi| used by the certificates."""

    M: float
    Mstar: float

    def __post_init__(self):
        if self.M < 0.0 or self.Mstar < 0.0:
            raise ConfigurationError("bounds must be nonnegative")


def eval_f1(params: SystemParams, phi, psi):
    """Right-hand side of the fundamental wave: (phi - phi*psi) / r."""
    return (phi - phi * psi) / params.r


def eval_f2(params: SystemParams, phi, psi):
    """Right-hand side of the second harmonic: (alpha*psi - phi^2/2) / s."""
    return (params.alpha * psi - 0.5 * phi * phi) / params.s


def residual(params: SystemParams, grid: Grid, fields: FieldPair):
    """Central finite-difference residuals of both equations at interior nodes.

    Returns (R1, R2) with R_i[k] = D2 u[k] - f_i(phi[k], psi[k]) for
    1 <= k <= n-2 and zeros at the two endpoints (boundary conditions are
    checked separately, not mixed into the interior residual).
    """
    if len(fields.phi) != grid.n:
        raise ConfigurationError(
            f"fields have {len(fields.phi)} entries but grid has {grid.n} nodes"
        )
    h2 = grid.h * grid.h
    phi, psi = fields.phi, fields.psi
    r1 = np.zeros(grid.n)
    r2 = np.zeros(grid.n)
    r1[1:-1] = (phi[:-2] - 2.0 * phi[1:-1] + phi[2:]) / h2 - eval_f1(
        params, phi[1:-1], psi[1:-1]
    )
    r2[1:-1] = (psi[:-2] - 2.0 * psi[1:-1] + psi[2:]) / h2 - eval_f2(
        params, phi[1:-1], psi[1:-1]
    )
    return r1, r2


def sup_norms(fields: FieldPair) -> Bounds:
    """Max-abs bounds of the two profiles, packaged for the certificates."""
    return Bounds(float(np.max(np.abs(fields.phi))), float(np.max(np.abs(fields.psi))))
