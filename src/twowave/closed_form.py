"""Closed-form profiles: the exact alpha=1 pair and the asymptotic series.

The exact pair exists at alpha=1 where the system decouples along
phi = sqrt(2)*psi into psi'' - psi + psi^2 = 0, solved by a sech^2 hump.
The component ordering here is the one that actually solves both
equations of the system (phi carries the larger 3/sqrt(2) amplitude);
see `twowave exact --help`.

1 - tanh^2(u) is evaluated as sech^2(u) throughout: the subtraction
cancels catastrophically for large |u| while sech^2 underflows cleanly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .model import FieldPair, Grid, _require_finite

SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class ExactSolutionParams:
    """Translation parameter c2 of the exact alpha=1 solution."""

    c2: float = 0.0

    def __post_init__(self):
        _require_finite(self, "c2")


@dataclass(frozen=True)
class SeriesParams:
    """Large-alpha series truncation: order 0 keeps the leading terms only."""

    alpha: float
    s: float = 1.0
    order: int = 0

    def __post_init__(self):
        _require_finite(self, "alpha", "s")
        if not self.alpha > 0.0:
            raise ConfigurationError("series require alpha > 0")
        if self.order not in (0, 1):
            raise ConfigurationError("series order must be 0 or 1")


def _sech(u):
    # cosh overflows past |u| ~ 710, where 1/inf = 0 is sech's exact double limit.
    with np.errstate(over="ignore"):
        return 1.0 / np.cosh(u)


def exact_alpha1(x, p: ExactSolutionParams):
    """Exact solution at r = s = alpha = 1.

    psi(x) = (3/2) sech^2((x + c2)/2) and phi = sqrt(2) psi. Accepts
    scalars or arrays; returns (phi, psi).
    """
    u = 0.5 * (np.asarray(x, dtype=float) + p.c2)
    psi = 1.5 * _sech(u) ** 2
    return SQRT2 * psi, psi


def exact_alpha1_derivatives(x, p: ExactSolutionParams):
    """Analytic derivatives of the exact pair.

    Returns (phi, dphi, d2phi, psi, dpsi, d2psi); used to check residuals
    and first integrals without finite differences.
    """
    u = 0.5 * (np.asarray(x, dtype=float) + p.c2)
    sech2 = _sech(u) ** 2
    t = np.tanh(u)
    psi = 1.5 * sech2
    # d/dx sech^2((x+c2)/2) = -sech^2 * tanh * (du/dx = 1/2) * 2
    dpsi = -1.5 * sech2 * t
    # psi'' = psi - psi^2 holds identically; differentiate directly instead:
    # d/dx (sech^2 tanh) = (1/2)(sech^4 - 2 sech^2 tanh^2)
    d2psi = -0.75 * (sech2 * sech2 - 2.0 * sech2 * t * t)
    return SQRT2 * psi, SQRT2 * dpsi, SQRT2 * d2psi, psi, dpsi, d2psi


def bright_series(x, p: SeriesParams):
    """Bright-soliton large-alpha series (the r = +1 branch).

    Leading order (2 sqrt(alpha) sech x, 2 sech^2 x); order 1 adds
    4 s alpha^{-1/2} tanh^2 x sech x to phi and
    s alpha^{-1} (16 sech^2 x - 20 sech^4 x) to psi.
    """
    x = np.asarray(x, dtype=float)
    sech = _sech(x)
    phi = 2.0 * math.sqrt(p.alpha) * sech
    psi = 2.0 * sech * sech
    if p.order >= 1:
        t2 = np.tanh(x) ** 2
        phi = phi + 4.0 * p.s / math.sqrt(p.alpha) * t2 * sech
        psi = psi + p.s / p.alpha * (16.0 * sech**2 - 20.0 * sech**4)
    return phi, psi


def dark_series(x, p: SeriesParams):
    """Dark-soliton large-alpha series (the r = -1 branch), tau = x/sqrt(2).

    Leading order (sqrt(2 alpha) tanh tau, tanh^2 tau); order 1 adds
    sqrt(2) s alpha^{-1/2} (tau sech^2 tau - tanh tau sech^2 tau) to phi
    and s alpha^{-1/2} (2 tau tanh tau sech^2 tau - 4 sech^2 tau
    + 5 sech^4 tau) to psi.
    """
    tau = np.asarray(x, dtype=float) / SQRT2
    t = np.tanh(tau)
    phi = SQRT2 * math.sqrt(p.alpha) * t
    psi = t * t
    if p.order >= 1:
        sech2 = _sech(tau) ** 2
        phi = phi + SQRT2 * p.s / math.sqrt(p.alpha) * (tau * sech2 - t * sech2)
        psi = psi + p.s / math.sqrt(p.alpha) * (
            2.0 * tau * t * sech2 - 4.0 * sech2 + 5.0 * sech2 * sech2
        )
    return phi, psi


# Each kind's parameter type and profile function.
_FORMS = {"exact": (ExactSolutionParams, exact_alpha1),
          "bright": (SeriesParams, bright_series),
          "dark": (SeriesParams, dark_series)}
KINDS = tuple(_FORMS)


def sample_closed_form(kind: str, grid: Grid, params) -> FieldPair:
    """Evaluate the chosen closed form on all grid nodes."""
    if kind not in _FORMS:
        raise ConfigurationError(f"unknown closed form {kind!r}; expected one of {KINDS}")
    kind_params, fn = _FORMS[kind]
    if not isinstance(params, kind_params):
        raise ConfigurationError(f"kind {kind!r} needs {kind_params.__name__}")
    return FieldPair(*fn(grid.nodes, params))
