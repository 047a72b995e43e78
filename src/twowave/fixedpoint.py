"""Fixed-point solvers for the two-wave boundary-value problem.

Both solvers apply one integral primitive, written on the anchored
coordinate d = x - l1. d is built as linspace(0, L, n), so it depends on
the length L = l2 - l1 alone and a shifted interval gives the same result:

    V(f)(x) = int_{l1}^{x} (x - t) f(t) dt = d int_{l1}^{x} f - int_{l1}^{x} d f.

* Picard successive approximation on the Volterra form u = slope*d + V(f(u)),
  the textbook double integral reduced analytically, with the unknown
  left-end slopes (beta, gamma) matched so the iterate vanishes at l2.

* Fredholm iteration with the Dirichlet Green kernel, which contracts
  whenever the certificate constant A is below one. Its integral is
  derived from V: int G f = (d/L) V(f)(l2) - V(f)(x).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import quadrature
from .errors import (
    ConfigurationError,
    DivergenceError,
    MatchingFailureError,
    NoRealSolutionError,
    NotConvergedError,
)
from .model import Domain, FieldPair, Grid, SystemParams, eval_f1, eval_f2


@dataclass(frozen=True)
class MatchingConstants:
    """Unknown left-endpoint slopes beta = phi'(l1), gamma = psi'(l1)."""

    beta: float
    gamma: float

    def __post_init__(self):
        if not (math.isfinite(self.beta) and math.isfinite(self.gamma)):
            raise ConfigurationError("matching constants must be finite")


@dataclass(frozen=True)
class IterConfig:
    """Iteration limits and quadrature choice."""

    max_iter: int = 50
    tol: float = 1e-12
    quadrature: str = "simpson"

    def __post_init__(self):
        if self.max_iter < 1:
            raise ConfigurationError("max_iter must be >= 1")
        if not self.tol > 0.0:
            raise ConfigurationError("tol must be positive")
        if self.quadrature not in quadrature.RULES:
            raise ConfigurationError(f"unknown quadrature {self.quadrature!r}")


@dataclass(frozen=True)
class PicardState:
    """One Picard iterate plus its successive-difference history."""

    n: int
    fields: FieldPair
    constants: MatchingConstants
    diff_norms: tuple = field(default=())

    def __post_init__(self):
        if self.n != len(self.diff_norms):
            raise ConfigurationError("diff_norms must have exactly n entries")


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

    Returns (K1^{n+1} L^{n+2} / (n+2)!, same with K2); dominates
    ||u_{n+1} - u_n|| on intervals of length L while the iterates stay
    inside the box the K's were computed from.
    """
    if not L > 0.0:
        raise ConfigurationError("L must be positive")
    fac = math.factorial(n + 2)
    return (
        bound.K1 ** (n + 1) * L ** (n + 2) / fac,
        bound.K2 ** (n + 1) * L ** (n + 2) / fac,
    )


def _anchored(grid: Grid) -> np.ndarray:
    """The anchored coordinate d = x - l1, built from 0 so it depends on L only."""
    return np.linspace(0.0, grid.domain.length, grid.n, dtype=grid.nodes.dtype)


def _volterra(f: np.ndarray, d: np.ndarray, h: float, rule: str) -> np.ndarray:
    """V(f) = int_{l1}^{x_k} (x_k - t) f(t) dt = d_k int f - int d f at every node."""
    out = d * quadrature.cumulative(f, h, rule)
    out -= quadrature.cumulative(d * f, h, rule)
    return out


def _green(f: np.ndarray, d: np.ndarray, h: float, rule: str) -> np.ndarray:
    """int_{l1}^{l2} G(x, t) f(t) dt = (d/L) V(f)(l2) - V(f)(x) at every node."""
    v = _volterra(f, d, h, rule)
    return np.subtract(d * (v[-1] / d[-1]), v, out=v)


def initial_state(grid: Grid, consts: MatchingConstants) -> PicardState:
    """Iterate 0: the straight lines beta*(x - l1), gamma*(x - l1)."""
    d = _anchored(grid)
    return PicardState(
        n=0,
        fields=FieldPair(consts.beta * d, consts.gamma * d),
        constants=consts,
    )


def picard_step(
    params: SystemParams, grid: Grid, state: PicardState, cfg: IterConfig
) -> PicardState:
    """Advance the Picard recursion by one iterate."""
    phi, psi = state.fields.phi, state.fields.psi
    b, g = state.constants.beta, state.constants.gamma
    d, h, rule = _anchored(grid), grid.h, cfg.quadrature
    # Overflow in a blowing-up iterate surfaces as DivergenceError below.
    with np.errstate(over="ignore", invalid="ignore"):
        new_phi = b * d + _volterra(eval_f1(params, phi, psi), d, h, rule)
        new_psi = g * d + _volterra(eval_f2(params, phi, psi), d, h, rule)
    if not (np.isfinite(new_phi).all() and np.isfinite(new_psi).all()):
        raise DivergenceError(state.n + 1)
    diff = max(
        float(np.max(np.abs(new_phi - phi))), float(np.max(np.abs(new_psi - psi)))
    )
    return PicardState(
        n=state.n + 1,
        fields=FieldPair(new_phi, new_psi),
        constants=state.constants,
        diff_norms=state.diff_norms + (diff,),
    )


def first_iterate(
    params: SystemParams, domain: Domain, consts: MatchingConstants, x
):
    """Closed form of Picard iterate 1 from the straight-line iterate 0.

    phi1 = beta d + (1/r)(beta d^3/3! - beta gamma d^4/4!),
    psi1 = gamma d + (1/s)(alpha gamma d^3/3! - (beta^2/2) d^4/4!),
    with d = x - l1.
    """
    d = np.asarray(x, dtype=float) - domain.l1
    b, g = consts.beta, consts.gamma
    phi = b * d + (b * d**3 / 6.0 - b * g * d**4 / 24.0) / params.r
    psi = g * d + (params.alpha * g * d**3 / 6.0 - 0.5 * b * b * d**4 / 24.0) / params.s
    if phi.ndim == 0:
        return float(phi), float(psi)
    return phi, psi


def match_constants_order1(
    params: SystemParams,
    domain: Domain,
    beta_sign: float = 1.0,
    printed_beta_formula: bool = False,
) -> MatchingConstants:
    """Slopes that make the first Picard iterate vanish at the right endpoint.

    gamma = 4! r (1 + L^2/(3! r)) / L^3 and
    beta^2 = 2 (4!)^2 r s (1 + L^2/(3! r)) (1 + alpha L^2/(3! s)) / L^6.

    ``printed_beta_formula`` swaps the first bracket's r for s, matching a
    widely circulated but inconsistent variant of the beta formula; it is
    kept only for comparison and does not zero the endpoint when r != s.
    """
    L = domain.length
    r, s, alpha = params.r, params.s, params.alpha
    first_bracket = 1.0 + L * L / (6.0 * (s if printed_beta_formula else r))
    radicand = (
        2.0 * 576.0 * r * s * first_bracket * (1.0 + alpha * L * L / (6.0 * s)) / L**6
    )
    if radicand < 0.0:
        raise NoRealSolutionError(radicand)
    gamma = 24.0 * r * (1.0 + L * L / (6.0 * r)) / L**3
    beta = math.copysign(math.sqrt(radicand), beta_sign)
    return MatchingConstants(beta=beta, gamma=gamma)


def endpoint_residual(state: PicardState) -> float:
    """|phi(l2)| + |psi(l2)| of the current iterate."""
    return abs(float(state.fields.phi[-1])) + abs(float(state.fields.psi[-1]))


def _run_fixed(
    params: SystemParams,
    grid: Grid,
    cfg: IterConfig,
    order: int,
    consts: MatchingConstants,
    tol_stop: bool,
) -> PicardState:
    state = initial_state(grid, consts)
    for _ in range(order):
        state = picard_step(params, grid, state, cfg)
        if tol_stop and state.diff_norms[-1] < cfg.tol:
            break
    return state


def solve_picard(
    params: SystemParams,
    grid: Grid,
    cfg: IterConfig,
    order: int,
    constants: MatchingConstants | None = None,
    beta_sign: float = 1.0,
    newton_max_iter: int = 50,
    newton_tol: float = 1e-11,
) -> PicardState:
    """Run `order` Picard steps with slopes matched at the right endpoint.

    With ``constants`` supplied the slopes are held fixed and no matching
    is performed (useful for convergence studies). Otherwise a damped
    Newton iteration with a finite-difference Jacobian drives the
    endpoint values of the order-th iterate to zero, starting from the
    order-1 closed-form slopes.
    """
    if order < 1:
        raise ConfigurationError("order must be >= 1")
    if constants is not None:
        return _run_fixed(params, grid, cfg, order, constants, tol_stop=True)

    def endpoint_map(v: np.ndarray) -> np.ndarray:
        st = _run_fixed(
            params, grid, cfg, order, MatchingConstants(v[0], v[1]), tol_stop=False
        )
        return np.array([st.fields.phi[-1], st.fields.psi[-1]])

    guess = match_constants_order1(params, domain=grid.domain, beta_sign=beta_sign)
    v = np.array([guess.beta, guess.gamma])
    fv = endpoint_map(v)
    res = float(np.abs(fv).sum())
    for _ in range(newton_max_iter):
        if res <= newton_tol:
            break
        jac = np.empty((2, 2))
        for j in range(2):
            step = 1e-6 * max(abs(v[j]), 1.0)
            vp = v.copy()
            vp[j] += step
            jac[:, j] = (endpoint_map(vp) - fv) / step
        try:
            delta = np.linalg.solve(jac, -fv)
        except np.linalg.LinAlgError as exc:
            raise MatchingFailureError(res) from exc
        lam = 1.0
        while lam > 1e-8:
            trial = v + lam * delta
            ft = endpoint_map(trial)
            rt = float(np.abs(ft).sum())
            if rt < res:
                v, fv, res = trial, ft, rt
                break
            lam *= 0.5
        else:
            raise MatchingFailureError(res)
    if res > newton_tol:
        raise MatchingFailureError(res)
    return _run_fixed(
        params, grid, cfg, order, MatchingConstants(v[0], v[1]), tol_stop=False
    )


def green_kernel_iterate(
    params: SystemParams, grid: Grid, start: FieldPair, cfg: IterConfig
) -> tuple[FieldPair, list[float]]:
    """Iterate the Green-kernel integral operator from `start`.

    Returns the final pair and the trace of combined successive
    sup-norm differences ||dphi|| + ||dpsi|| (the norm the contraction
    certificate bounds) once the difference drops below cfg.tol. Raises
    NotConvergedError if cfg.max_iter applications do not get there.
    """
    d = _anchored(grid)
    phi, psi = start.phi, start.psi
    trace: list[float] = []
    for k in range(cfg.max_iter):
        with np.errstate(over="ignore", invalid="ignore"):
            new_phi = _green(eval_f1(params, phi, psi), d, grid.h, cfg.quadrature)
            new_psi = _green(eval_f2(params, phi, psi), d, grid.h, cfg.quadrature)
        if not (np.isfinite(new_phi).all() and np.isfinite(new_psi).all()):
            raise DivergenceError(k + 1)
        diff = float(np.max(np.abs(new_phi - phi))) + float(
            np.max(np.abs(new_psi - psi))
        )
        trace.append(diff)
        phi, psi = new_phi, new_psi
        if diff < cfg.tol:
            return FieldPair(phi, psi), trace
    raise NotConvergedError(len(trace), trace[-1])
