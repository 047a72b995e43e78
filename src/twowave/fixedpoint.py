"""Fixed-point solvers for the two-wave boundary-value problem.

Both solvers apply one sweep, u <- slope*d + V(f(u)), on the anchored
coordinate d = x - l1, built as linspace(0, L, n) so it depends on the length
L = l2 - l1 alone and a shifted interval gives the same result. V is the
running integral C = `quadrature.cumulative` taken twice; it sees no coordinate:

    V(f)(x) = int_{l1}^{x} (x - t) f(t) dt = int_{l1}^{x} int_{l1}^{t} f = C(C(f)).

* Picard successive approximation on the Volterra form u = slope*d + V(f(u)),
  the textbook double integral, with the unknown left-end slopes
  (beta, gamma) matched so the iterate vanishes at l2.

* Fredholm iteration with the Dirichlet Green kernel, which contracts
  whenever the certificate constant A is below one. Its fixed-point map
  u = -int G f(u) = V(f) - (d/L) V(f)(l2) is the Picard sweep with the
  slopes -V(f)(l2)/L, which make each field vanish at l2.
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
from .model import Domain, FieldPair, Grid, SystemParams, _require_finite, eval_f1, eval_f2


# Newton matching succeeds once |phi(l2)| + |psi(l2)| <= NEWTON_TOL.
NEWTON_MAX_ITER = 50
NEWTON_TOL = 1e-11


@dataclass(frozen=True)
class MatchingConstants:
    """Unknown left-endpoint slopes beta = phi'(l1), gamma = psi'(l1)."""

    beta: float
    gamma: float

    def __post_init__(self):
        _require_finite(self, "beta", "gamma")


@dataclass(frozen=True)
class IterConfig:
    """Green-iteration limits: at most max_iter sweeps, stopping once an update is below tol."""

    max_iter: int = 50
    tol: float = 1e-12

    def __post_init__(self):
        if self.max_iter < 1:
            raise ConfigurationError("max_iter must be >= 1")
        if not self.tol > 0.0:
            raise ConfigurationError("tol must be positive")


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


def _volterra(f: np.ndarray, h: float) -> np.ndarray:
    """V(f) = int_{l1}^{x_k} (x_k - t) f(t) dt, the running integral taken twice."""
    return quadrature.cumulative(quadrature.cumulative(f, h), h)


def _sweep(params: SystemParams, d, h: float, fields: FieldPair, slopes: tuple,
           step: int) -> tuple[FieldPair, list[float]]:
    """Apply u <- slope*d + V(f(u)) to both fields once.

    ``slopes`` holds the left-end slopes of (phi, psi). A slope of None is
    -V(f)(l2)/L, which zeros that field at l2. Returns the new fields and
    the sup norms of the two updates; non-finite values raise
    DivergenceError(step).
    """
    phi, psi = fields.phi, fields.psi
    new = []
    # Overflow in a blowing-up iterate surfaces as DivergenceError below.
    with np.errstate(over="ignore", invalid="ignore"):
        for f, slope in zip((eval_f1, eval_f2), slopes):
            v = _volterra(f(params, phi, psi), h)
            if slope is None:
                slope = -v[-1] / d[-1]
            new.append(np.add(v, slope * d, out=v))
    try:
        swept = FieldPair(*new)  # the one finite check of the sweep
    except ConfigurationError:
        raise DivergenceError(step) from None
    return swept, [float(np.max(np.abs(u - old))) for u, old in zip(new, (phi, psi))]


def initial_state(grid: Grid, consts: MatchingConstants) -> PicardState:
    """Iterate 0: the straight lines beta*(x - l1), gamma*(x - l1)."""
    d = _anchored(grid)
    return PicardState(
        n=0,
        fields=FieldPair(consts.beta * d, consts.gamma * d),
        constants=consts,
    )


def picard_step(params: SystemParams, grid: Grid, state: PicardState) -> PicardState:
    """Advance the Picard recursion by one iterate, with the state's slopes held fixed."""
    c = state.constants
    fields, norms = _sweep(params, _anchored(grid), grid.h, state.fields, (c.beta, c.gamma),
                           state.n + 1)
    return PicardState(
        n=state.n + 1,
        fields=fields,
        constants=c,
        diff_norms=state.diff_norms + (max(norms),),
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
) -> MatchingConstants:
    """Slopes that make the first Picard iterate vanish at the right endpoint.

    gamma = 4! r (1 + L^2/(3! r)) / L^3 and
    beta^2 = 2 (4!)^2 r s (1 + L^2/(3! r)) (1 + alpha L^2/(3! s)) / L^6.
    """
    L = domain.length
    r, s, alpha = params.r, params.s, params.alpha
    first_bracket = 1.0 + L * L / (6.0 * r)
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


def solve_picard(
    params: SystemParams,
    grid: Grid,
    cfg: IterConfig,
    order: int,
    beta_sign: float = 1.0,
) -> PicardState:
    """Run `order` Picard steps with slopes matched at the right endpoint.

    The result is always the order-th iterate. A damped Newton iteration
    with a finite-difference Jacobian drives the endpoint values of the
    order-th iterate to zero, starting from the order-1 closed-form slopes,
    and the iterate of the accepted slopes is returned as computed. A
    Picard solve reads nothing from ``cfg``, whose limits govern only the
    Green iteration. For the iterates of fixed slopes, walk
    `initial_state` -> `picard_step` instead.
    """
    if order < 1:
        raise ConfigurationError("order must be >= 1")

    def endpoint_map(v) -> tuple[PicardState, np.ndarray]:
        """One forward solve: the order-th iterate from slopes v, and its values at l2."""
        st = initial_state(grid, MatchingConstants(v[0], v[1]))
        for _ in range(order):
            st = picard_step(params, grid, st)
        return st, np.array([st.fields.phi[-1], st.fields.psi[-1]])

    guess = match_constants_order1(params, domain=grid.domain, beta_sign=beta_sign)
    v = np.array([guess.beta, guess.gamma])
    state, fv = endpoint_map(v)
    res = float(np.abs(fv).sum())
    for _ in range(NEWTON_MAX_ITER):
        if res <= NEWTON_TOL:
            break
        jac = np.empty((2, 2))
        for j in range(2):
            step = 1e-6 * max(abs(v[j]), 1.0)
            vp = v.copy()
            vp[j] += step
            jac[:, j] = (endpoint_map(vp)[1] - fv) / step
        try:
            delta = np.linalg.solve(jac, -fv)
        except np.linalg.LinAlgError as exc:
            raise MatchingFailureError(res) from exc
        lam = 1.0
        while lam > 1e-8:
            trial = v + lam * delta
            st, ft = endpoint_map(trial)
            rt = float(np.abs(ft).sum())
            if rt < res:
                v, state, fv, res = trial, st, ft, rt
                break
            lam *= 0.5
        else:
            raise MatchingFailureError(res)
    if res > NEWTON_TOL:
        raise MatchingFailureError(res)
    return state


def green_kernel_iterate(
    params: SystemParams, grid: Grid, start: FieldPair, cfg: IterConfig
) -> tuple[FieldPair, list[float]]:
    """Iterate the Green-kernel map u = -int G f(u) from `start`.

    Returns the final pair and the trace of combined successive
    sup-norm differences ||dphi|| + ||dpsi|| (the norm the contraction
    certificate bounds) once the difference drops below cfg.tol. Raises
    NotConvergedError if cfg.max_iter applications do not get there.
    """
    d = _anchored(grid)
    fields = start
    trace: list[float] = []
    for k in range(cfg.max_iter):
        fields, (dphi, dpsi) = _sweep(params, d, grid.h, fields, (None, None), k + 1)
        trace.append(dphi + dpsi)
        if trace[-1] < cfg.tol:
            return fields, trace
    raise NotConvergedError(len(trace), trace[-1])
