"""Fixed-point solvers for the two-wave boundary-value problem.

Both solvers apply one sweep, u <- slope*d + V(f(u)), on the anchored
coordinate d = x - l1, built as linspace(0, L, n) so it depends on the length
L = l2 - l1 alone and a shifted interval gives the same result. V is the
running integral C = `quadrature.cumulative` taken twice; it sees no coordinate:

    V(f)(x) = int_{l1}^{x} (x - t) f(t) dt = int_{l1}^{x} int_{l1}^{t} f = C(C(f)).

One lift, `_lift`, computes slope*d + V(g) for one integrand g, with g and its
output as the only buffers. The sweep lifts f1(u) and f2(u), and the Newton
tangent pass the linearised integrands of `model.eval_df`, each under one
errstate: overflow shows as non-finite values, not warnings. The sweep's two
update norms are the record of an iteration: a non-finite one is divergence,
and a Picard state's order is the number of norms it holds.

Every array a sweep or a lift touches is in even–odd order (`quadrature.split`),
so the running integrals read and write contiguous halves; node n - 1 (l2) sits
at `quadrature.l2_index(n)`. `_endpoint_map` is the one Picard forward solve:
`picard_step`, every Newton trial, tangent pass and Jacobian refresh, and the
Richardson half-grid solve run through it. It starts in halves, or splits the
state `picard_step` is given, sweeps in d, one work array and two field pairs,
allocated once, and merges its last iterate once. Its set-up, `_sweep_buffers`,
is shared with `green_kernel_iterate` and is the one place a start is checked
against the grid. The coarse-phase solves of a sequenced match, on COARSE_N and
(COARSE_N + 1) // 2 nodes, are never returned and keep no record: they give only
their endpoint values and the Jacobian, compute no update norms, merge nothing,
and read divergence once, from non-finite values at l2.

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
from dataclasses import dataclass

import numpy as np

from . import quadrature
from .errors import (
    ConfigurationError,
    DivergenceError,
    MatchingFailureError,
    NoRealSolutionError,
    NotConvergedError,
)
from .model import (Domain, FieldPair, Grid, SystemParams, _require_finite, _sup_norm,
                    eval_df, eval_f1, eval_f2)


# Newton matching succeeds once |phi(l2)| + |psi(l2)| is at most NEWTON_TOL or,
# where that is larger, NEWTON_ROUNDOFF roundoffs of the endpoint terms (`_tolerance`).
NEWTON_MAX_ITER = 50
NEWTON_TOL = 1e-11
NEWTON_ROUNDOFF = 16
# Orders >= 2 on grids of more than 2 * COARSE_N - 1 nodes are matched on
# COARSE_N nodes first, moved by a Richardson estimate from one solve on
# (COARSE_N + 1) // 2 nodes, and finished on the fine grid.
COARSE_N = 2001


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
    """One Picard iterate plus its successive-difference history, one norm per step."""

    fields: FieldPair
    constants: MatchingConstants
    diff_norms: tuple = ()

    @property
    def n(self) -> int:
        """The iterate's order: the number of steps that led to it."""
        return len(self.diff_norms)


def _anchored(grid: Grid) -> np.ndarray:
    """The anchored coordinate d = x - l1, built from 0 so it depends on L only."""
    return np.linspace(0.0, grid.domain.length, grid.n, dtype=grid.dtype)


def _volterra(f: np.ndarray, h: float, c1: np.ndarray, out: np.ndarray) -> np.ndarray:
    """V(f) = int_{l1}^{x_k} (x_k - t) f(t) dt, the running integral taken twice.

    f, the first running integral ``c1`` and V(f) in ``out`` are all in even–odd order.
    """
    first = quadrature.cumulative(f, h, c1, halves=True)
    return quadrature.cumulative(first, h, out, halves=True)


def _sweep_buffers(grid: Grid, start: FieldPair | None):
    """The set-up of every sweep walk on ``grid``: (d, work, pairs), all in even–odd order.

    A ``start`` is checked against the grid here, for every walk. d is the
    anchored coordinate; ``work`` is one array and ``pairs`` two pairs, all
    uninitialised, like ``start`` or else d. Sweep k reads pairs[k % 2] and
    writes the other, never ``start``, whose node-order fields are split into
    pairs[0]. That order, work first and the start in pairs[0], keeps page
    faults down: starting in pairs[1] instead doubled green-sweep's faults
    per call (`mem.minflt`).
    """
    if start is not None:
        grid.check_samples(start.phi)
    d = quadrature.split(_anchored(grid))
    like = d if start is None else start.phi
    work = np.empty_like(like)
    pairs = [[np.empty_like(like), np.empty_like(like)] for _ in range(2)]
    if start is not None:
        for u, half in zip((start.phi, start.psi), pairs[0]):
            quadrature.split(u, out=half)
    return d, work, pairs


def _lift(d, h: float, g, slope, out) -> np.ndarray:
    """slope*d + V(g) into ``out``; a slope of None is the Green slope -V(g)(l2)/L.

    All arrays are in even–odd order. The first running integral goes into
    ``out`` and V(g) back into ``g``, whose integrand the lift overwrites.
    """
    _volterra(g, h, out, g)
    if slope is None:
        end = quadrature.l2_index(d.size)
        slope = -g[end] / d[end]
    return np.add(g, np.multiply(d, slope, out=out), out=out)


def _sweep(params: SystemParams, d, h: float, fields, slopes: tuple, work, out,
           step: int | None) -> list[float] | None:
    """Apply u <- slope*d + V(f(u)) to the pair ``fields`` once: one `_lift` of each f(u).

    ``slopes`` holds the left-end slopes of (phi, psi), None as in `_lift`.
    ``work`` takes the integrand f(u) and then the update differences, and
    the new fields go into the pair ``out``, whose psi first holds eval_f2's
    scratch; all are in even–odd order, like the fields, and share no memory
    with them. Returns the sup norms of the two updates. The old fields are
    finite, so a norm is finite exactly when its new field is, unless the
    update itself overflows: a norm that is not finite raises
    DivergenceError(step). A ``step`` of None computes no norms and returns None.
    """
    phi, psi = fields
    with np.errstate(over="ignore", invalid="ignore"):
        _lift(d, h, eval_f1(params, phi, psi, out=work), slopes[0], out[0])
        _lift(d, h, eval_f2(params, phi, psi, out=work, scratch=out[1]), slopes[1], out[1])
        if step is None:
            return None
        norms = [_sup_norm(np.subtract(u, old, out=work)) for u, old in zip(out, fields)]
    if not all(map(math.isfinite, norms)):
        raise DivergenceError(step)
    return norms


def initial_state(grid: Grid, consts: MatchingConstants) -> PicardState:
    """Iterate 0: the straight lines beta*(x - l1), gamma*(x - l1)."""
    d = _anchored(grid)
    return PicardState(FieldPair(consts.beta * d, consts.gamma * d), consts)


def picard_step(params: SystemParams, grid: Grid, state: PicardState) -> PicardState:
    """Advance the Picard recursion by one iterate, with the state's slopes held fixed."""
    c = state.constants
    return _endpoint_map(params, grid, 1, (c.beta, c.gamma), start=state)[0]


def first_iterate(
    params: SystemParams, domain: Domain, consts: MatchingConstants, x
):
    """The paper's printed closed form of Picard iterate 1, from the straight-line iterate 0.

    phi1 = beta d + (1/r)(beta d^3/3! - beta gamma d^4/4!),
    psi1 = gamma d + (1/s)(alpha gamma d^3/3! - (beta^2/2) d^4/4!),
    with d = x - l1. The iterated integral `picard_step` computes has the
    quartic terms beta gamma d^4/12 and (beta^2/2) d^4/12 instead; see
    `_order1_slopes` for the slopes that zero it.
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
    """Slopes that make the printed first iterate, `first_iterate`, vanish at the right endpoint.

    The paper prints gamma = 4! r (1 + L^2/(3! r)) / L^3 and
    beta^2 = 2 (4!)^2 r s (1 + L^2/(3! r)) (1 + alpha L^2/(3! s)) / L^6.
    Its quartic terms are twice the true ones, so these are exactly twice the
    true order-1 slopes of `_order1_slopes`, and are computed that way; a
    negative radicand raises with the true one. `solve_picard` starts orders
    >= 2 from these slopes.
    """
    true = _order1_slopes(params, domain.length, beta_sign)
    return MatchingConstants(2.0 * true.beta, 2.0 * true.gamma)


def _order1_slopes(params: SystemParams, L: float, beta_sign: float) -> MatchingConstants:
    """Slopes that zero the true first Picard iterate at l2.

    From iterate 0 = (beta d, gamma d), `picard_step` gives exactly
    phi1 = beta d + (beta d^3/6 - beta gamma d^4/12)/r and
    psi1 = gamma d + (alpha gamma d^3/6 - beta^2 d^4/24)/s, since Simpson's
    rule is exact on its integrands. Both vanish at d = L for
    gamma = 12 (r + L^2/6)/L^3 and beta^2 = 24 s gamma (1 + alpha L^2/(6 s))/L^3.
    """
    r, s, alpha = params.r, params.s, params.alpha
    try:
        cube = L**3
    except OverflowError:
        cube = 0.0
    if cube == 0.0:
        # L^3 leaves the double range, by overflow or by underflow to 0. An
        # infinite cube would read gamma = 0 where it is about 2/L, so the
        # slopes are NaN instead, which MatchingConstants rejects.
        cube = math.nan
    gamma = 12.0 * (r + L * L / 6.0) / cube
    radicand = 24.0 * s * gamma * (1.0 + alpha * L * L / (6.0 * s)) / cube
    if radicand < 0.0:
        raise NoRealSolutionError(radicand)
    return MatchingConstants(math.copysign(math.sqrt(radicand), beta_sign), gamma)


def endpoint_residual(state: PicardState) -> float:
    """|phi(l2)| + |psi(l2)| of the current iterate."""
    return _residual((state.fields.phi[-1], state.fields.psi[-1]))


def _residual(fv) -> float:
    """|phi(l2)| + |psi(l2)| from the endpoint values fv = (phi(l2), psi(l2))."""
    return abs(float(fv[0])) + abs(float(fv[1]))


def _endpoint_map(params: SystemParams, grid: Grid, order: int, v, tangent: bool = False,
                  record: bool = True, start: PicardState | None = None):
    """The one Picard forward solve: ``order`` sweeps with slopes v = (beta, gamma).

    The walk starts from ``start``, or from iterate 0, (beta d, gamma d), when
    it is None, and runs in even–odd order from end to end, in the buffers of
    `_sweep_buffers`. Returns (state, fv, jac): the last iterate as a
    `PicardState` in node order, merged once into the pair the last sweep
    read; its values fv at l2; and with ``tangent`` the exact Jacobian of fv
    in (beta, gamma), else None. The tangent pass lifts the two slope
    directions, unit slopes along beta and then gamma, through the linearised
    sweep du <- dslope*d + V(df(u) du), with df(u) du from `model.eval_df`.
    That is two more `_volterra` calls per field: a tangent pass costs three
    forward solves.

    Without ``record`` the sweeps compute no update norms and nothing is
    merged: the state is None, and divergence is read once, from the endpoint
    values. A non-finite value anywhere in an iterate runs through both
    running integrals of every later sweep to node n - 1, so non-finite values
    at l2 raise DivergenceError(order). A recorded solve raises at its first
    non-finite update norm, before it gets there.
    """
    c = MatchingConstants(v[0], v[1])
    d, work, pairs = _sweep_buffers(grid, None if start is None else start.fields)
    if start is None:
        np.multiply(d, c.beta, out=pairs[0][0])
        np.multiply(d, c.gamma, out=pairs[0][1])
    norms = [] if start is None else list(start.diff_norms)
    if tangent:
        units = ((1.0, 0.0), (0.0, 1.0))
        dirs = [(a * d, b * d) for a, b in units]  # iterate 0 of (dphi, dpsi)
    for k in range(order):
        old, new = pairs[k % 2], pairs[(k + 1) % 2]
        if tangent:
            # Each direction forms both integrands in (work, new[1]), new[0] the
            # scratch, before its own arrays take the lifts; the sweep overwrites all three.
            with np.errstate(over="ignore", invalid="ignore"):
                for du, slopes in zip(dirs, units):
                    dg = eval_df(params, *old, *du, (work, new[1]), new[0])
                    for g, slope, u in zip(dg, slopes, du):
                        _lift(d, grid.h, g, slope, u)
        swept = _sweep(params, d, grid.h, old, (c.beta, c.gamma), work, new,
                       len(norms) + 1 if record else None)
        if swept is not None:
            norms.append(max(swept))
    last, spare = pairs[order % 2], pairs[(order + 1) % 2]
    end = quadrature.l2_index(grid.n)
    fv = np.array([last[0][end], last[1][end]])
    if not np.isfinite(fv).all():
        raise DivergenceError(order)
    state = jac = None
    if record:
        fields = FieldPair(*(quadrature.merge(u, out=b) for u, b in zip(last, spare)))
        state = PicardState(fields, c, tuple(norms))
    if tangent:
        jac = np.array([[dirs[0][0][end], dirs[1][0][end]],
                        [dirs[0][1][end], dirs[1][1][end]]])
    return state, fv, jac


def _tolerance(grid: Grid, v) -> float:
    """The matching tolerance at slopes v: NEWTON_TOL or NEWTON_ROUNDOFF eps (|beta| + |gamma|) L.

    The larger one is taken, with eps the machine epsilon of the grid's dtype.
    phi(l2) = beta L + V(f1)(l2) and psi(l2) = gamma L + V(f2)(l2) are
    differences of terms near (|beta| + |gamma|) L. The slopes grow as L^-3,
    so on short intervals their roundoff passes NEWTON_TOL: at the order-1
    slopes of L = 1e-3, eps (|beta| + |gamma|) L is 6.4e-9.
    """
    scale = (abs(float(v[0])) + abs(float(v[1]))) * grid.domain.length
    return max(NEWTON_TOL, NEWTON_ROUNDOFF * float(np.finfo(grid.dtype).eps) * scale)


def _newton_step(jac, fv):
    """The Newton step -jac^-1 fv, or None if jac is singular or the step is not finite.

    The 2x2 system is solved in float64, which `np.linalg` supports for every
    grid dtype; fv and jac stay in the grid's dtype elsewhere.
    """
    try:
        delta = np.linalg.solve(np.asarray(jac, dtype=float), -np.asarray(fv, dtype=float))
    except np.linalg.LinAlgError:
        return None
    return delta if np.isfinite(delta).all() else None


def _line_search(params, grid, order, v, fv, jac, res, exact, record=True):
    """Halve the Newton step from v until the residual falls; None if it never does.

    On an ``exact`` Jacobian the step is halved down to a length of 1e-8. On a
    Broyden Jacobian only the lengths 1, 1/2 and 1/4 are tried: a shorter step
    that lowers the residual a hair teaches the rank-1 update nothing, and a
    failed search refreshes the exact Jacobian instead. A trial whose iterate
    diverges counts as rejected. Returns the accepted slopes, their iterate
    (None without ``record``, see `_endpoint_map`), endpoint values and residual.
    """
    delta = _newton_step(jac, fv)
    if delta is None:
        return None
    lam, shortest = 1.0, 1e-8 if exact else 0.25
    while lam >= shortest:
        trial = v + lam * delta
        try:
            st, ft, _ = _endpoint_map(params, grid, order, trial, record=record)
        except DivergenceError:
            pass
        else:
            rt = _residual(ft)
            if rt < res:
                return trial, st, ft, rt
        lam *= 0.5
    return None


def _newton(params, grid, order, v, jac=None, record=True):
    """Newton-match the slopes from v; returns (v, fv, jac, state) at the accepted slopes.

    They are the slopes, their endpoint values, the last Jacobian and the
    order-th iterate, which is None without ``record`` (see `_endpoint_map`).
    Without ``jac`` the first forward solve of orders >= 2 is a tangent pass,
    which also gives the exact Jacobian; a given ``jac`` is used as is, with
    one plain forward solve, and is not taken as exact. A refreshed
    Jacobian's pass never records: its iterate is one already computed.
    """
    exact = jac is None and order > 1
    state, fv, tangent_jac = _endpoint_map(params, grid, order, v, tangent=exact, record=record)
    jac = tangent_jac if exact else jac
    res = _residual(fv)
    for _ in range(NEWTON_MAX_ITER):
        if res <= _tolerance(grid, v):
            break
        if jac is None:
            jac = _endpoint_map(params, grid, order, v, tangent=True, record=False)[2]
            exact = True
        found = _line_search(params, grid, order, v, fv, jac, res, exact, record)
        if found is None:
            if exact:
                raise MatchingFailureError(res)
            jac = None
            continue
        trial, state, ft, res = found
        step = trial - v
        jac = jac + np.outer(ft - fv - jac @ step, step) / (step @ step)
        exact = False
        v, fv = trial, ft
    if res > _tolerance(grid, v):
        raise MatchingFailureError(res)
    return v, fv, jac, state


def solve_picard(
    params: SystemParams,
    grid: Grid,
    cfg: IterConfig,
    order: int,
    beta_sign: float = 1.0,
) -> PicardState:
    """Run `order` Picard steps with slopes matched at the right endpoint.

    The result is always the order-th iterate of ``grid``. A damped
    quasi-Newton iteration drives the endpoint values of the order-th iterate
    to zero, and the iterate of the accepted slopes is returned as computed.

    * Order 1 starts from the true closed-form root `_order1_slopes`, where
      the residual is already within the tolerance: one forward solve.
    * Orders >= 2 start from `match_constants_order1`, and their first
      forward solve is a tangent pass, which also gives the exact Jacobian
      of the endpoint map (`_endpoint_map`).
    * Each accepted line-search trial updates the Jacobian by Broyden's
      rank-1 formula, with no further solves. A trial whose iterate diverges
      counts as rejected.
    * The line search halves the step down to 1e-8 on an exact Jacobian,
      and tries only 1, 1/2 and 1/4 on a Broyden one. If it fails on a
      Broyden Jacobian, the exact Jacobian is recomputed once at the current
      slopes and the search retried; it fails with MatchingFailureError
      only on an exact Jacobian.
    * Orders >= 2 on a grid of more than 2 * COARSE_N - 1 nodes are matched
      first on COARSE_N nodes of the same domain, where the root differs
      from the fine one only at Simpson's O(h^4) level. One plain forward
      solve at the coarse root on (COARSE_N + 1) // 2 nodes estimates that
      difference by Richardson extrapolation, and one step with the coarse
      Jacobian cancels it (`_richardson_start`); if that solve diverges or
      the step cannot be taken, the coarse slopes are kept. The same
      iteration then finishes on ``grid`` from there, with one plain forward
      solve, most often the only one, and the coarse Jacobian taken as not
      exact: if its line search fails, one exact fine-grid tangent pass
      replaces it.
    * The coarse and half-grid solves return only their endpoint values and
      the Jacobian, never an iterate: they compute no update norms and
      merge nothing. Divergence there is a non-finite endpoint value, raised
      as DivergenceError with the order as its step; a coarse trial whose
      iterates stay finite while an update overflows is rejected by its
      residual.

    A Picard solve reads nothing from ``cfg``, whose limits govern only the
    Green iteration. For the iterates of fixed slopes, walk
    `initial_state` -> `picard_step` instead.
    """
    if order < 1:
        raise ConfigurationError("order must be >= 1")
    if order == 1:
        start = _order1_slopes(params, grid.domain.length, beta_sign)
    else:
        start = match_constants_order1(params, domain=grid.domain, beta_sign=beta_sign)
    v, jac = np.array([start.beta, start.gamma]), None
    if order > 1 and grid.n > 2 * COARSE_N - 1:
        coarse = Grid.uniform(grid.domain, COARSE_N, dtype=grid.dtype)
        v_c, f_c, jac, _ = _newton(params, coarse, order, v, record=False)
        v = _richardson_start(params, grid, order, v_c, f_c, jac)
    return _newton(params, grid, order, v, jac)[3]


def _richardson_start(params, grid, order, v_c, f_c, jac) -> np.ndarray:
    """The fine Newton's start: the coarse root plus a step cancelling its estimated fine values.

    Simpson's error in the endpoint values is C h^4. The coarse root v_c's
    values f_c, which are within the tolerance, and those of one plain forward
    solve at the same slopes on (COARSE_N + 1) // 2 nodes, f_H, give
    C h_c^4 = (f_H - f_c)/15, so the fine grid's values there are about
    f_c + (f_c - f_H)/15 (1 - (h/h_c)^4). The half-grid solve keeps no
    iterate (`_endpoint_map` without its record). The coarse slopes are
    returned unchanged if that solve diverges, or if ``jac`` is singular or
    gives a step that is not finite.
    """
    half = Grid.uniform(grid.domain, (COARSE_N + 1) // 2, dtype=grid.dtype)
    try:
        f_half = _endpoint_map(params, half, order, v_c, record=False)[1]
    except DivergenceError:
        return v_c
    ratio = (COARSE_N - 1) / (grid.n - 1)
    delta = _newton_step(jac, f_c + (f_c - f_half) / 15.0 * (1.0 - ratio**4))
    return v_c if delta is None else v_c + delta


def green_kernel_iterate(
    params: SystemParams, grid: Grid, start: FieldPair, cfg: IterConfig
) -> tuple[FieldPair, list[float]]:
    """Iterate the Green-kernel map u = -int G f(u) from `start`.

    Returns the final pair and the trace of combined successive
    sup-norm differences ||dphi|| + ||dpsi|| (the norm the contraction
    certificate bounds) once the difference drops below cfg.tol. Raises
    NotConvergedError if cfg.max_iter applications do not get there.
    """
    d, work, pairs = _sweep_buffers(grid, start)
    trace: list[float] = []
    for k in range(cfg.max_iter):
        old, new = pairs[k % 2], pairs[(k + 1) % 2]
        dphi, dpsi = _sweep(params, d, grid.h, old, (None, None), work, new, k + 1)
        trace.append(dphi + dpsi)
        if trace[-1] < cfg.tol:
            # merged once, into the pair this sweep read
            return FieldPair(*(quadrature.merge(u, out=b) for u, b in zip(new, old))), trace
    raise NotConvergedError(len(trace), trace[-1])
