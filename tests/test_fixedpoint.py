import inspect
import math
import tracemalloc
import warnings
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from twowave import fixedpoint, quadrature
from twowave import (
    ConvergenceBound,
    Domain,
    ExactSolutionParams,
    FieldPair,
    Grid,
    IterConfig,
    MatchingConstants,
    PicardState,
    SystemParams,
    convergence_bound,
    endpoint_residual,
    exact_alpha1_derivatives,
    first_iterate,
    green_kernel_iterate,
    initial_state,
    match_constants_order1,
    picard_step,
    sample_closed_form,
    solve_picard,
)
from twowave.errors import (
    ConfigurationError,
    DivergenceError,
    MatchingFailureError,
    NoRealSolutionError,
    NotConvergedError,
)

P1 = SystemParams(1.0, 1.0, 1.0)
UNIT = Domain(0.0, 1.0)


def unit_grid(n=2001):
    return Grid.uniform(UNIT, n)


CFG = IterConfig(max_iter=100, tol=1e-300)


def spy_endpoint_map(monkeypatch, spy):
    """Patch `fixedpoint._endpoint_map` with ``spy(a, solve)``: ``a`` holds the
    call's arguments by name, defaults applied, and solve() runs the real map."""
    endpoint_map = fixedpoint._endpoint_map
    signature = inspect.signature(endpoint_map)

    def patched(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        return spy(SimpleNamespace(**bound.arguments), lambda: endpoint_map(*args, **kwargs))

    monkeypatch.setattr(fixedpoint, "_endpoint_map", patched)


class TestConfigTypes:
    def test_iter_config_validation(self):
        with pytest.raises(ConfigurationError):
            IterConfig(max_iter=0)
        with pytest.raises(ConfigurationError):
            IterConfig(tol=0.0)

    def test_state_order_is_its_norm_count(self):
        state = PicardState(FieldPair.zeros(5), MatchingConstants(0.0, 0.0), (0.1, 0.2))
        assert state.n == 2

    def test_constants_must_be_finite(self):
        with pytest.raises(ConfigurationError):
            MatchingConstants(math.nan, 0.0)


class TestFirstIterate:
    def test_vanishes_at_left_endpoint(self):
        phi, psi = first_iterate(P1, UNIT, MatchingConstants(2.0, -1.0), 0.0)
        assert phi == 0.0 and psi == 0.0

    def test_unit_slope_values_at_one(self):
        phi, psi = first_iterate(P1, UNIT, MatchingConstants(1.0, 1.0), 1.0)
        assert phi == pytest.approx(1.0 + 1.0 / 6.0 - 1.0 / 24.0, abs=1e-15)   # 1.125
        assert psi == pytest.approx(1.0 + 1.0 / 6.0 - 1.0 / 48.0, abs=1e-15)   # 55/48

    @given(gamma=st.floats(min_value=-10, max_value=10, allow_nan=False),
           x=st.floats(min_value=0, max_value=1, allow_nan=False))
    def test_zero_beta_kills_phi(self, gamma, x):
        phi, _ = first_iterate(P1, UNIT, MatchingConstants(0.0, gamma), x)
        assert phi == 0.0

    def test_array_input_gives_arrays_of_the_pointwise_values(self):
        x = np.linspace(0.0, 1.0, 7)
        consts = MatchingConstants(1.5, -0.5)
        phi, psi = first_iterate(SystemParams(2.0, 0.5, 3.0), UNIT, consts, x)
        assert isinstance(phi, np.ndarray) and phi.shape == psi.shape == x.shape
        for k, t in enumerate(x):
            want = first_iterate(SystemParams(2.0, 0.5, 3.0), UNIT, consts, float(t))
            assert (phi[k], psi[k]) == pytest.approx(want, rel=1e-15, abs=1e-300)


class TestMatchingConstantsOrder1:
    def test_unit_case_closed_form(self):
        mc = match_constants_order1(P1, UNIT)
        assert mc.gamma == pytest.approx(28.0, abs=1e-12)
        assert mc.beta == pytest.approx(math.sqrt(1568.0), abs=1e-10)

    def test_endpoint_annihilation(self):
        mc = match_constants_order1(P1, UNIT)
        phi, psi = first_iterate(P1, UNIT, mc, UNIT.l2)
        assert abs(phi) < 1e-12 and abs(psi) < 1e-12

    def test_endpoint_annihilation_r_neq_s(self):
        p = SystemParams(r=2.0, s=3.0, alpha=1.5)
        mc = match_constants_order1(p, UNIT)
        phi, psi = first_iterate(p, UNIT, mc, UNIT.l2)
        assert abs(phi) < 1e-12 and abs(psi) < 1e-12

    def test_negative_radicand_rejected(self):
        with pytest.raises(NoRealSolutionError) as err:
            match_constants_order1(SystemParams(1.0, -1.0, 1.0), UNIT)
        assert err.value.radicand < 0.0

    def test_negative_branch(self):
        mc = match_constants_order1(P1, UNIT, beta_sign=-1.0)
        assert mc.beta == pytest.approx(-math.sqrt(1568.0), abs=1e-10)

    @staticmethod
    def printed(p, L, sign):
        # the paper's printed radicand: gamma = 4! r (1 + L^2/(3! r)) / L^3,
        # beta^2 = 2 (4!)^2 r s (1 + L^2/(3! r)) (1 + alpha L^2/(3! s)) / L^6
        first_bracket = 1.0 + L * L / (6.0 * p.r)
        second_bracket = 1.0 + p.alpha * L * L / (6.0 * p.s)
        radicand = 2.0 * 576.0 * p.r * p.s * first_bracket * second_bracket / L**6
        return math.copysign(math.sqrt(radicand), sign), 24.0 * p.r * first_bracket / L**3

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("L", [0.5, 1.0, 3.0])
    @pytest.mark.parametrize("rsa", [(1.0, 1.0, 1.0), (2.0, 3.0, 1.5), (1.0, 1.0, 4.0)])
    def test_twice_the_true_slopes_is_the_printed_formula(self, rsa, L, sign):
        p = SystemParams(*rsa)
        mc = match_constants_order1(p, Domain(0.3, 0.3 + L), beta_sign=sign)
        beta, gamma = self.printed(p, L, sign)
        assert mc.beta == pytest.approx(beta, rel=1e-15, abs=0.0)
        assert mc.gamma == pytest.approx(gamma, rel=1e-15, abs=0.0)

    def test_negative_radicand_is_the_true_one(self):
        # computed as twice the true slopes, the error carries the true
        # order-1 radicand 24 s gamma (1 + alpha/(6 s)) = -280, not the printed -1120
        with pytest.raises(NoRealSolutionError) as err:
            match_constants_order1(SystemParams(1.0, -1.0, 1.0), UNIT)
        assert err.value.radicand == pytest.approx(-280.0, rel=1e-15)


class TestPicardStep:
    def test_trivial_fixed_point(self):
        st0 = initial_state(unit_grid(101), MatchingConstants(0.0, 0.0))
        st1 = picard_step(P1, unit_grid(101), st0)
        assert np.all(st1.fields.phi == 0.0) and np.all(st1.fields.psi == 0.0)
        assert st1.diff_norms == (0.0,)

    def test_initial_state_shape(self):
        g = unit_grid(11)
        st0 = initial_state(g, MatchingConstants(2.0, 3.0))
        assert st0.n == 0 and st0.diff_norms == ()
        assert st0.fields.phi[0] == 0.0 and st0.fields.psi[0] == 0.0
        assert st0.fields.phi[-1] == pytest.approx(2.0)

    def test_first_iterate_exact_volterra_reduction(self):
        # from linear start the integrand is quadratic, so simpson is exact:
        # phi1 = x + x^3/6 - x^4/12, psi1 = x + x^3/6 - x^4/24
        g = unit_grid(2001)
        st1 = picard_step(P1, g, initial_state(g, MatchingConstants(1.0, 1.0)))
        x = g.nodes
        assert np.max(np.abs(st1.fields.phi - (x + x**3 / 6 - x**4 / 12))) < 1e-12
        assert np.max(np.abs(st1.fields.psi - (x + x**3 / 6 - x**4 / 24))) < 1e-12

    def test_near_fixed_point_on_exact_solution(self):
        # feed the exact profile with its true left slopes; one sweep should
        # reproduce it up to the boundary-tail truncation
        dom = Domain(-10.0, 10.0)
        g = Grid.uniform(dom, 4001)
        f = sample_closed_form("exact", g, ExactSolutionParams(0.0))
        _, dphi, _, _, dpsi, _ = exact_alpha1_derivatives(dom.l1, ExactSolutionParams(0.0))
        state = PicardState(f, MatchingConstants(float(dphi), float(dpsi)))
        nxt = picard_step(P1, g, state)
        # the sweep reproduces phi(x) - phi(l1) exactly, so the difference
        # is the boundary tail |phi(l1)| = sqrt(2)*1.5*sech^2(5) ~ 3.9e-4
        assert nxt.diff_norms[-1] < 5e-4

    def test_volterra_is_fourth_order(self):
        # V(f)(x) = int_0^x (x - t) f(t) dt for f = e^t sin 3t on [0, 3] is
        # e^x (-8 sin 3x - 6 cos 3x)/100 + 0.06 + 0.3 x; halving h cuts the
        # error of the twice-applied cumulative Simpson rule about 16 times;
        # _volterra works in even-odd order, so f is split and V(f) merged
        errs = []
        for n in (1001, 2001):
            x = np.linspace(0.0, 3.0, n)
            exact = np.exp(x) * (-8.0 * np.sin(3 * x) - 6.0 * np.cos(3 * x)) / 100 + 0.06 + 0.3 * x
            f = quadrature.split(np.exp(x) * np.sin(3 * x))
            v = quadrature.merge(fixedpoint._volterra(f, x[1] - x[0], np.empty(n), np.empty(n)))
            errs.append(np.max(np.abs(v - exact)))
        assert errs[0] / errs[1] == pytest.approx(16.0, rel=0.1)

    @pytest.mark.parametrize("n", [2001, 2000])
    def test_matches_a_plain_allocating_loop(self, n):
        # three steps of u <- slope*d + V(f(u)), with V = C(C(.)), in node order
        # and fresh arrays every step; the sweep runs in even-odd order, where
        # node n - 1 ends the array at even n and the even half at odd n
        p, L, c = SystemParams(2.0, 0.5, 0.5), 1.5, MatchingConstants(1.3, -0.7)
        g = Grid.uniform(Domain(0.0, L), n)
        d = np.linspace(0.0, L, n)
        phi, psi, want = c.beta * d, c.gamma * d, []
        state = initial_state(g, c)
        for _ in range(3):
            new = []
            for f, slope in (((phi - phi * psi) / p.r, c.beta),
                             ((p.alpha * psi - 0.5 * phi * phi) / p.s, c.gamma)):
                new.append(slope * d + quadrature.cumulative(quadrature.cumulative(f, g.h), g.h))
            want.append(max(float(np.max(np.abs(new[0] - phi))),
                            float(np.max(np.abs(new[1] - psi)))))
            phi, psi = new
            state = picard_step(p, g, state)
        assert state.diff_norms == tuple(want)
        assert np.array_equal(state.fields.phi, phi) and np.array_equal(state.fields.psi, psi)

    @pytest.mark.filterwarnings("error")
    def test_divergence_detection(self):
        # overflow must surface only as DivergenceError, never as a warning
        g = unit_grid(101)
        huge = FieldPair(np.full(101, 1e200), np.full(101, 1e200))
        state = PicardState(huge, MatchingConstants(0.0, 0.0))
        with pytest.raises(DivergenceError):
            picard_step(P1, g, state)

    @pytest.mark.filterwarnings("error")
    def test_divergence_after_a_finite_step(self):
        # step 1 maps 1e150 to about 5e299, whose square overflows in step 2
        g = unit_grid(101)
        big = FieldPair(np.full(101, 1e150), np.full(101, -1e150))
        st1 = picard_step(P1, g, PicardState(big, MatchingConstants(0.0, 0.0)))
        assert st1.n == 1 and np.isfinite(st1.diff_norms[0])
        with pytest.raises(DivergenceError) as err:
            picard_step(P1, g, st1)
        assert err.value.iteration == 2

    def test_picard_step_is_one_forward_solve(self, monkeypatch):
        # one order-1 `_endpoint_map` call from the given state, returned as is
        g = unit_grid(101)
        state = initial_state(g, MatchingConstants(1.3, -0.7))
        calls = []
        spy_endpoint_map(monkeypatch, lambda a, solve: calls.append((a, solve())) or calls[-1][1])
        nxt = picard_step(P1, g, state)
        assert [(a.order, a.start is state) for a, _ in calls] == [(1, True)]
        assert nxt is calls[0][1][0]

    @given(arrays(np.float64, st.integers(1, 50),
                  elements=st.floats(allow_nan=False, width=64)))
    @example(np.array([-0.0, -0.0]))
    @example(np.array([-0.0, 0.0]))
    @example(np.array([-np.inf, 1.0]))
    def test_sup_norm_is_the_largest_magnitude(self, x):
        # read from the extremes, without writing |x|: the same float,
        # +0.0 on an all-zero x whatever the signs of its zeros, inf on an inf
        norm = fixedpoint._sup_norm(x)
        assert norm == float(np.max(np.abs(x)))
        assert math.copysign(1.0, norm) == 1.0

    @given(arrays(np.float64, st.integers(1, 50)), st.data())
    def test_sup_norm_of_a_nan_is_not_finite(self, x, data):
        x[data.draw(st.integers(0, x.size - 1))] = np.nan
        assert not math.isfinite(fixedpoint._sup_norm(x))


class TestConvergenceBound:
    def test_formula_values(self):
        cb = ConvergenceBound(1.0, 1.0)
        assert convergence_bound(cb, 1.0, 0) == pytest.approx((0.5, 0.5))
        b10 = convergence_bound(cb, 1.0, 10)
        assert b10[0] == pytest.approx(1.0 / math.factorial(12), rel=1e-12)

    @pytest.mark.parametrize("L", [0.0, -1.0, math.nan])
    def test_nonpositive_length_rejected(self, L):
        with pytest.raises(ConfigurationError, match="L must be positive"):
            convergence_bound(ConvergenceBound(1.0, 1.0), L, 3)

    def test_from_bounds(self):
        cb = ConvergenceBound.from_bounds(SystemParams(2.0, -4.0, 3.0), 2.0, 1.0)
        assert cb.K1 == pytest.approx((2.0 + 2.0) / 2.0)
        assert cb.K2 == pytest.approx((3.0 + 2.0) / 4.0)

    @given(K=st.floats(min_value=0.01, max_value=10.0),
           L=st.floats(min_value=0.01, max_value=5.0),
           n=st.integers(min_value=0, max_value=20))
    def test_successive_ratio(self, K, L, n):
        cb = ConvergenceBound(K, K)
        b_n = convergence_bound(cb, L, n)[0]
        b_n1 = convergence_bound(cb, L, n + 1)[0]
        assert b_n1 / b_n == pytest.approx(K * L / (n + 3), rel=1e-9)


class TestSolvePicard:
    def test_order_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            solve_picard(P1, unit_grid(101), CFG, 0)

    def test_fixed_zero_constants_trivial(self):
        g = unit_grid(101)
        st5 = initial_state(g, MatchingConstants(0.0, 0.0))
        for _ in range(5):
            st5 = picard_step(P1, g, st5)
        assert np.all(st5.fields.phi == 0.0)
        assert endpoint_residual(st5) == 0.0

    def test_order1_matched_constants(self):
        # order-1 matching on the true Volterra iterate; independently the
        # endpoint equations 1 + L^2/(6r) = gamma L^3/(12 r) and
        # gamma (1 + alpha L^2/(6 s)) = beta^2 L^3/(24 s) give (sqrt(392), 14)
        st1 = solve_picard(P1, unit_grid(2001), CFG, 1)
        assert st1.constants.gamma == pytest.approx(14.0, rel=1e-9)
        assert st1.constants.beta == pytest.approx(math.sqrt(392.0), rel=1e-9)
        assert endpoint_residual(st1) < 1e-10

    def test_order1_matches_scipy_root(self):
        from scipy.optimize import root

        g = unit_grid(1001)

        def equations(v):
            b, gmm = v
            # analytic first iterate of the recursion, quartic terms /12, /24
            phi = b * (1 + 1 / 6.0) - b * gmm / 12.0
            psi = gmm * (1 + 1 / 6.0) - 0.5 * b * b / 12.0
            return [phi, psi]

        sol = root(equations, [20.0, 15.0], tol=1e-13)
        assert sol.success
        st1 = solve_picard(P1, g, CFG, 1)
        assert st1.constants.beta == pytest.approx(sol.x[0], rel=1e-9)
        assert st1.constants.gamma == pytest.approx(sol.x[1], rel=1e-9)

    def test_higher_orders_converge_toward_each_other(self):
        g = unit_grid(801)
        sols = [solve_picard(P1, g, CFG, order) for order in (1, 2, 3)]
        for s in sols:
            assert endpoint_residual(s) < 1e-10
            assert s.fields.phi[0] == 0.0 and s.fields.psi[0] == 0.0
        gap12 = np.max(np.abs(sols[1].fields.phi - sols[0].fields.phi))
        gap23 = np.max(np.abs(sols[2].fields.phi - sols[1].fields.phi))
        assert gap23 < gap12

    def test_match_returns_the_accepted_iterate(self, monkeypatch):
        # 6 order-3 forward solves (the tangent pass, then five line-search
        # trials): the accepted trial's iterate is the last one computed and
        # is returned as is, not solved once more
        solves = []

        def counted(a, solve):
            solves.append((a.grid.n, a.order, a.tangent, solve()))
            return solves[-1][3]

        spy_endpoint_map(monkeypatch, counted)
        st = solve_picard(P1, unit_grid(2001), CFG, 3)
        assert [s[:3] for s in solves] == [(2001, 3, True)] + [(2001, 3, False)] * 5
        assert st is solves[-1][3][0]

    @given(log_length=st.floats(min_value=-4.0, max_value=1.0))
    @example(log_length=-4.0)
    @example(log_length=-3.0)
    @example(log_length=1.0)
    def test_order1_matches_at_its_root_on_any_length(self, log_length):
        # L from 1e-4 to 10: the closed-form root is accepted as it stands,
        # since the tolerance grows with the roundoff of the endpoint terms
        # (which passes 1e-11 from about L = 1e-2 down)
        L = 10.0**log_length
        g = Grid.uniform(Domain(0.0, L), 201)
        root = fixedpoint._order1_slopes(P1, L, 1.0)
        state = solve_picard(P1, g, CFG, 1)
        assert state.constants == root
        assert endpoint_residual(state) <= fixedpoint._tolerance(g, (root.beta, root.gamma))

    def test_order1_takes_one_forward_solve(self, monkeypatch):
        # the true closed-form start is the order-1 root, exact under Simpson
        volterra = []
        vol = fixedpoint._volterra
        monkeypatch.setattr(fixedpoint, "_volterra", lambda *a: volterra.append(1) or vol(*a))
        st = solve_picard(P1, unit_grid(2001), CFG, 1)
        assert len(volterra) == 2  # one field each: one forward solve, no tangent pass
        assert st.constants.gamma == pytest.approx(14.0, rel=1e-12)
        assert st.constants.beta == pytest.approx(math.sqrt(392.0), rel=1e-12)

    @pytest.mark.parametrize("order", [1, 3])
    def test_negative_radicand_rejected(self, order):
        with pytest.raises(NoRealSolutionError):
            solve_picard(SystemParams(1.0, -1.0, 1.0), unit_grid(101), CFG, order)

    @pytest.mark.parametrize("order", [1, 3])
    def test_unreachable_tolerance_raises_matching_failure(self, monkeypatch, order):
        # the matched residual is 3.6e-15 here, so a zero tolerance, with no
        # roundoff floor, exhausts the line search on an exact Jacobian
        monkeypatch.setattr(fixedpoint, "NEWTON_TOL", 0.0)
        monkeypatch.setattr(fixedpoint, "NEWTON_ROUNDOFF", 0)
        with pytest.raises(MatchingFailureError) as info:
            solve_picard(P1, unit_grid(201), CFG, order)
        assert 0.0 < info.value.residual < 1e-12

    @pytest.mark.parametrize("bad", [0.0, np.nan], ids=["singular", "nan"])
    def test_unusable_exact_jacobian_raises_matching_failure(self, monkeypatch, bad):
        # a singular Jacobian fails its solve, a NaN one gives a non-finite
        # Newton step: either way the line search gives up on an exact
        # Jacobian at the start's residual
        def bad_tangent(a, solve):
            st, fv, jac = solve()
            return st, fv, None if jac is None else np.full((2, 2), bad)

        spy_endpoint_map(monkeypatch, bad_tangent)
        with pytest.raises(MatchingFailureError) as info:
            solve_picard(P1, unit_grid(201), CFG, 3)
        assert info.value.residual > fixedpoint.NEWTON_TOL

    def test_newton_out_of_iterations_raises_matching_failure(self, monkeypatch):
        # one accepted line-search step does not reach the tolerance
        monkeypatch.setattr(fixedpoint, "NEWTON_MAX_ITER", 1)
        with pytest.raises(MatchingFailureError) as info:
            solve_picard(P1, unit_grid(201), CFG, 3)
        assert info.value.residual > fixedpoint.NEWTON_TOL

    def test_tangent_pass_is_pinned(self, monkeypatch):
        # order 3 on [0, 1]: three forward steps and two lifted directions,
        # 6 _volterra calls per step; the Jacobian is the one the hand-written
        # linearised sweep gave, bit for bit
        volterra = []
        vol = fixedpoint._volterra
        monkeypatch.setattr(fixedpoint, "_volterra", lambda *a: volterra.append(1) or vol(*a))
        mc = match_constants_order1(P1, UNIT)
        st, _, jac = fixedpoint._endpoint_map(P1, unit_grid(2001), 3,
                                              np.array([mc.beta, mc.gamma]), tangent=True)
        assert len(volterra) == 18 and st.n == 3
        assert jac.tolist() == [[0.890840532138012, -1.8823591001885718],
                                [-1.8823591001885709, 2.2218694165095596]]

    @staticmethod
    def forward_solve_peaks(tangent):
        # tracemalloc peaks of one forward solve at n = 20001, in arrays, at orders 1, 3 and 12
        g = unit_grid(20001)
        mc = match_constants_order1(P1, UNIT)
        v, peaks = np.array([mc.beta, mc.gamma]), []
        for order in (1, 3, 12):
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                fixedpoint._endpoint_map(P1, g, order, v, tangent=tangent)
                peaks.append((tracemalloc.get_traced_memory()[1] - base) / g.nodes.nbytes)
            finally:
                tracemalloc.stop()
        return peaks

    def test_forward_solve_allocates_once_not_per_step(self):
        # d, the sweep's one work array and two field pairs written in turn,
        # all allocated once per solve: 6 arrays at every order
        peaks = self.forward_solve_peaks(tangent=False)
        assert max(peaks) - min(peaks) <= 0.05
        assert max(peaks) < 6 + 0.25

    def test_tangent_pass_allocates_per_step_not_per_order(self):
        # the plain solve's 6 arrays and two direction pairs, all allocated
        # once per pass; the directions' integrands borrow the work array and
        # the pair the sweep is about to write: 10 arrays at every order
        peaks = self.forward_solve_peaks(tangent=True)
        assert max(peaks) - min(peaks) <= 0.05
        assert max(peaks) < 10 + 0.25

    @pytest.mark.parametrize("n, dtype", [(2000, np.float64), (2001, np.float64),
                                          (2001, np.longdouble)])
    @pytest.mark.parametrize("tangent", [False, True], ids=["plain", "tangent"])
    def test_forward_solve_is_the_picard_step_walk(self, n, dtype, tangent):
        # the forward solve runs in halves from end to end; the public walk
        # splits and merges on every step: the same bits either way
        p, c = SystemParams(2.0, 0.5, 0.5), MatchingConstants(1.3, -0.7)
        g = Grid.uniform(Domain(0.0, 1.5), n, dtype=dtype)
        st, fv, jac = fixedpoint._endpoint_map(p, g, 4, np.array([c.beta, c.gamma]), tangent)
        walk = initial_state(g, c)
        for _ in range(4):
            walk = picard_step(p, g, walk)
        assert st.fields.phi.dtype == walk.fields.phi.dtype == dtype
        assert np.array_equal(st.fields.phi, walk.fields.phi)
        assert np.array_equal(st.fields.psi, walk.fields.psi)
        assert st.diff_norms == walk.diff_norms and st.n == 4
        assert fv.tolist() == [walk.fields.phi[-1], walk.fields.psi[-1]]
        assert (jac is not None) == tangent

    @pytest.mark.parametrize("order", [1, 3, 6])
    def test_tangent_jacobian_matches_central_differences(self, order):
        g = unit_grid(2001)
        mc = match_constants_order1(P1, UNIT)
        v = np.array([mc.beta, mc.gamma])
        _, _, jac = fixedpoint._endpoint_map(P1, g, order, v, tangent=True)
        fd = np.empty((2, 2))
        for j in range(2):
            e = np.zeros(2)
            e[j] = 1e-5 * abs(v[j])
            fd[:, j] = (fixedpoint._endpoint_map(P1, g, order, v + e)[1]
                        - fixedpoint._endpoint_map(P1, g, order, v - e)[1]) / (2.0 * e[j])
        assert np.max(np.abs(jac - fd)) <= 1e-6 * np.max(np.abs(fd))

    # (beta, gamma) of the beta > 0 branch of (r, s, alpha) = (1, 1, 4) on
    # [0.3, 3.3] at n = 2001, as the finite-difference Newton matcher found
    # them; the beta < 0 branch is its mirror image (-beta, gamma).
    HARD = {4: (4.860379805941168, 1.928009507217809),
            5: (4.824539897542441, 1.8687151062831828),
            7: (4.520109680235135, 1.6923782934294218),
            8: (4.534151130904845, 1.6983971649549414)}

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("order", sorted(HARD))
    def test_hard_cases_keep_their_slopes(self, order, sign):
        g = Grid.uniform(Domain(0.3, 3.3), 2001)
        st = solve_picard(SystemParams(1.0, 1.0, 4.0), g, CFG, order, beta_sign=sign)
        beta, gamma = self.HARD[order]
        assert st.constants.beta == pytest.approx(sign * beta, rel=1e-8)
        assert st.constants.gamma == pytest.approx(gamma, rel=1e-8)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_hard_case_order9_matches(self, sign):
        # the finite-difference matcher diverged here; the root is nontrivial
        # and continues the orders 7 and 8 above, closer to 8 than 8 is to 7
        g = Grid.uniform(Domain(0.3, 3.3), 2001)
        st = solve_picard(SystemParams(1.0, 1.0, 4.0), g, CFG, 9, beta_sign=sign)
        assert endpoint_residual(st) <= fixedpoint.NEWTON_TOL
        b7, b8 = self.HARD[7][0], self.HARD[8][0]
        assert math.copysign(1.0, st.constants.beta) == sign
        assert abs(abs(st.constants.beta) - b8) < abs(b8 - b7)

    @staticmethod
    def solves_on(monkeypatch, n, fail_half=False):
        """Spy on `_endpoint_map`: the list of ``tangent`` flags of its n-node
        calls, and with ``fail_half`` the half-grid solve raises DivergenceError."""
        fine = []

        def spy(a, solve):
            if fail_half and a.grid.n == (fixedpoint.COARSE_N + 1) // 2:
                raise DivergenceError(1)
            if a.grid.n == n:
                fine.append(a.tangent)
            return solve()

        spy_endpoint_map(monkeypatch, spy)
        return fine

    def test_hard_case_order4_cost_is_pinned(self, monkeypatch):
        # a Broyden line search stops at a quarter step and refreshes the
        # exact Jacobian rather than accept a long run of tiny steps, which
        # teach the rank-1 update nothing: at most 22 solve-equivalents, a
        # tangent pass counting as 3 (halving to 1e-8 took 100 here)
        g = Grid.uniform(Domain(0.3, 3.3), 2001)
        solves = self.solves_on(monkeypatch, g.n)
        st = solve_picard(SystemParams(1.0, 1.0, 4.0), g, CFG, 4)
        assert sum(3 if tangent else 1 for tangent in solves) <= 22
        assert st.constants.beta == pytest.approx(self.HARD[4][0], rel=1e-8)

    @pytest.mark.parametrize("exact, trials", [(False, 3), (True, 27)],
                             ids=["broyden", "exact"])
    def test_line_search_lengths(self, monkeypatch, exact, trials):
        # an uphill step fails at every length: 1, 1/2 and 1/4 on a Broyden
        # Jacobian, down to 2^-26 > 1e-8 on an exact one
        g = unit_grid(201)
        mc = match_constants_order1(P1, UNIT)
        v = np.array([mc.beta, mc.gamma])
        st, fv, jac = fixedpoint._endpoint_map(P1, g, 3, v, tangent=True)
        solves = self.solves_on(monkeypatch, g.n)
        found = fixedpoint._line_search(P1, g, 3, v, fv, -jac, endpoint_residual(st), exact)
        assert found is None and solves == [False] * trials

    @pytest.mark.parametrize("order", [3, 6])
    @pytest.mark.parametrize("params, domain", [(P1, UNIT),
                                                (SystemParams(1.0, 1.0, 4.0), Domain(0.3, 3.3))],
                             ids=["unit", "hard"])
    def test_sequenced_match_is_the_direct_fine_match(self, params, domain, order):
        # the coarse root differs from the fine one at Simpson's O(h^4) level
        # only, so finishing on the fine grid lands on the root that a match
        # run wholly on the fine grid, from the same start, finds
        g = Grid.uniform(domain, 20001)
        mc = match_constants_order1(params, domain)
        direct = fixedpoint._newton(params, g, order, np.array([mc.beta, mc.gamma]))[3]
        st = solve_picard(params, g, CFG, order)
        assert st.n == order and st.fields.phi.shape == (20001,)
        assert endpoint_residual(st) <= fixedpoint.NEWTON_TOL
        assert st.constants.beta == pytest.approx(direct.constants.beta, rel=1e-9)
        assert st.constants.gamma == pytest.approx(direct.constants.gamma, rel=1e-9)

    def test_sequenced_fine_work_is_pinned(self, monkeypatch):
        # order 3 on [0, 1] at n = 20001: the coarse match is the n = 2001
        # match of test_match_returns_the_accepted_iterate, solve for solve,
        # one plain solve on the half grid gives the Richardson start, and the
        # fine grid takes one plain solve, with no line search and no tangent
        # pass: two _volterra calls per step on each grid, six more per step
        # of the coarse tangent pass
        solves, volterra = Counter(), Counter()
        vol = fixedpoint._volterra

        def counted(a, solve):
            solves.update([(a.grid.n, a.order, a.tangent)])
            return solve()

        spy_endpoint_map(monkeypatch, counted)
        monkeypatch.setattr(fixedpoint, "_volterra",
                            lambda f, *a: volterra.update([len(f)]) or vol(f, *a))
        st = solve_picard(P1, unit_grid(20001), CFG, 3)
        coarse = fixedpoint.COARSE_N
        half = (coarse + 1) // 2
        assert half == 1001
        assert solves == Counter({(coarse, 3, True): 1, (coarse, 3, False): 5,
                                  (half, 3, False): 1, (20001, 3, False): 1})
        assert volterra == Counter({coarse: 18 + 5 * 6, half: 6, 20001: 6})
        assert endpoint_residual(st) <= fixedpoint.NEWTON_TOL

    @pytest.mark.parametrize("n", [4002, 20001])
    @pytest.mark.parametrize("order", [3, 6, 12])
    def test_sequenced_match_takes_one_fine_solve(self, monkeypatch, order, n):
        # the Richardson start meets the tolerance on the fine grid at once,
        # also on an even grid, whose Simpson rule ends in a 3/8 segment
        fine = self.solves_on(monkeypatch, n)
        st = solve_picard(P1, unit_grid(n), CFG, order)
        assert fine == [False]
        assert st.n == order and st.fields.phi.shape == (n,)
        assert endpoint_residual(st) <= fixedpoint.NEWTON_TOL

    def test_diverging_half_grid_solve_starts_from_the_coarse_slopes(self, monkeypatch):
        # without the half grid's values the fine Newton starts from the coarse
        # root: one plain solve and one line-search trial, landing on the
        # root of the direct fine match
        g = unit_grid(20001)
        mc = match_constants_order1(P1, UNIT)
        direct = fixedpoint._newton(P1, g, 3, np.array([mc.beta, mc.gamma]))[3]
        fine = self.solves_on(monkeypatch, g.n, fail_half=True)
        st = solve_picard(P1, g, CFG, 3)
        assert fine == [False, False]
        assert endpoint_residual(st) <= fixedpoint.NEWTON_TOL
        assert st.constants.beta == pytest.approx(direct.constants.beta, rel=1e-9)
        assert st.constants.gamma == pytest.approx(direct.constants.gamma, rel=1e-9)

    @pytest.mark.parametrize("n", [4002, 20001])
    def test_richardson_estimate_predicts_the_fine_values(self, n):
        # at the coarse root of the hard case, order 3, the fine endpoint
        # values are about 1.5e-9 and 8e-10 while the coarse ones are below
        # 1e-13; the step -jac^-1 f_hat gives back the estimate f_hat, which
        # is within 3 % of each
        p, domain = SystemParams(1.0, 1.0, 4.0), Domain(0.3, 3.3)
        mc = match_constants_order1(p, domain)
        *_, jac, state = fixedpoint._newton(p, Grid.uniform(domain, fixedpoint.COARSE_N), 3,
                                            np.array([mc.beta, mc.gamma]))
        g = Grid.uniform(domain, n)
        v = np.array([state.constants.beta, state.constants.gamma])
        f_c = np.array([state.fields.phi[-1], state.fields.psi[-1]])
        estimate = jac @ (v - fixedpoint._richardson_start(p, g, 3, v, f_c, jac))
        fine = fixedpoint._endpoint_map(p, g, 3, v)[1]
        assert np.all(np.abs(fine) > 5e-10)
        assert np.all(np.abs(estimate - fine) <= 0.03 * np.abs(fine))

    @pytest.mark.parametrize("bad", [0.0, np.nan], ids=["singular", "nan"])
    def test_unusable_coarse_jacobian_keeps_the_coarse_slopes(self, bad):
        mc = match_constants_order1(P1, UNIT)
        state = fixedpoint._newton(P1, unit_grid(fixedpoint.COARSE_N), 3,
                                   np.array([mc.beta, mc.gamma]))[3]
        v_c = np.array([state.constants.beta, state.constants.gamma])
        f_c = np.array([state.fields.phi[-1], state.fields.psi[-1]])
        v = fixedpoint._richardson_start(P1, unit_grid(20001), 3, v_c, f_c, np.full((2, 2), bad))
        assert v.tolist() == [state.constants.beta, state.constants.gamma]

    def test_bad_coarse_jacobian_falls_back_to_one_exact_fine_pass(self, monkeypatch):
        # a coarse Jacobian of the wrong sign sends the fine line search uphill
        # until it fails; one exact tangent pass on the fine grid recovers
        ref = solve_picard(P1, unit_grid(20001), CFG, 3)
        newton = fixedpoint._newton
        tangents = []

        def bad_coarse(params, grid, order, v, jac=None, record=True):
            v, fv, jac, state = newton(params, grid, order, v, jac, record)
            return v, fv, -jac if grid.n == fixedpoint.COARSE_N else jac, state

        def counted(a, solve):
            tangents.append((a.grid.n, a.tangent))
            return solve()

        monkeypatch.setattr(fixedpoint, "_newton", bad_coarse)
        spy_endpoint_map(monkeypatch, counted)
        st = solve_picard(P1, unit_grid(20001), CFG, 3)
        assert endpoint_residual(st) <= fixedpoint.NEWTON_TOL
        assert tangents.count((20001, True)) == 1
        assert st.constants.beta == pytest.approx(ref.constants.beta, rel=1e-9)
        assert st.constants.gamma == pytest.approx(ref.constants.gamma, rel=1e-9)

    @pytest.mark.parametrize("order", [3, 6])
    @pytest.mark.parametrize("params, domain", [(P1, UNIT),
                                                (SystemParams(1.0, 1.0, 4.0), Domain(0.3, 3.3))],
                             ids=["unit", "hard"])
    def test_record_free_match_is_the_recorded_one(self, monkeypatch, params, domain, order):
        # the coarse phase keeps no iterate, but its slopes, endpoint values
        # and Jacobian are the recorded match's bit for bit, from the same
        # forward solves, none of them merged back to node order
        g = Grid.uniform(domain, fixedpoint.COARSE_N)
        mc = match_constants_order1(params, domain)
        v = np.array([mc.beta, mc.gamma])
        calls, merges = [], []
        merge = quadrature.merge
        spy_endpoint_map(monkeypatch,
                         lambda a, solve: calls.append((a.record, a.tangent)) or solve())
        monkeypatch.setattr(quadrature, "merge", lambda *a, **k: merges.append(1) or merge(*a, **k))
        *_, jac, state = fixedpoint._newton(params, g, order, v)
        recorded = [tangent for _, tangent in calls]
        calls.clear()
        merges.clear()
        v_c, f_c, jac_c, _ = fixedpoint._newton(params, g, order, v, record=False)
        assert [tangent for _, tangent in calls] == recorded and len(recorded) > 1
        assert not any(record for record, _ in calls) and merges == []
        assert v_c.tolist() == [state.constants.beta, state.constants.gamma]
        assert f_c.tolist() == [state.fields.phi[-1], state.fields.psi[-1]]
        assert jac_c.tolist() == jac.tolist()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("tangent", [False, True], ids=["plain", "tangent"])
    def test_record_free_divergence_is_read_at_the_endpoint(self, tangent):
        # the iterate overflows in its first sweep; without a record the
        # non-finite values reach l2 in that sweep, which raises
        with pytest.raises(DivergenceError) as err:
            fixedpoint._endpoint_map(P1, unit_grid(2001), 3, np.array([1e160, 1e160]),
                                     tangent=tangent, record=False)
        assert err.value.iteration == 1

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("n", [2001, 2002, 4001, 4003, 20001])
    def test_diverging_solve_reports_the_same_step_at_every_n(self, n):
        # on [0, 10] the order-16 iterate from the printed start overflows at
        # step 10, whether the fine grid (n <= 4001) or the record-free coarse
        # phase (n > 4001) makes the first forward solve
        with pytest.raises(DivergenceError) as err:
            solve_picard(P1, Grid.uniform(Domain(0.0, 10.0), n), CFG, 16)
        assert err.value.iteration == 10

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("tangent", [False, True], ids=["plain", "tangent"])
    def test_record_free_walk_stops_at_its_first_non_finite_sweep(self, monkeypatch, tangent):
        # the order-16 walk of the test above sweeps no further than step 10
        mc = match_constants_order1(P1, Domain(0.0, 10.0))
        sweeps = []
        sweep = fixedpoint._sweep
        monkeypatch.setattr(fixedpoint, "_sweep", lambda *a: sweeps.append(a[-2]) or sweep(*a))
        with pytest.raises(DivergenceError) as err:
            fixedpoint._endpoint_map(P1, Grid.uniform(Domain(0.0, 10.0), 2001), 16,
                                     np.array([mc.beta, mc.gamma]), tangent=tangent,
                                     record=False)
        assert err.value.iteration == 10
        assert sweeps == list(range(1, 11))

    @settings(max_examples=200, deadline=None)
    @given(exponents=st.tuples(*[st.floats(-2.0, 160.0)] * 2),
           signs=st.tuples(*[st.sampled_from([-1.0, 1.0])] * 2),
           order=st.integers(1, 8), n=st.sampled_from([101, 102, 2001]),
           length=st.sampled_from([0.1, 1.0, 10.0]), tangent=st.booleans())
    def test_record_does_not_change_the_outcome(self, exponents, signs, order, n, length,
                                                tangent):
        # with or without a record a walk gives the same endpoint values and
        # Jacobian bit for bit, or diverges at the same step; warnings are
        # errors here, not in hypothesis's own reporting
        v = np.array([sign * 10.0**e for sign, e in zip(signs, exponents)])
        g = Grid.uniform(Domain(0.0, length), n)
        outcomes = []
        for record in (True, False):
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    _, fv, jac = fixedpoint._endpoint_map(P1, g, order, v, tangent=tangent,
                                                          record=record)
            except DivergenceError as err:
                outcomes.append(err.iteration)
            else:
                outcomes.append((fv.tobytes(), None if jac is None else jac.tobytes()))
        assert outcomes[0] == outcomes[1]

    @pytest.mark.parametrize("params, length, close", [
        ((1.0, 1.0, 1.0), 1.0, True), ((1.0, 1.0, 1.0), 3.0, True),
        ((2.0, 0.5, 0.5), 1.0, True), ((1.0, 1.0, 4.0), 1.0, True),
        ((1.0, 1.0, 4.0), 3.0, False),
    ], ids=["unit", "unit-L3", "r2", "alpha4", "alpha4-L3"])
    def test_matched_profile_against_solve_bvp(self, params, length, close):
        """scipy's collocation solver, seeded from the order-12 match, lands
        within 1e-9 of it where the Picard iterates have settled, and more than
        1e-7 away on (1, 1, 4) with L = 3, where they have not. Seeding makes
        this a check that a true solution of the BVP lies this close to the
        profile, not a blind re-solve that could find another solution."""
        from scipy.integrate import solve_bvp

        r, s, alpha = params
        g = Grid.uniform(Domain(0.0, length), 2001)
        st = solve_picard(SystemParams(r, s, alpha), g, CFG, 12)
        x, phi, psi = np.linspace(0.0, length, g.n), st.fields.phi, st.fields.psi
        seed = np.array([phi, np.gradient(phi, x), psi, np.gradient(psi, x)])

        def rhs(_, y):
            return np.array([y[1], (y[0] - y[0] * y[2]) / r,
                             y[3], (alpha * y[2] - 0.5 * y[0] ** 2) / s])

        sol = solve_bvp(rhs, lambda ya, yb: np.array([ya[0], yb[0], ya[2], yb[2]]), x, seed,
                        tol=1e-8, max_nodes=100_000)
        assert sol.success
        bvp = sol.sol(x)
        dist = max(np.max(np.abs(bvp[0] - phi)), np.max(np.abs(bvp[2] - psi)))
        assert dist <= 1e-9 if close else dist > 1e-7

    @pytest.mark.parametrize("order", [1, 3])
    def test_translation_invariance(self, order):
        # L = 1 is exact for every l1 below, so the anchored coordinate and
        # with it the matched slopes and fields are the same bit for bit
        ref = solve_picard(P1, unit_grid(20001), CFG, order)
        for l1 in (10.0, 100.0, 1000.0):
            st = solve_picard(P1, Grid.uniform(Domain(l1, l1 + 1.0), 20001), CFG, order)
            assert (st.constants.beta, st.constants.gamma) == (
                ref.constants.beta, ref.constants.gamma
            )
            assert np.array_equal(st.fields.phi, ref.fields.phi)
            assert np.array_equal(st.fields.psi, ref.fields.psi)

    @pytest.mark.parametrize("order, n", [(2, 2001), (3, 2001), (6, 2001), (3, 20001)])
    def test_longdouble_grid_matches(self, order, n):
        # the 2x2 Newton system is solved in float64, the iterate keeps the
        # grid's dtype and lands on the float64 match's slopes
        ref = solve_picard(P1, unit_grid(n), CFG, order)
        st = solve_picard(P1, Grid.uniform(UNIT, n, dtype=np.longdouble), CFG, order)
        assert st.fields.phi.dtype == st.fields.psi.dtype == np.longdouble
        assert endpoint_residual(st) <= fixedpoint.NEWTON_TOL
        assert float(st.constants.beta) == pytest.approx(ref.constants.beta, rel=1e-12)
        assert float(st.constants.gamma) == pytest.approx(ref.constants.gamma, rel=1e-12)


class TestGreenKernelIteration:
    def test_zero_start_stays_zero(self):
        final, trace = green_kernel_iterate(
            P1, unit_grid(201), FieldPair.zeros(201), IterConfig(10, 1e-14)
        )
        assert np.all(final.phi == 0.0) and np.all(final.psi == 0.0)
        assert trace[0] == 0.0

    def test_matched_picard_profile_is_a_fixed_point(self):
        # the order-12 match on [0, 1] has settled (last update 1.3e-10), so one
        # sweep of the Green map u = -int G f(u) leaves it in place; the
        # sign-flipped map +int G f moves it by about 37
        g = unit_grid(2001)
        st = solve_picard(P1, g, CFG, 12)
        _, trace = green_kernel_iterate(P1, g, st.fields, IterConfig(1, 1e-9))
        assert trace[0] < 1e-9

    def test_contraction_to_unique_trivial_solution(self):
        # A = 0.25 < 1 on [0,1] with unit bounds: any start in the box lands
        # on the trivial pair
        g = unit_grid(2001)
        rng = np.random.default_rng(11)
        finals = []
        for _ in range(2):
            start = FieldPair(rng.uniform(-1, 1, g.n), rng.uniform(-1, 1, g.n))
            final, trace = green_kernel_iterate(
                P1, g, start, IterConfig(60, 1e-13)
            )
            finals.append(final)
            assert max(np.abs(final.phi).max(), np.abs(final.psi).max()) < 1e-10
        assert np.max(np.abs(finals[0].phi - finals[1].phi)) < 1e-10

    def test_trace_contracts_with_certificate_constant(self):
        g = unit_grid(2001)
        rng = np.random.default_rng(5)
        start = FieldPair(rng.uniform(-1, 1, g.n), rng.uniform(-1, 1, g.n))
        _, trace = green_kernel_iterate(P1, g, start, IterConfig(30, 1e-13))
        for a, b in zip(trace, trace[1:]):
            assert b <= 0.25 * a + 1e-8

    def test_translation_invariance(self):
        rng = np.random.default_rng(2)
        start = FieldPair(rng.uniform(-1, 1, 20001), rng.uniform(-1, 1, 20001))
        cfg = IterConfig(60, 1e-13)
        ref, ref_trace = green_kernel_iterate(P1, unit_grid(20001), start, cfg)
        for l1 in (10.0, 100.0, 1000.0):
            g = Grid.uniform(Domain(l1, l1 + 1.0), 20001)
            final, trace = green_kernel_iterate(P1, g, start, cfg)
            assert trace == ref_trace
            assert np.array_equal(final.phi, ref.phi)
            assert np.array_equal(final.psi, ref.psi)

    def test_unconverged_run_raises(self):
        # on [0, 3] the sweep contracts too slowly for 50 sweeps to reach 1e-12
        g = Grid.uniform(Domain(0.0, 3.0), 2001)
        rng = np.random.default_rng(0)
        start = FieldPair(rng.uniform(-1, 1, g.n), rng.uniform(-1, 1, g.n))
        with pytest.raises(NotConvergedError) as err:
            green_kernel_iterate(P1, g, start, IterConfig(50, 1e-12))
        assert err.value.iterations == 50
        assert 1e-12 < err.value.last_update < 1e-2

    @pytest.mark.filterwarnings("error")
    def test_divergence_detection(self):
        huge = FieldPair(np.full(101, 1e200), np.full(101, 1e200))
        with pytest.raises(DivergenceError) as err:
            green_kernel_iterate(P1, unit_grid(101), huge, CFG)
        assert err.value.iteration == 1

    @pytest.mark.filterwarnings("error")
    def test_divergence_after_a_finite_sweep(self):
        # sweep 1 maps 1e150 to about 1e299, whose square overflows in sweep 2
        # while the buffers still hold sweep 1's fields
        big = FieldPair(np.full(101, 1e150), np.full(101, -1e150))
        with pytest.raises(DivergenceError) as err:
            green_kernel_iterate(P1, unit_grid(101), big, CFG)
        assert err.value.iteration == 2

    @staticmethod
    def _random_start(n, seed):
        rng = np.random.default_rng(seed)
        return FieldPair(rng.uniform(-1, 1, n), rng.uniform(-1, 1, n))

    def test_start_is_left_alone(self):
        start = self._random_start(2001, 8)
        before = (start.phi.copy(), start.psi.copy())
        final, trace = green_kernel_iterate(P1, unit_grid(2001), start, IterConfig(60, 1e-13))
        assert np.array_equal(start.phi, before[0]) and np.array_equal(start.psi, before[1])
        for u in (final.phi, final.psi):
            assert not np.shares_memory(u, start.phi) and not np.shares_memory(u, start.psi)
        again = green_kernel_iterate(P1, unit_grid(2001), start, IterConfig(60, 1e-13))
        assert again[1] == trace
        assert np.array_equal(again[0].phi, final.phi) and np.array_equal(again[0].psi, final.psi)

    @pytest.mark.parametrize("n", [2001, 2000])
    def test_matches_a_plain_allocating_loop(self, n):
        # u <- V(f(u)) - (d/L) V(f(u))(l2), with V = C(C(.)) and fresh arrays
        # every sweep; the slope -V(f)(l2)/L multiplies d as in the solver
        p, L = SystemParams(2.0, 0.5, 0.5), 1.5
        g = Grid.uniform(Domain(0.0, L), n)
        start = self._random_start(n, n)
        cfg = IterConfig(60, 1e-13)
        d = np.linspace(0.0, L, n)
        phi, psi, want = start.phi, start.psi, []
        while not want or want[-1] >= cfg.tol:
            new = []
            for f in ((phi - phi * psi) / p.r, (p.alpha * psi - 0.5 * phi * phi) / p.s):
                v = quadrature.cumulative(quadrature.cumulative(f, g.h), g.h)
                new.append(v + (-v[-1] / d[-1]) * d)
            want.append(float(np.max(np.abs(new[0] - phi))) + float(np.max(np.abs(new[1] - psi))))
            phi, psi = new
        final, trace = green_kernel_iterate(p, g, start, cfg)
        assert trace == want
        assert np.array_equal(final.phi, phi) and np.array_equal(final.psi, psi)

    def test_sweeps_allocate_no_arrays(self):
        # every sweep runs in five arrays allocated once per call (two field
        # pairs and the one work array): the traced peak does not grow from 5
        # to 30 sweeps and stays below those five and d, 6 arrays (allocating
        # sweeps peaked at 9 arrays)
        n = 20001
        g, start = unit_grid(n), self._random_start(n, 4)
        peaks = []
        for sweeps in (5, 30):
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                with pytest.raises(NotConvergedError):
                    green_kernel_iterate(P1, g, start, IterConfig(sweeps, 1e-300))
                peaks.append((tracemalloc.get_traced_memory()[1] - base) / start.phi.nbytes)
            finally:
                tracemalloc.stop()
        assert peaks[1] <= peaks[0] + 0.05
        assert max(peaks) < 6 + 0.1
