import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from twowave import fixedpoint
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
    NoRealSolutionError,
    NotConvergedError,
)

P1 = SystemParams(1.0, 1.0, 1.0)
UNIT = Domain(0.0, 1.0)


def unit_grid(n=2001):
    return Grid.uniform(UNIT, n)


CFG = IterConfig(max_iter=100, tol=1e-300)


class TestConfigTypes:
    def test_iter_config_validation(self):
        with pytest.raises(ConfigurationError):
            IterConfig(max_iter=0)
        with pytest.raises(ConfigurationError):
            IterConfig(tol=0.0)

    def test_state_diff_norm_count(self):
        with pytest.raises(ConfigurationError):
            PicardState(
                n=2,
                fields=FieldPair.zeros(5),
                constants=MatchingConstants(0.0, 0.0),
                diff_norms=(0.1,),
            )

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
        state = PicardState(
            n=0, fields=f, constants=MatchingConstants(float(dphi), float(dpsi))
        )
        nxt = picard_step(P1, g, state)
        # the sweep reproduces phi(x) - phi(l1) exactly, so the difference
        # is the boundary tail |phi(l1)| = sqrt(2)*1.5*sech^2(5) ~ 3.9e-4
        assert nxt.diff_norms[-1] < 5e-4

    def test_volterra_is_fourth_order(self):
        # V(f)(x) = int_0^x (x - t) f(t) dt for f = e^t sin 3t on [0, 3] is
        # e^x (-8 sin 3x - 6 cos 3x)/100 + 0.06 + 0.3 x; halving h cuts the
        # error of the twice-applied cumulative Simpson rule about 16 times
        errs = []
        for n in (1001, 2001):
            x = np.linspace(0.0, 3.0, n)
            exact = np.exp(x) * (-8.0 * np.sin(3 * x) - 6.0 * np.cos(3 * x)) / 100 + 0.06 + 0.3 * x
            v = fixedpoint._volterra(np.exp(x) * np.sin(3 * x), x[1] - x[0])
            errs.append(np.max(np.abs(v - exact)))
        assert errs[0] / errs[1] == pytest.approx(16.0, rel=0.1)

    @pytest.mark.filterwarnings("error")
    def test_divergence_detection(self):
        # overflow must surface only as DivergenceError, never as a warning
        g = unit_grid(101)
        huge = FieldPair(np.full(101, 1e200), np.full(101, 1e200))
        state = PicardState(n=0, fields=huge, constants=MatchingConstants(0.0, 0.0))
        with pytest.raises(DivergenceError):
            picard_step(P1, g, state)


class TestConvergenceBound:
    def test_formula_values(self):
        cb = ConvergenceBound(1.0, 1.0)
        assert convergence_bound(cb, 1.0, 0) == pytest.approx((0.5, 0.5))
        b10 = convergence_bound(cb, 1.0, 10)
        assert b10[0] == pytest.approx(1.0 / math.factorial(12), rel=1e-12)

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
        # 13 forward solves of 3 steps each: the accepted Newton trial's
        # iterate is returned as computed, not solved once more
        calls = []
        step = fixedpoint.picard_step
        monkeypatch.setattr(fixedpoint, "picard_step", lambda *a: calls.append(a) or step(*a))
        solve_picard(P1, unit_grid(2001), CFG, 3)
        assert len(calls) == 13 * 3

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
