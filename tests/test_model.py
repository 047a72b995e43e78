import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from twowave import (
    Bounds,
    Domain,
    ExactSolutionParams,
    FieldPair,
    Grid,
    IterConfig,
    MatchingConstants,
    PicardState,
    SystemParams,
    energy_identity_residual,
    eval_f1,
    eval_f2,
    green_kernel_iterate,
    norm_ordering,
    picard_step,
    residual,
    sample_closed_form,
    sobolev_h1_norm,
    sup_norms,
)
from twowave.errors import ConfigurationError
from twowave.model import eval_df

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
nonzero = finite.filter(lambda v: abs(v) > 1e-6)


class TestParams:
    def test_defaults_valid(self):
        p = SystemParams()
        assert (p.r, p.s, p.alpha) == (1.0, 1.0, 1.0)

    @pytest.mark.parametrize("kwargs", [
        {"r": 0.0}, {"s": 0.0}, {"alpha": 0.0}, {"alpha": -1.0},
    ])
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            SystemParams(**kwargs)

    def test_domain_orientation(self):
        with pytest.raises(ConfigurationError):
            Domain(1.0, 1.0)
        with pytest.raises(ConfigurationError):
            Domain(2.0, 1.0)

    def test_grid_needs_three_nodes(self):
        with pytest.raises(ConfigurationError):
            Grid.uniform(Domain(0, 1), 2)

    def test_grid_endpoints_exact(self):
        g = Grid.uniform(Domain(-3.0, 7.0), 11)
        assert g.nodes[0] == -3.0 and g.nodes[-1] == 7.0
        assert g.h == pytest.approx(1.0)
        assert g.n == len(g.nodes) == 11

    def test_grid_is_a_value_that_computes_its_nodes(self):
        # a grid holds (domain, n, dtype): none of the 1.6 MB of nodes at n = 200001
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            g = Grid.uniform(Domain(0, 1), 200001)
            held = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert held < 1024 and g.n == 200001
        # the nodes are linspace's, bit for bit (compared as values: a
        # longdouble's padding bytes are not part of it)
        for n, dtype in itertools.product((2000, 2001), (np.float64, np.longdouble)):
            got = Grid.uniform(Domain(-0.3, 1.7), n, dtype=dtype).nodes
            want = np.linspace(-0.3, 1.7, n, dtype=dtype)
            assert got.dtype == want.dtype and np.array_equal(got, want)
        # equal values, equal hashes
        a, b = Grid.uniform(Domain(0, 1), 11), Grid.uniform(Domain(0.0, 1.0), 11, dtype=np.float64)
        assert a == b and hash(a) == hash(b)
        assert a != Grid.uniform(Domain(0, 1), 11, dtype=np.longdouble)
        assert a != Grid.uniform(Domain(0, 1), 13)

    def test_fieldpair_shape_and_finiteness(self):
        with pytest.raises(ConfigurationError):
            FieldPair(np.zeros(3), np.zeros(4))
        with pytest.raises(ConfigurationError):
            FieldPair(np.array([0.0, np.inf]), np.zeros(2))

    def test_bounds_nonnegative(self):
        with pytest.raises(ConfigurationError):
            Bounds(-1.0, 0.0)


class TestRightHandSides:
    def test_f1_values(self):
        p = SystemParams(r=1.0)
        assert eval_f1(p, 0.0, 5.0) == 0.0
        assert eval_f1(p, 2.0, 1.5) == pytest.approx(-1.0)
        assert eval_f1(SystemParams(r=-2.0), 1.0, 0.0) == pytest.approx(-0.5)

    def test_f2_values(self):
        p = SystemParams(s=1.0, alpha=1.0)
        assert eval_f2(p, 0.0, 0.0) == 0.0
        assert eval_f2(p, 2.0, 1.0) == pytest.approx(-1.0)
        assert eval_f2(SystemParams(s=-1.0, alpha=2.0), 1.0, 1.0) == pytest.approx(-1.5)

    @given(a=finite, phi=finite, psi=finite)
    @example(a=77270.0, phi=309149.0, psi=0.99999)
    @example(a=6.354477348262163e-161, phi=6.354477348262163e-161, psi=0.0)
    def test_f1_linear_in_phi(self, a, phi, psi):
        p = SystemParams(r=2.0, s=1.0, alpha=1.0)
        # a*phi - a*phi*psi cancels when psi ~ 1: float64 rounding of the two
        # terms bounds what either side can agree to, plus the absolute
        # rounding of results that underflow into the subnormal range.
        fin = np.finfo(float)
        bound = (4 * fin.eps * (abs(a * phi) + abs(a * phi * psi)) / abs(p.r)
                 + 4 * fin.smallest_subnormal * (1 + abs(a) + abs(psi)))
        assert eval_f1(p, a * phi, psi) == pytest.approx(
            a * eval_f1(p, phi, psi), rel=1e-12, abs=bound
        )

    @given(phi=finite, psi=finite)
    def test_f2_even_in_phi(self, phi, psi):
        p = SystemParams(r=1.0, s=-3.0, alpha=2.0)
        assert eval_f2(p, phi, psi) == eval_f2(p, -phi, psi)

    @given(psi=finite, s=nonzero, alpha=st.floats(min_value=1e-3, max_value=1e3))
    def test_f2_at_zero_phi(self, psi, s, alpha):
        p = SystemParams(r=1.0, s=s, alpha=alpha)
        assert eval_f2(p, 0.0, psi) == pytest.approx(alpha * psi / s, rel=1e-12, abs=1e-9)

    def test_df_is_the_exact_linearisation(self):
        # f is quadratic, so df(u) v = (f(u + v) - f(u - v)) / 2 exactly; on
        # integer samples and dyadic coefficients every step is exact in
        # float64, so both sides agree bit for bit, even where df cancels to 0
        rng = np.random.default_rng(25)
        phi, psi, a, b = rng.integers(-1000, 1001, (4, 256)).astype(float)
        dyadic = (-2.0, -1.0, -0.5, 0.5, 1.0, 2.0, 4.0)
        for r, s, alpha in itertools.product(dyadic, dyadic, (0.25, 1.0, 4.0)):
            p = SystemParams(r, s, alpha)
            out, scratch = (np.full_like(phi, np.nan), np.full_like(phi, np.nan)), np.empty_like(phi)
            got = eval_df(p, phi, psi, a, b, out, scratch)
            assert got is out
            for f, df in zip((eval_f1, eval_f2), got):
                assert np.array_equal(df, (f(p, phi + a, psi + b) - f(p, phi - a, psi - b)) / 2.0)

    @pytest.mark.parametrize("params", [SystemParams(), SystemParams(-3.7, 1e-300, 1e300),
                                        SystemParams(1e-300, -7.0, 0.3)])
    @pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
    def test_buffered_form_is_bit_identical(self, params, dtype):
        # out= (and eval_f2's scratch=) keep the allocating form's operations
        # and their order, so both equal the formula bit for bit, on random
        # samples and on ones that overflow, underflow, cancel or are not finite
        rng = np.random.default_rng(7)
        phi, psi = (np.concatenate([rng.normal(size=200) * 10.0 ** rng.integers(-170, 170, 200),
                                    [0.0, -0.0, 1e155, -1e155, 1e-320, np.inf, -np.inf, np.nan]])
                    .astype(dtype) for _ in range(2))
        psi[-8:] = psi[-8:][::-1]  # pair each special value with another one
        with np.errstate(all="ignore"):
            want = ((phi - phi * psi) / params.r,
                    (params.alpha * psi - 0.5 * phi * phi) / params.s)
            out = [np.full_like(phi, np.nan) for _ in range(3)]
            got = (eval_f1(params, phi, psi), eval_f2(params, phi, psi),
                   eval_f1(params, phi, psi, out=out[0]),
                   eval_f2(params, phi, psi, out=out[1], scratch=out[2]))
        assert got[2] is out[0] and got[3] is out[1]
        for w, g in zip(want + want, got):
            assert g.dtype == dtype
            assert np.array_equal(g, w, equal_nan=True)
            assert np.array_equal(np.signbit(g), np.signbit(w))


class TestAllocatingRightHandSides:
    def test_f2_equals_the_nested_expression(self):
        # the in-place allocating form keeps the nested expression's operations
        # and their order: (alpha*psi - (phi*0.5)*phi) / s, bit for bit
        rng = np.random.default_rng(12)
        params = SystemParams(0.7, -1.3, 2.9)
        phi, psi = rng.normal(size=(2, 1001)) * 10.0 ** rng.integers(-160, 160, (2, 1001))
        with np.errstate(all="ignore"):
            want = np.divide(np.subtract(np.multiply(psi, params.alpha),
                                         np.multiply(np.multiply(phi, 0.5), phi)), params.s)
            got = eval_f2(params, phi, psi)
        assert np.array_equal(got, want, equal_nan=True)
        assert np.array_equal(np.signbit(got), np.signbit(want))

    @pytest.mark.parametrize("f", [eval_f1, eval_f2], ids=["f1", "f2"])
    def test_at_most_two_arrays_live(self, f):
        # the result and one temporary; eval_f2 used to hold three at once
        n = 20001
        phi, psi = np.random.default_rng(3).uniform(-1.0, 1.0, (2, n))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            f(SystemParams(), phi, psi)
            peak = (tracemalloc.get_traced_memory()[1] - base) / phi.nbytes
        finally:
            tracemalloc.stop()
        assert peak < 2.25


# Each entry point that takes fields with a grid, called on fields one node short.
SHORT_FIELD_CALLS = {
    "residual": lambda g, f: residual(SystemParams(), g, f),
    "energy_identity_residual": lambda g, f: energy_identity_residual(SystemParams(), g, f),
    "sobolev_h1_norm": lambda g, f: sobolev_h1_norm(g, f.phi),
    "norm_ordering": lambda g, f: norm_ordering(SystemParams(), g, f),
    "picard_step": lambda g, f: picard_step(SystemParams(), g,
                                            PicardState(f, MatchingConstants(1.0, 1.0))),
    "green_kernel_iterate": lambda g, f: green_kernel_iterate(SystemParams(), g, f,
                                                              IterConfig()),
}


@pytest.mark.parametrize("call", SHORT_FIELD_CALLS.values(), ids=SHORT_FIELD_CALLS)
def test_fields_off_the_grid_rejected_with_one_message(call):
    with pytest.raises(ConfigurationError) as err:
        call(Grid.uniform(Domain(0.0, 1.0), 11), FieldPair.zeros(10))
    assert str(err.value) == "samples of shape (10,) do not fit 11 nodes"


class TestResidual:
    def test_trivial_pair_zero(self):
        p = SystemParams(r=-1.5, s=2.0, alpha=0.7)
        g = Grid.uniform(Domain(-2, 3), 17)
        r1, r2 = residual(p, g, FieldPair.zeros(17))
        assert np.all(r1 == 0.0) and np.all(r2 == 0.0)

    def test_linear_fields_have_zero_second_difference(self):
        p = SystemParams()
        g = Grid.uniform(Domain(0, 2), 21)
        beta, gamma = 0.8, -0.3
        f = FieldPair(beta * g.nodes, gamma * g.nodes)
        r1, r2 = residual(p, g, f)
        inner = slice(1, -1)
        assert np.allclose(
            r1[inner], -eval_f1(p, f.phi[inner], f.psi[inner]), atol=1e-10
        )
        assert np.allclose(
            r2[inner], -eval_f2(p, f.phi[inner], f.psi[inner]), atol=1e-10
        )

    def test_length_mismatch(self):
        g = Grid.uniform(Domain(0, 1), 5)
        with pytest.raises(ConfigurationError):
            residual(SystemParams(), g, FieldPair.zeros(7))

    def test_endpoints_reported_zero(self):
        g = Grid.uniform(Domain(0, 1), 9)
        f = FieldPair(np.ones(9), np.ones(9))
        r1, r2 = residual(SystemParams(), g, f)
        assert r1[0] == r1[-1] == r2[0] == r2[-1] == 0.0

    def test_exact_solution_second_order_refinement(self):
        p = SystemParams()
        maxima = []
        for n in (251, 501, 1001, 2001):
            g = Grid.uniform(Domain(-10, 10), n)
            f = sample_closed_form("exact", g, ExactSolutionParams(0.0))
            r1, r2 = residual(p, g, f)
            maxima.append(max(np.abs(r1).max(), np.abs(r2).max()))
        for coarse, fine in zip(maxima, maxima[1:]):
            assert coarse / fine == pytest.approx(4.0, rel=0.15)

    @pytest.mark.parametrize("n", [2000, 2001])
    @pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
    def test_equals_the_nested_expression(self, n, dtype):
        # the in-place stencil keeps the nested expression's operations and
        # their order, bit for bit, in the fields' own dtype
        rng = np.random.default_rng(n)
        p, g = SystemParams(0.7, -1.3, 2.9), Grid.uniform(Domain(-0.4, 1.1), n)
        phi, psi = rng.normal(size=(2, n)).astype(dtype)
        r1, r2 = residual(p, g, FieldPair(phi, psi))
        assert r1.dtype == r2.dtype == dtype
        h2 = g.h * g.h
        want1 = (phi[:-2] - 2.0 * phi[1:-1] + phi[2:]) / h2 - eval_f1(p, phi[1:-1], psi[1:-1])
        want2 = (psi[:-2] - 2.0 * psi[1:-1] + psi[2:]) / h2 - eval_f2(p, phi[1:-1], psi[1:-1])
        assert np.array_equal(r1[1:-1], want1) and np.array_equal(r2[1:-1], want2)
        assert r1[0] == r1[-1] == r2[0] == r2[-1] == 0.0

    def test_at_most_four_arrays_live(self):
        # the two outputs and eval_f's two temporaries; the nested expression
        # held five at once
        n = 20001
        g = Grid.uniform(Domain(0.0, 1.0), n)
        f = FieldPair(*np.random.default_rng(4).uniform(-1.0, 1.0, (2, n)))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            residual(SystemParams(), g, f)
            peak = (tracemalloc.get_traced_memory()[1] - base) / f.phi.nbytes
        finally:
            tracemalloc.stop()
        assert peak < 4.25


class TestSupNorms:
    def test_zero(self):
        b = sup_norms(FieldPair.zeros(5))
        assert (b.M, b.Mstar) == (0.0, 0.0)

    def test_simple_values(self):
        b = sup_norms(FieldPair(np.array([1.0, -3.0]), np.array([0.5, 0.25])))
        assert (b.M, b.Mstar) == (3.0, 0.5)

    def test_exact_solution_peaks(self):
        g = Grid.uniform(Domain(-10, 10), 2001)
        f = sample_closed_form("exact", g, ExactSolutionParams(0.0))
        b = sup_norms(f)
        assert b.M == pytest.approx(3.0 / np.sqrt(2.0), abs=1e-12)
        assert b.Mstar == pytest.approx(1.5, abs=1e-12)
