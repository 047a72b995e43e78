import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from twowave import (
    Bounds,
    Domain,
    ExactSolutionParams,
    FieldPair,
    Grid,
    SystemParams,
    eval_f1,
    eval_f2,
    residual,
    sample_closed_form,
    sup_norms,
)
from twowave.errors import ConfigurationError

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
