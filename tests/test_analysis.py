import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from twowave import (
    Bounds,
    Domain,
    ExactSolutionParams,
    FieldPair,
    Grid,
    SystemParams,
    certify,
    energy_identity_residual,
    existence_interval_bound,
    green_function,
    lipschitz,
    norm_ordering,
    sample_closed_form,
    sobolev_h1_norm,
    uniqueness_constant,
)
from twowave.analysis import DirichletWarning
from twowave.errors import DegenerateBoundsError, DomainError

P1 = SystemParams(1.0, 1.0, 1.0)
UNIT = Domain(0.0, 1.0)
UNIT_BOUNDS = Bounds(1.0, 1.0)


class TestLipschitz:
    def test_unit_case(self):
        lip = lipschitz(P1, UNIT_BOUNDS)
        assert (lip.L11, lip.L12, lip.L21, lip.L22) == (2.0, 1.0, 1.0, 1.0)

    def test_zero_bounds(self):
        lip = lipschitz(SystemParams(-2.0, 4.0, 3.0), Bounds(0.0, 0.0))
        assert lip.L11 == pytest.approx(0.5)
        assert lip.L12 == 0.0 and lip.L21 == 0.0
        assert lip.L22 == pytest.approx(0.75)

    def test_r_scaling(self):
        a = lipschitz(SystemParams(1.0, 1.0, 1.0), UNIT_BOUNDS)
        b = lipschitz(SystemParams(2.0, 1.0, 1.0), UNIT_BOUNDS)
        assert b.L11 == a.L11 / 2 and b.L12 == a.L12 / 2
        assert b.L21 == a.L21 and b.L22 == a.L22


class TestExistenceBound:
    def test_unit_case(self):
        got = existence_interval_bound(P1, UNIT_BOUNDS)
        assert got == pytest.approx((16.0 / 3.5) ** (1.0 / 3.0), rel=1e-12)
        assert got == pytest.approx(1.6597, abs=1e-3)

    @given(c=st.floats(min_value=0.01, max_value=100.0))
    def test_coefficient_scaling(self, c):
        # scaling both r and s by c divides the Lipschitz data by c, so the
        # admissible length grows like c^(1/3)
        p1 = SystemParams(1.3, -0.7, 2.0)
        pc = SystemParams(c * 1.3, -c * 0.7, 2.0)
        assert existence_interval_bound(pc, Bounds(0.5, 2.0)) == pytest.approx(
            c ** (1.0 / 3.0) * existence_interval_bound(p1, Bounds(0.5, 2.0)),
            rel=1e-9,
        )

    def test_degenerate_bounds(self):
        with pytest.raises(DegenerateBoundsError):
            existence_interval_bound(P1, Bounds(0.0, 0.0))


class TestUniquenessConstant:
    def test_unit_case(self):
        assert uniqueness_constant(P1, UNIT, UNIT_BOUNDS) == pytest.approx(0.25)

    def test_quadratic_length_scaling(self):
        a1 = uniqueness_constant(P1, Domain(0, 1), UNIT_BOUNDS)
        a2 = uniqueness_constant(P1, Domain(0, 2), UNIT_BOUNDS)
        assert a2 == pytest.approx(4.0 * a1)

    def test_tiny_domain(self):
        assert uniqueness_constant(P1, Domain(0, 1e-8), UNIT_BOUNDS) < 1e-15


class TestCertify:
    def test_unit_interval(self):
        cert = certify(P1, UNIT, UNIT_BOUNDS)
        assert cert.exists_ok and cert.unique_ok
        assert cert.A == pytest.approx(0.25)
        assert cert.equicontinuity == pytest.approx((2.0 + 1.5) / 8.0)

    def test_long_interval(self):
        cert = certify(P1, Domain(0, 3), UNIT_BOUNDS)
        assert not cert.exists_ok and not cert.unique_ok
        assert cert.A == pytest.approx(2.25)

    def test_near_zero_length_domain(self):
        cert = certify(P1, Domain(0, 1e-9), UNIT_BOUNDS)
        assert cert.exists_ok and cert.unique_ok

    @settings(max_examples=30)
    @given(L=st.floats(min_value=0.01, max_value=10.0),
           extra=st.floats(min_value=0.01, max_value=10.0))
    def test_enlarging_domain_never_restores_uniqueness(self, L, extra):
        small = certify(P1, Domain(0.0, L), UNIT_BOUNDS)
        large = certify(P1, Domain(0.0, L + extra), UNIT_BOUNDS)
        assert large.A > small.A
        if not small.unique_ok:
            assert not large.unique_ok

    def test_serializable(self):
        import json

        doc = certify(P1, UNIT, UNIT_BOUNDS).to_dict()
        assert json.loads(json.dumps(doc))["A"] == pytest.approx(0.25)


class TestGreenFunction:
    def test_interior_value(self):
        assert green_function(0.0, 1.0, 0.25, 0.75) == pytest.approx(0.0625)

    def test_boundary_annihilation(self):
        for y in (0.0, 0.3, 1.0):
            assert green_function(0.0, 1.0, 0.0, y) == 0.0
            assert green_function(0.0, 1.0, 1.0, y) == 0.0

    @given(x=st.floats(min_value=0, max_value=1), y=st.floats(min_value=0, max_value=1))
    def test_symmetry_and_range(self, x, y):
        g = green_function(0.0, 1.0, x, y)
        assert g == green_function(0.0, 1.0, y, x)
        assert 0.0 <= g <= 0.25 + 1e-15

    def test_maximum_at_center(self):
        xs = np.linspace(2.0, 5.0, 301)
        vals = green_function(2.0, 5.0, xs[:, None], xs[None, :])
        assert vals.max() == pytest.approx((5.0 - 2.0) / 4.0, abs=1e-6)
        i, j = np.unravel_index(np.argmax(vals), vals.shape)
        assert xs[i] == pytest.approx(3.5) and xs[j] == pytest.approx(3.5)

    def test_out_of_interval_rejected(self):
        with pytest.raises(DomainError):
            green_function(0.0, 1.0, -0.1, 0.5)
        with pytest.raises(DomainError):
            green_function(1.0, 0.0, 0.5, 0.5)

    def test_row_integral_bound(self):
        # max_x int |G(x, y)| dy = (b-a)^2 / 8, attained at the midpoint
        n = 2001
        x = np.linspace(0.0, 1.0, n)
        rows = green_function(0.0, 1.0, x[:, None], x[None, :])
        # rows are piecewise linear with the kink on a node: trapezoid is exact
        integrals = np.trapezoid(np.abs(rows), dx=x[1] - x[0], axis=1)
        assert integrals.max() == pytest.approx(0.125, abs=1e-8)


class TestSobolevNorm:
    def test_zero(self):
        assert sobolev_h1_norm(Grid.uniform(UNIT, 11), np.zeros(11)) == 0.0

    def test_sine_mode(self):
        g = Grid.uniform(UNIT, 2001)
        u = np.sin(np.pi * g.nodes)
        expected = math.sqrt(0.5 + np.pi**2 / 2.0)
        assert sobolev_h1_norm(g, u) == pytest.approx(expected, abs=1e-4)

    def test_homogeneity(self):
        g = Grid.uniform(UNIT, 501)
        u = np.sin(np.pi * g.nodes)
        assert sobolev_h1_norm(g, 2 * u) == pytest.approx(
            2 * sobolev_h1_norm(g, u), rel=1e-12
        )

    def test_warns_on_nonzero_boundary(self):
        g = Grid.uniform(UNIT, 11)
        with pytest.warns(UserWarning):
            sobolev_h1_norm(g, np.ones(11))


def exact_fields(domain=Domain(-20.0, 20.0), n=4001):
    g = Grid.uniform(domain, n)
    return g, sample_closed_form("exact", g, ExactSolutionParams(0.0))


class TestEnergyIdentity:
    def test_zero_fields(self):
        g = Grid.uniform(UNIT, 101)
        assert energy_identity_residual(P1, g, FieldPair.zeros(101)) == 0.0

    def test_exact_solution(self):
        g, f = exact_fields()
        assert energy_identity_residual(P1, g, f) < 1e-6

    def test_scaled_fields_break_identity(self):
        g, f = exact_fields()
        scaled = FieldPair(1.1 * f.phi, f.psi)
        got = energy_identity_residual(P1, g, scaled)
        assert got == pytest.approx(0.21 / 1.21, abs=1e-3)

    def test_translation_invariance(self):
        g1 = Grid.uniform(Domain(-20.0, 20.0), 2001)
        g2 = Grid.uniform(Domain(-17.0, 23.0), 2001)
        f1 = sample_closed_form("exact", g1, ExactSolutionParams(0.0))
        f2 = sample_closed_form("exact", g2, ExactSolutionParams(3.0))
        r1 = energy_identity_residual(P1, g1, f1)
        r2 = energy_identity_residual(P1, g2, f2)
        assert r1 == pytest.approx(r2, abs=1e-12)

    def test_warns_for_nonunit_coefficients(self):
        g = Grid.uniform(UNIT, 101)
        with pytest.warns(UserWarning):
            energy_identity_residual(
                SystemParams(2.0, 1.0, 1.0), g, FieldPair.zeros(101)
            )


class TestNormOrdering:
    # The exact pair is 1.2e-8 to 1.7e-8 at the ends of [-20, 20], above the
    # 1e-8 that the H1 norm takes as zero, so the norms warn.
    def test_exact_solution_is_balanced(self):
        g, f = exact_fields()
        with pytest.warns(DirichletWarning):
            assert norm_ordering(P1, g, f) == "equal"

    def test_zero_fields(self):
        g = Grid.uniform(UNIT, 101)
        assert norm_ordering(P1, g, FieldPair.zeros(101)) == "equal"

    def test_inflated_psi_flips_to_less(self):
        g, f = exact_fields()
        with pytest.warns(DirichletWarning):
            assert norm_ordering(P1, g, FieldPair(f.phi, 2.0 * f.psi)) == "less"

    def test_deflated_psi_flips_to_greater(self):
        g, f = exact_fields()
        with pytest.warns(DirichletWarning):
            assert norm_ordering(P1, g, FieldPair(f.phi, 0.5 * f.psi)) == "greater"
