import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from twowave import (
    Domain,
    ExactSolutionParams,
    Grid,
    SeriesParams,
    SystemParams,
    bright_series,
    dark_series,
    eval_f1,
    eval_f2,
    exact_alpha1,
    exact_alpha1_derivatives,
    sample_closed_form,
)
from twowave.errors import ConfigurationError

SQRT2 = math.sqrt(2.0)
moderate = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)


class TestExactSolution:
    def test_peak_values(self):
        phi, psi = exact_alpha1(0.0, ExactSolutionParams(0.0))
        assert psi == pytest.approx(1.5, abs=1e-15)
        assert phi == pytest.approx(3.0 / SQRT2, abs=1e-14)

    def test_decay_at_infinity(self):
        phi, psi = exact_alpha1(np.array([-80.0, 80.0]), ExactSolutionParams(3.0))
        assert np.all(np.abs(phi) < 1e-30) and np.all(np.abs(psi) < 1e-30)

    @given(x=moderate, c2=moderate, delta=moderate)
    def test_translation_covariance(self, x, c2, delta):
        a = exact_alpha1(x, ExactSolutionParams(c2))
        b = exact_alpha1(x + delta, ExactSolutionParams(c2 - delta))
        assert a[0] == pytest.approx(b[0], rel=1e-9, abs=1e-300)
        assert a[1] == pytest.approx(b[1], rel=1e-9, abs=1e-300)

    @given(x=moderate, c2=moderate)
    def test_decoupling_ratio(self, x, c2):
        phi, psi = exact_alpha1(x, ExactSolutionParams(c2))
        assert phi == SQRT2 * psi  # exact by construction

    def test_system_residual_with_analytic_derivatives(self):
        p = SystemParams(1, 1, 1)
        x = np.random.default_rng(1).uniform(-30, 30, 10_000)
        phi, _, d2phi, psi, _, d2psi = exact_alpha1_derivatives(
            x, ExactSolutionParams(0.0)
        )
        assert np.max(np.abs(d2phi - eval_f1(p, phi, psi))) < 1e-12
        assert np.max(np.abs(d2psi - eval_f2(p, phi, psi))) < 1e-12

    def test_decoupled_equation_residual(self):
        # psi'' - psi + psi^2 = 0 along the hump
        x = np.random.default_rng(2).uniform(-30, 30, 10_000)
        _, _, _, psi, _, d2psi = exact_alpha1_derivatives(x, ExactSolutionParams(0.5))
        assert np.max(np.abs(d2psi - psi + psi * psi)) < 1e-12

    def test_first_integral(self):
        # (psi')^2 - psi^2 + (2/3) psi^3 = 0 with the zero integration constant
        x = np.random.default_rng(3).uniform(-30, 30, 10_000)
        _, _, _, psi, dpsi, _ = exact_alpha1_derivatives(x, ExactSolutionParams(0.0))
        assert np.max(np.abs(dpsi**2 - psi**2 + (2.0 / 3.0) * psi**3)) < 1e-12

    def test_derivatives_match_finite_differences(self):
        x = np.linspace(-5, 5, 11)
        eps = 1e-6
        p = ExactSolutionParams(0.7)
        phi, dphi, _, psi, dpsi, _ = exact_alpha1_derivatives(x, p)
        phi_p, psi_p = exact_alpha1(x + eps, p)
        phi_m, psi_m = exact_alpha1(x - eps, p)
        assert np.allclose((phi_p - phi_m) / (2 * eps), dphi, atol=1e-8)
        assert np.allclose((psi_p - psi_m) / (2 * eps), dpsi, atol=1e-8)

    def test_c2_must_be_finite(self):
        with pytest.raises(ConfigurationError):
            ExactSolutionParams(math.inf)


class TestBrightSeries:
    def test_leading_order_at_origin(self):
        phi, psi = bright_series(0.0, SeriesParams(alpha=4.0, s=1.0, order=0))
        assert phi == pytest.approx(4.0, abs=1e-14)
        assert psi == pytest.approx(2.0, abs=1e-14)

    def test_first_correction_at_origin(self):
        # tanh(0) kills the phi correction; sech(0)=1 gives (16-20)/alpha for psi
        phi, psi = bright_series(0.0, SeriesParams(alpha=4.0, s=1.0, order=1))
        assert phi == pytest.approx(4.0, abs=1e-14)
        assert psi == pytest.approx(1.0, abs=1e-14)

    def test_decay(self):
        phi, psi = bright_series(40.0, SeriesParams(alpha=2.0, s=-1.0, order=1))
        assert abs(phi) < 1e-15 and abs(psi) < 1e-15

    def test_correction_scales_as_inverse_sqrt_alpha(self):
        x = np.linspace(-10, 10, 801)
        sups = []
        for alpha in (100.0, 400.0):
            c0 = bright_series(x, SeriesParams(alpha, s=1.0, order=0))[0]
            c1 = bright_series(x, SeriesParams(alpha, s=1.0, order=1))[0]
            sups.append(np.max(np.abs(c1 - c0)))
        assert sups[1] / sups[0] == pytest.approx(0.5, rel=0.05)

    def test_invalid_order(self):
        with pytest.raises(ConfigurationError):
            SeriesParams(alpha=1.0, order=2)

    def test_alpha_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            SeriesParams(alpha=-1.0)


class TestDarkSeries:
    def test_center_values(self):
        assert dark_series(0.0, SeriesParams(1.0, 1.0, 0)) == (0.0, 0.0)
        phi, psi = dark_series(0.0, SeriesParams(1.0, 1.0, 1))
        assert phi == pytest.approx(0.0, abs=1e-15)
        assert psi == pytest.approx(1.0, abs=1e-14)  # 0 - 4 + 5

    def test_background_at_infinity(self):
        phi, psi = dark_series(60.0, SeriesParams(1.0, 1.0, 0))
        assert phi == pytest.approx(SQRT2, abs=1e-12)
        assert psi == pytest.approx(1.0, abs=1e-12)

    def test_parity(self):
        x = np.linspace(-8, 8, 33)
        phi, psi = dark_series(x, SeriesParams(2.0, 1.0, 0))
        assert np.allclose(phi, -phi[::-1], atol=1e-14)
        assert np.allclose(psi, psi[::-1], atol=1e-14)


class TestSampling:
    def test_exact_symmetric_peak(self):
        g = Grid.uniform(Domain(-10, 10), 5)
        f = sample_closed_form("exact", g, ExactSolutionParams(0.0))
        assert np.argmax(f.phi) == 2
        assert np.allclose(f.phi, f.phi[::-1], atol=1e-15)

    def test_bright_entry_at_origin(self):
        g = Grid.uniform(Domain(-2, 2), 5)
        f = sample_closed_form("bright", g, SeriesParams(alpha=1.0, s=1.0, order=0))
        assert f.phi[2] == pytest.approx(2.0, abs=1e-14)
        assert f.psi[2] == pytest.approx(2.0, abs=1e-14)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("kind, params, limit", [
        ("exact", ExactSolutionParams(0.0), (0.0, 0.0)),
        ("bright", SeriesParams(alpha=1.0, s=1.0, order=1), (0.0, 0.0)),
        ("dark", SeriesParams(alpha=1.0, s=1.0, order=1), (SQRT2, 1.0)),
    ])
    def test_wide_domain_samples_without_warnings(self, kind, params, limit):
        # cosh overflows past |u| ~ 710 (x > 1420 for exact, 710 for bright,
        # 1004 for dark); sech reads its exact double limit 0 there
        g = Grid.uniform(Domain(0.0, 2000.0), 2001)
        f = sample_closed_form(kind, g, params)
        far = g.nodes > 1500.0
        assert np.all(f.phi[far] == limit[0]) and np.all(f.psi[far] == limit[1])

    def test_kind_params_mismatch(self):
        g = Grid.uniform(Domain(0, 1), 5)
        with pytest.raises(ConfigurationError):
            sample_closed_form("exact", g, SeriesParams(alpha=1.0))
        with pytest.raises(ConfigurationError):
            sample_closed_form("bright", g, ExactSolutionParams(0.0))
        with pytest.raises(ConfigurationError):
            sample_closed_form("elliptic", g, ExactSolutionParams(0.0))
