import numpy as np
import pytest

from twowave import quadrature


def test_simpson_exact_for_cubics():
    # antiderivative: x^4/4 - 2x^3/3 + x/2
    exact = 2.0**4 / 4 - 2.0 * 2.0**3 / 3 + 0.5 * 2.0
    for n in (4, 10, 20, 21):
        x = np.linspace(0.0, 2.0, n)
        y = x**3 - 2.0 * x**2 + 0.5
        assert quadrature.integrate(y, x[1] - x[0]) == pytest.approx(exact, abs=1e-13)


@pytest.mark.parametrize("n", [3, 4, 10, 11])
def test_integrate_is_the_last_running_integral(n):
    y = np.random.default_rng(n).normal(size=n)
    assert quadrature.integrate(y, 0.1) == quadrature.cumulative(y, 0.1)[-1]


@pytest.mark.parametrize("n", [4, 5, 6, 7, 20, 21, 100, 101])
def test_cumulative_simpson_exact_for_cubics(n):
    # every partial integral must be exact for degree-3 polynomials,
    # including odd subinterval counts
    x = np.linspace(0.0, 1.5, n)
    y = 2.0 * x**3 - x**2 + 3.0 * x - 1.0
    exact = 0.5 * x**4 - x**3 / 3.0 + 1.5 * x**2 - x
    exact -= exact[0]
    got = quadrature.cumulative(y, x[1] - x[0])
    assert np.max(np.abs(got - exact)) < 1e-13


def test_cumulative_final_entry_matches_full_integral():
    x = np.linspace(0.0, np.pi, 201)
    y = np.sin(x)
    h = x[1] - x[0]
    assert quadrature.cumulative(y, h)[-1] == pytest.approx(quadrature.integrate(y, h), abs=1e-12)


def test_convergence_orders_on_sine():
    errs = []
    for n in (101, 201, 401):
        x = np.linspace(0.0, np.pi, n)
        errs.append(abs(quadrature.integrate(np.sin(x), x[1] - x[0]) - 2.0))
    # Simpson is O(h^4)
    assert errs[0] / errs[1] == pytest.approx(16.0, rel=0.1)


def _fancy_index_cumulative_simpson(y, h):
    # The earlier implementation, which patched the odd nodes through
    # index arrays; kept as the reference the strided form must match.
    n = y.size
    out = np.zeros(n, dtype=y.dtype)
    if n >= 3:
        seg = h / 3.0 * (y[0:n - 2:2] + 4.0 * y[1:n - 1:2] + y[2:n:2])
        out[2::2] = np.cumsum(seg)
    if n >= 4:
        out[1] = h * (9.0 * y[0] + 19.0 * y[1] - 5.0 * y[2] + y[3]) / 24.0
    elif n == 3:
        out[1] = h * (5.0 * y[0] + 8.0 * y[1] - y[2]) / 12.0
    else:
        out[1] = h * 0.5 * (y[0] + y[1])
    if n >= 4:
        k = np.arange(3, n, 2)
        out[k] = out[k - 3] + 3.0 * h / 8.0 * (
            y[k - 3] + 3.0 * y[k - 2] + 3.0 * y[k - 1] + y[k]
        )
    return out


@pytest.mark.parametrize("n", list(range(2, 10)) + [2001])
@pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
def test_cumulative_simpson_matches_fancy_index_reference(n, dtype):
    y = np.random.default_rng(n).normal(size=n).astype(dtype)
    h = dtype(0.37)
    got = quadrature.cumulative(y, h)
    assert got.dtype == dtype
    assert np.array_equal(got, _fancy_index_cumulative_simpson(y, h))


def test_preserves_longdouble():
    y = np.linspace(0, 1, 11).astype(np.longdouble)
    out = quadrature.cumulative(y, np.longdouble(0.1))
    assert out.dtype == np.longdouble
