import numpy as np
import pytest
from hypothesis import given, strategies as st

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


@pytest.mark.parametrize("n", list(range(2, 10)) + [2000, 2001])
@pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
def test_cumulative_simpson_matches_fancy_index_reference(n, dtype):
    y = np.random.default_rng(n).normal(size=n).astype(dtype)
    h = dtype(0.37)
    ref = _fancy_index_cumulative_simpson(y, h)
    got = quadrature.cumulative(y, h)
    assert got.dtype == dtype
    assert np.array_equal(got, ref)
    # written in place into a caller's buffer: NaN-filled, so every slot
    # must be written, and handed back as the result
    buf = np.full(n, np.nan, dtype=dtype)
    assert quadrature.cumulative(y, h, out=buf) is buf
    assert np.array_equal(buf, ref)


@given(n=st.integers(min_value=0, max_value=64),
       dtype=st.sampled_from([np.float64, np.longdouble]),
       seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_even_odd_order(n, dtype, seed):
    # split puts the even nodes first, merge undoes it, node n - 1 sits at
    # l2_index(n), and the running integral on the halves, merged, is the
    # node-order reference bit for bit
    y = np.random.default_rng(seed).normal(size=n).astype(dtype)
    z = quadrature.split(y)
    assert z.dtype == dtype and np.array_equal(z, np.concatenate((y[0::2], y[1::2])))
    assert np.array_equal(quadrature.merge(z), y)
    if n:
        assert quadrature.split(np.arange(n))[quadrature.l2_index(n)] == n - 1
    h = dtype(0.37)
    ref = _fancy_index_cumulative_simpson(y, h) if n >= 2 else np.zeros(n, dtype=dtype)
    got = quadrature.cumulative(z, h, np.full(n, np.nan, dtype=dtype), halves=True)
    assert got.dtype == dtype and np.array_equal(quadrature.merge(got), ref)


@pytest.mark.parametrize("n", [0, 1])
@pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
def test_cumulative_of_fewer_than_two_samples_is_zero(n, dtype):
    # no interval to integrate over: zeros of the input's length and dtype,
    # fresh or written over a NaN-filled buffer
    y, h = np.full(n, 2.5, dtype=dtype), dtype(0.37)
    got = quadrature.cumulative(y, h)
    assert got.dtype == dtype and np.array_equal(got, np.zeros(n))
    buf = np.full(n, np.nan, dtype=dtype)
    assert quadrature.cumulative(y, h, out=buf) is buf
    assert np.array_equal(buf, np.zeros(n))


def test_preserves_longdouble():
    y = np.linspace(0, 1, 11).astype(np.longdouble)
    out = quadrature.cumulative(y, np.longdouble(0.1))
    assert out.dtype == np.longdouble
