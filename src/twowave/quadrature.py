"""Composite quadrature on uniform grids.

`cumulative`, the running integral, is the one formula; `integrate` is its
last node. Its Simpson rule patches odd subinterval counts with a 3/8
segment (and the first node with a cubic interpolant), so at every n >= 3
each partial integral is exact for polynomials up to degree three, which
lets the Volterra iteration reproduce closed-form iterates to machine
precision on polynomial integrands.
"""

from __future__ import annotations

import numpy as np

RULES = ("trapezoid", "simpson")


def _as_float_array(y) -> np.ndarray:
    y = np.asarray(y)
    return y if y.dtype.kind == "f" else y.astype(float)


def _check_rule(rule: str) -> None:
    if rule not in RULES:
        raise ValueError(f"unknown quadrature rule {rule!r}; expected one of {RULES}")


def integrate(y: np.ndarray, h: float, rule: str = "simpson") -> float:
    """Integral of samples ``y`` on a uniform grid with spacing ``h``: the last running integral."""
    return float(cumulative(y, h, rule)[-1])


def cumulative(y: np.ndarray, h: float, rule: str = "simpson") -> np.ndarray:
    """Running integrals I[k] = int_{x_0}^{x_k} y dt for every node k."""
    _check_rule(rule)
    y = _as_float_array(y)
    n = y.size
    if n < 2:
        return np.zeros(n, dtype=y.dtype)
    if rule == "trapezoid":
        out = np.empty(n, dtype=y.dtype)
        out[0] = 0.0
        np.cumsum(h * 0.5 * (y[:-1] + y[1:]), out=out[1:])
        return out
    return _cumulative_simpson(y, h)


def _cumulative_simpson(y: np.ndarray, h: float) -> np.ndarray:
    n = y.size
    out = np.zeros(n, dtype=y.dtype)
    # Even node counts from the origin: composite Simpson pairs.
    if n >= 3:
        seg = h / 3.0 * (y[0:n - 2:2] + 4.0 * y[1:n - 1:2] + y[2:n:2])
        out[2::2] = np.cumsum(seg)
    # First node: integrate the cubic through the first four samples over [0, h].
    if n >= 4:
        out[1] = h * (9.0 * y[0] + 19.0 * y[1] - 5.0 * y[2] + y[3]) / 24.0
    elif n == 3:
        out[1] = h * (5.0 * y[0] + 8.0 * y[1] - y[2]) / 12.0
    else:
        out[1] = h * 0.5 * (y[0] + y[1])
    # Remaining odd nodes: even-count prefix plus one Simpson 3/8 segment.
    if n >= 4:
        out[3::2] = out[0:n - 3:2] + 3.0 * h / 8.0 * (
            y[0:n - 3:2] + 3.0 * y[1:n - 2:2] + 3.0 * y[2:n - 1:2] + y[3::2]
        )
    return out
