"""Composite Simpson quadrature on uniform grids.

`cumulative`, the running integral, is the one formula; `integrate` is its
last node. Odd subinterval counts are patched with a 3/8 segment (and the
first node with a cubic interpolant), so at every n >= 3 each partial
integral is exact for polynomials up to degree three, which lets the
Volterra iteration reproduce closed-form iterates to machine precision on
polynomial integrands.
"""

from __future__ import annotations

import numpy as np


def _as_float_array(y) -> np.ndarray:
    y = np.asarray(y)
    return y if y.dtype.kind == "f" else y.astype(float)


def integrate(y: np.ndarray, h: float) -> float:
    """Integral of samples ``y`` on a uniform grid with spacing ``h``: the last running integral."""
    return float(cumulative(y, h)[-1])


def cumulative(y: np.ndarray, h: float, out: np.ndarray | None = None) -> np.ndarray:
    """Running integrals I[k] = int_{x_0}^{x_k} y dt for every node k, written into ``out``.

    ``out`` (fresh when None) must have y's length and dtype and share no
    memory with y; every slot is written, so its old contents do not matter.
    The work runs in place in ``out``, with no n-length temporaries.
    """
    y = _as_float_array(y)
    n = y.size
    out = np.empty(n, dtype=y.dtype) if out is None else out
    if n < 2:
        out[:] = 0.0
        return out
    # Odd nodes k >= 3 first hold their Simpson 3/8 segment over [x_{k-3}, x_k],
    # computed with the even slots as scratch before those are filled.
    odd = out[3::2]
    if n >= 4:
        tmp = out[0:2 * odd.size:2]
        np.multiply(y[1:n - 2:2], 3.0, out=odd)
        np.add(y[0:n - 3:2], odd, out=odd)
        np.add(odd, np.multiply(y[2:n - 1:2], 3.0, out=tmp), out=odd)
        np.add(odd, y[3::2], out=odd)
        np.multiply(odd, 3.0 * h / 8.0, out=odd)
    out[0] = 0.0
    # Even node counts from the origin: composite Simpson pairs.
    if n >= 3:
        even = out[2::2]
        np.multiply(y[1:n - 1:2], 4.0, out=even)
        np.add(y[0:n - 2:2], even, out=even)
        np.add(even, y[2:n:2], out=even)
        np.multiply(even, h / 3.0, out=even)
        np.cumsum(even, out=even)
    # First node: integrate the cubic through the first four samples over [0, h].
    if n >= 4:
        out[1] = h * (9.0 * y[0] + 19.0 * y[1] - 5.0 * y[2] + y[3]) / 24.0
    elif n == 3:
        out[1] = h * (5.0 * y[0] + 8.0 * y[1] - y[2]) / 12.0
    else:
        out[1] = h * 0.5 * (y[0] + y[1])
    # Remaining odd nodes: even-count prefix plus their 3/8 segment.
    if n >= 4:
        np.add(out[0:n - 3:2], odd, out=odd)
    return out
