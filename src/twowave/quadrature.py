"""Composite Simpson quadrature on uniform grids.

`cumulative`, the running integral, is the one formula; `integrate` is its
last node. Odd subinterval counts are patched with a 3/8 segment (and the
first node with a cubic interpolant), so at every n >= 3 each partial
integral is exact for polynomials up to degree three, which lets the
Volterra iteration reproduce closed-form iterates to machine precision on
polynomial integrands.

The formula reads the even-node and the odd-node samples as two halves. The
fixed-point sweeps keep their arrays in even–odd order (`split`: the even
nodes, then the odd ones), where both halves are contiguous; node-order
callers pass stride-2 views of the same halves.
"""

from __future__ import annotations

import numpy as np


def _as_float_array(y) -> np.ndarray:
    y = np.asarray(y)
    return y if y.dtype.kind == "f" else y.astype(float)


def integrate(y: np.ndarray, h: float) -> float:
    """Integral of samples ``y`` on a uniform grid with spacing ``h``: the last running integral."""
    return float(cumulative(y, h)[-1])


def _halves(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The even-node and odd-node halves of an array stored in even–odd order."""
    ne = (z.size + 1) // 2
    return z[:ne], z[ne:]


def split(y, out: np.ndarray | None = None) -> np.ndarray:
    """y in even–odd order: the samples of the even nodes, then those of the odd ones.

    Written into ``out`` (fresh when None), which must not share memory with y.
    """
    y = np.asarray(y)
    out = np.empty_like(y) if out is None else out
    even, odd = _halves(out)
    even[:], odd[:] = y[0::2], y[1::2]
    return out


def merge(z, out: np.ndarray | None = None) -> np.ndarray:
    """z, stored in even–odd order, back in node order; the inverse of `split`.

    Written into ``out`` (fresh when None), which must not share memory with z.
    """
    z = np.asarray(z)
    out = np.empty_like(z) if out is None else out
    out[0::2], out[1::2] = _halves(z)
    return out


def l2_index(n: int) -> int:
    """Where node n - 1 sits in even–odd order.

    At even n it is odd and ends the array; at odd n it ends the even half.
    """
    return n - 1 if n % 2 == 0 else n // 2


def cumulative(y: np.ndarray, h: float, out: np.ndarray | None = None, *,
               halves: bool = False) -> np.ndarray:
    """Running integrals I[k] = int_{x_0}^{x_k} y dt for every node k, written into ``out``.

    ``out`` (fresh when None) must have y's length and dtype and share no
    memory with y; every slot is written, so its old contents do not matter.
    With ``halves`` both y and out are in even–odd order (`split`), and the
    formula reads and writes contiguous halves; either way the results carry
    the same bits. The work runs in place in ``out``, with no n-length temporaries.
    """
    y = _as_float_array(y)
    out = np.empty(y.size, dtype=y.dtype) if out is None else out
    if y.size < 2:
        out[:] = 0.0
    elif halves:
        _running(*_halves(y), h, *_halves(out))
    else:
        _running(y[0::2], y[1::2], h, out[0::2], out[1::2])
    return out


def _running(ye, yo, h, oe, oo) -> None:
    """The Simpson running integral of the even-node samples ``ye`` and odd-node ``yo``
    (n >= 2 nodes in all), written into the even-node and odd-node halves ``oe``, ``oo``.
    """
    n = ye.size + yo.size
    # Odd nodes k >= 3 first hold their Simpson 3/8 segment over [x_{k-3}, x_k],
    # computed with the even slots as scratch before those are filled.
    odd = oo[1:]
    m = odd.size
    if n >= 4:
        tmp = oe[:m]
        np.multiply(yo[:m], 3.0, out=odd)
        np.add(ye[:m], odd, out=odd)
        np.add(odd, np.multiply(ye[1:m + 1], 3.0, out=tmp), out=odd)
        np.add(odd, yo[1:], out=odd)
        np.multiply(odd, 3.0 * h / 8.0, out=odd)
    oe[0] = 0.0
    # Even node counts from the origin: composite Simpson pairs.
    if n >= 3:
        even = oe[1:]
        np.multiply(yo[:even.size], 4.0, out=even)
        np.add(ye[:-1], even, out=even)
        np.add(even, ye[1:], out=even)
        np.multiply(even, h / 3.0, out=even)
        np.add.accumulate(even, out=even)
    # First node: integrate the cubic through the first four samples over [0, h].
    if n >= 4:
        oo[0] = h * (9.0 * ye[0] + 19.0 * yo[0] - 5.0 * ye[1] + yo[1]) / 24.0
    elif n == 3:
        oo[0] = h * (5.0 * ye[0] + 8.0 * yo[0] - ye[1]) / 12.0
    else:
        oo[0] = h * 0.5 * (ye[0] + yo[0])
    # Remaining odd nodes: even-count prefix plus their 3/8 segment.
    if n >= 4:
        np.add(oe[:m], odd, out=odd)
