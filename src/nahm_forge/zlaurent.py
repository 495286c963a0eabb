"""Constant-term route for the rank-two double sum.

:func:`double_sum_ct` represents the double sum as the z^0 coefficient of
(-q^(1+v)/z, -qz, -q/z, q^2; q^2)_inf / (q^u z; q)_inf, replacing
contour-integral residue analysis by exact window-bounded algebra.  By the
Jacobi triple product (Andrews, The Theory of Partitions, Thm 2.8) the window
starts as (q^2, -qz, -q/z; q^2)_inf = sum_k z^k q^(k^2), one slot a row.  The
rungs of (-q^(1+v)/z; q^2)_inf are adds arr += z^-1 q^e arr, and by Euler
(Cor. 2.2) 1/(q^u z; q)_inf = sum_i z^i q^(ui)/(q; q)_i, so the z^0 row is
the Horner sum from i = W down acc <- (row z^-(i-1)) + q^u acc/(1 - q^i).

Window: a term of the z^0 row takes z^k q^(k^2), j >= 0 rungs (at least
q^(j^2 + vj)) and z^i q^(ui)/(q; q)_i, k = j - i, so it is at least q^E,
E(i, j) = (j-i)^2 + j^2 + vj + ui, and visits only the rows z^-i..z^max(k,0).
So W = max(i, |k|) over E < n (_ct_window) keeps every term below q^n: over
real j, E < n gives (2i + 2u + v)^2 < 8n + v^2 + (2u + v)^2, and at fixed k
over real j >= 0, (2k - u)^2 < 4n + u^2 + m^2, m = max(0, -u-v).  All terms
are nonnegative, so the row reaches a negative q-power iff some E(i, j) < 0,
hence < 1: i <= W, j <= 2W at n = 1, the box double_sum_ct scans before it
allocates.  Within W the window keeps what can still reach q^0..q^(n-1) of
the z^0 row (_ct_shape):
  (a) columns q^-L..q^(n+L-1), L the sum of -e over the adds with e < 0 (the
      rungs 1+v, 3+v, ... below 0, and |u| W for the shifts by q^u when
      u < 0; 0 for u >= 0, v >= -1): nothing gets left of q^-L, or from
      q^(n+L) or above below q^n;
  (b) the returned row is the z^0 row below q^n, the only part read;
  (c) rows z^-W..z^W for the theta, which the rungs only lower; Euler's sum
      only raises z, so the Horner reads z^-W..z^0, the sum over i <= W.

Exactness: every rung and add sums nonnegative terms, so products.exact_run,
shared with the Nahm sums, takes the z^0 row from a float64 run (exact below
2^53) or an int64 run, or reruns it on Python ints; its docstring proves it.
"""

from __future__ import annotations

from math import ceil, isqrt

import numpy as np

from .errors import WindowOverflow
from .products import _check_window, exact_run, rungs
from .series import QSeries, Rat, _frac


def _ct_window(u_exp: int, v_exp: int, n: int) -> int:
    """W = max(i, |k|) over E < n, minimised over real j (module docstring)."""
    b, m = 2 * u_exp + v_exp, max(0, -u_exp - v_exp)
    return max((isqrt(8 * n + v_exp ** 2 + b * b - 1) - b) // 2,
               (isqrt(4 * n + u_exp ** 2 + m * m - 1) + abs(u_exp)) // 2)


def _ct_shape(u_exp: int, v_exp: int, n: int, w_cap: int) -> tuple[int, int, int]:
    """(rows, cols, L) of the window z^-W..z^W by q^-L..q^(n+L-1), L the sum
    of -e over the adds with e < 0 (module docstring, part (a))."""
    reach = sum(range(-1 - v_exp, 0, -2)) + max(-u_exp, 0) * w_cap
    return 2 * w_cap + 1, n + 2 * reach, reach


def _ladder(u_exp: int, v_exp: int, n: int, w_cap: int, dtype):
    """The z^0 row below q^n of the integrand ladder, and its adds; row i of
    the _ct_shape window holds z^(i-W), column k holds q^(k-L)."""
    rows, ncols, reach = _ct_shape(u_exp, v_exp, n, w_cap)
    arr = np.zeros((rows, ncols), dtype=dtype)
    for k in range(-w_cap, w_cap + 1):  # sum_k z^k q^(k^2), k^2 in the window
        arr[w_cap + k, reach + k * k:reach + k * k + 1] = 1
    adds = 0

    def add(dst, src, e: int):
        """dst += q^e src, dropping what leaves the window."""
        nonlocal adds
        if abs(e) < ncols:
            lo, hi = max(e, 0), max(-e, 0)
            dst[..., lo:ncols - hi] += src[..., hi:ncols - lo]
            adds += 1

    # (-q^(1+v) / z; q^2)_inf
    for e in range(1 + v_exp, ncols, 2):
        add(arr[:-1], arr[1:], e)
    # 1 / (q^u z; q)_inf: for k = W..1, row z^-k / (1 - q^k) times q^u into z^-(k-1)
    for k in range(w_cap, 0, -1):
        adds += rungs(arr[w_cap - k], 1, k, k, -1, 0, 1)
        add(arr[w_cap - k + 1], arr[w_cap - k], u_exp)
    return arr[w_cap, :n + reach], adds


def double_sum_ct(u_exp: int, v_exp: int, order: Rat) -> QSeries:
    """Constant term of (-q^(1+v)/z, -qz, -q/z, q^2; q^2)_inf / (q^u z; q)_inf.

    This is the product-form integrand whose z^0 coefficient equals the
    rank-two double sum with quadratic form (i-j)^2 + j^2, offsets (u, v).
    ValueError refuses a window past MAX_WINDOW slots, and WindowOverflow
    offsets that reach a negative q-power, before any window is allocated.
    """
    order = _frac(order, "the order")
    n = ceil(order)
    if n <= 0:
        return QSeries.zero(order)
    w_cap, box = _ct_window(u_exp, v_exp, n), _ct_window(u_exp, v_exp, 1)
    rows, ncols, reach = _ct_shape(u_exp, v_exp, n, w_cap)
    _check_window("the constant term needs", rows, ncols)
    if any((j - i) ** 2 + j * j + v_exp * j + u_exp * i < 0
           for i in range(box + 1) for j in range(2 * box + 1)):
        raise WindowOverflow("constant term picked up negative exponents")
    row = exact_run(lambda dtype: _ladder(u_exp, v_exp, n, w_cap, dtype))
    if any(row[:reach]):
        raise WindowOverflow("constant term picked up negative exponents")
    return QSeries(dict(enumerate(row[reach:])), 1, order)
