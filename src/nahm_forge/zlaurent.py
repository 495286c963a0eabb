"""Constant-term route for the rank-two double sum.

:func:`double_sum_ct` represents the double sum as the z^0 coefficient of a
product of z-dependent Pochhammer ladders, replacing contour-integral
residue analysis by exact window-bounded algebra.

Soundness of the z-window W: pushing content to z-power +-S through the
ladder factors costs at least S^2/2 - O(S) in the q-exponent (each rung of a
quadratic ladder adds a distinct exponent a + k*m), so any content that ever
leaves the window can only influence q-exponents at or above the truncation
order.  The tests rerun the ladder at a wider window to confirm the pruning.

The rungs of (-qz, -q/z, -q^(1+v)/z; q^2)_inf are adds arr += z^(+-1) q^e arr.
By Euler (Andrews, The Theory of Partitions, Cor. 2.2), 1/(q^u z; q)_inf =
sum_k z^k q^(uk)/(q; q)_k, so the z^0 row is the Horner sum from k = W down
acc <- (row z^-(k-1)) + q^u acc/(1 - q^k): one rungs division, one add.
Every term of the result picks each add at most once, and the window keeps
only what can still reach the z^0 row below q^n (_ct_shape):
  (a) columns q^-L..q^(n+L-1), L the sum of -e over the adds with e < 0 (the
      rungs 1+v, 3+v, ... below 0, and |u| W for the shifts by q^u when
      u < 0; 0 for u >= 0, v >= -1): nothing gets left of q^-L, or from
      q^(n+L) or above below q^n;
  (b) the returned row is the z^0 row below q^n, the only part read;
  (c) rows z^-W..z^W, as the multiply rungs move z both ways; Euler's sum
      only raises z, so the Horner reads z^-W..z^0, the sum over k <= W.

Exactness of the dense kernel: every rung and add sums nonnegative terms, so
products.exact_run, shared with the Nahm sums, takes each z^0 coefficient
from a float64 run (exact below 2^53) or an int64 run of the ladder, or
reruns it on Python ints; its docstring holds the proof.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from math import ceil, isqrt

import numpy as np

from .errors import WindowOverflow
from .products import MAX_WINDOW, exact_run, pf, poch, rungs
from .series import QSeries, Rat


def _ct_window(order: int) -> int:
    """Window W with S^2/2 - 3S - 4 >= order + 2W for all S > W."""
    w = 8 + isqrt(2 * order) + 1
    for _ in range(4):
        w = 4 + isqrt(2 * (order + 2 * w + 8) + 9 * 9) + 1
    return w


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
    arr[w_cap, reach] = 1
    adds = 0

    def add(dst, src, e: int):
        """dst += q^e src, dropping what leaves the window."""
        nonlocal adds
        if abs(e) < ncols:
            if e >= 0:
                dst[..., e:] += src[..., :ncols - e]
            else:
                dst[..., :e] += src[..., -e:]
            adds += 1

    # (-q z; q^2)_inf (-q / z; q^2)_inf (-q^(1+v) / z; q^2)_inf
    for dz, e0 in ((1, 1), (-1, 1), (-1, 1 + v_exp)):
        dst, src = (arr[1:], arr[:-1]) if dz > 0 else (arr[:-1], arr[1:])
        for e in range(e0, ncols, 2):
            add(dst, src, e)
    # 1 / (q^u z; q)_inf: for k = W..1, row z^-k / (1 - q^k) times q^u into z^-(k-1)
    for k in range(w_cap, 0, -1):
        adds += rungs(arr[w_cap - k], 1, k, k, -1, 0, 1)
        add(arr[w_cap - k + 1], arr[w_cap - k], u_exp)
    return arr[w_cap, :n + reach], adds


def double_sum_ct(u_exp: int, v_exp: int, order: Rat) -> QSeries:
    """Constant term of (-q^(1+v)/z, -qz, -q/z, q^2; q^2)_inf / (q^u z; q)_inf.

    This is the product-form integrand whose z^0 coefficient equals the
    rank-two double sum with quadratic form (i-j)^2 + j^2, offsets (u, v).
    ValueError refuses a window past MAX_WINDOW slots before it is allocated.
    """
    order = Fraction(order)
    n = ceil(order)
    if n <= 0:
        return QSeries.zero(order)
    w_cap = _ct_window(n)
    rows, ncols, reach = _ct_shape(u_exp, v_exp, n, w_cap)
    if rows * ncols > MAX_WINDOW:
        raise ValueError(f"the constant term needs {rows} x {ncols} window "
                         f"slots, more than {MAX_WINDOW}")
    row = exact_run(partial(_ladder, u_exp, v_exp, n, w_cap))
    if any(row[:reach]):
        raise WindowOverflow("constant term picked up negative exponents")
    body = QSeries(dict(enumerate(row[reach:])), 1, order)
    return body * poch(pf(1, 2, 2), order)
