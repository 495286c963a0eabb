"""Constant-term route for the rank-two double sum.

:func:`double_sum_ct` represents the double sum as the z^0 coefficient of a
product of z-dependent Pochhammer ladders, replacing contour-integral
residue analysis by exact window-bounded algebra.

Soundness of the z-window W: pushing content to z-power +-S through the
ladder factors costs at least S^2/2 - O(S) in the q-exponent (each rung of a
quadratic ladder adds a distinct exponent a + k*m), so any content that ever
leaves the window can only influence q-exponents at or above the truncation
order.  The test suite exercises window doubling to confirm the pruning.

Each add is arr += z^dz q^e arr, so every term of the result picks each add
at most once, and the window keeps only what can still reach the z^0 row
below q^n (_ct_shape):
  (a) columns q^-(W+2)..q^(n+L-1), with L the sum of -e over the adds with
      e < 0 (0 for u >= 0, v >= -1): the adds still to come move content
      left by at most L, so nothing at q^(n+L) or above gets below q^n;
  (b) the returned row is the z^0 row below q^n, the only part read;
  (c) rows z^-W..z^W while the multiply rungs run, which move z both ways,
      then z^-W..z^0 for the rungs of 1/(q^u z; q)_inf, which only raise
      the z-power: no row above z^0 can reach z^0 again, and z-steps up to
      W, so doubling passes 2^j <= W, reach it from every row kept.

Exactness of the dense kernel: every rung adds nonnegative terms, so
products.exact_run, shared with the Nahm sums, takes each z^0 coefficient
from a float64 run (exact below 2^53) or an int64 run of the ladder, or
reruns it on Python ints; its docstring holds the proof.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from math import ceil, isqrt
from typing import Optional

import numpy as np

from .errors import WindowOverflow
from .products import MAX_WINDOW, exact_run, pf, poch
from .series import QSeries, Rat


def _ct_window(order: int) -> int:
    """Window W with S^2/2 - 3S - 4 >= order + 2W for all S > W."""
    w = 8 + isqrt(2 * order) + 1
    for _ in range(4):
        w = 4 + isqrt(2 * (order + 2 * w + 8) + 9 * 9) + 1
    return w


def _ct_shape(u_exp: int, v_exp: int, n: int, w_cap: int) -> tuple[int, int]:
    """(rows, cols) of the ladder window: z^-W..z^W, and q^-(W+2)..q^(n+L-1)
    with L the sum of -e over the adds with e < 0: the rungs 1+v, 3+v, ...
    below 0, and each rung e < 0 of 1/(q^u z; q) times 1 + 2 + ... + 2^j,
    the doubling passes 2^j <= W."""
    reach = (sum(range(-1 - v_exp, 0, -2))
             + sum(range(1, 1 - u_exp)) * ((1 << w_cap.bit_length()) - 1))
    return 2 * w_cap + 1, n + w_cap + 2 + reach


def _ladder(u_exp: int, v_exp: int, n: int, w_cap: int, dtype):
    """The z^0 row of the integrand ladder below q^n, and the array adds.

    Row i of the _ct_shape window holds z^(i-W), column k holds q^(k-W-2);
    every add drops what it pushes out of the window.
    """
    rows, ncols = _ct_shape(u_exp, v_exp, n, w_cap)
    arr = np.zeros((rows, ncols), dtype=dtype)
    arr[w_cap, w_cap + 2] = 1
    adds = 0

    def add(dz: int, e: int):
        """arr += z^dz q^e arr."""
        nonlocal adds
        if abs(e) >= ncols:
            return
        dst, src = (arr[dz:], arr[:-dz]) if dz > 0 else (arr[:dz], arr[-dz:])
        if e >= 0:
            dst[:, e:] += src[:, :ncols - e]
        else:
            dst[:, :e] += src[:, -e:]
        adds += 1

    # (-q z; q^2)_inf (-q / z; q^2)_inf (-q^(1+v) / z; q^2)_inf
    for dz, e0 in ((1, 1), (-1, 1), (-1, 1 + v_exp)):
        for e in range(e0, ncols, 2):
            add(dz, e)
    # 1 / (q^u z; q)_inf, each rung as prod_j (1 + z^(2^j) q^(2^j e)), only
    # raises the z-power, so it runs on the rows z^-W..z^0 alone
    arr = arr[:w_cap + 1]
    for e in range(u_exp, ncols):
        s = 1
        while s <= w_cap:
            add(s, s * e)
            s *= 2
    return arr[w_cap, :n + w_cap + 2], adds


def double_sum_ct(u_exp: int, v_exp: int, order: Rat,
                  window: Optional[int] = None) -> QSeries:
    """Constant term of (-q^(1+v)/z, -qz, -q/z, q^2; q^2)_inf / (q^u z; q)_inf.

    This is the product-form integrand whose z^0 coefficient equals the
    rank-two double sum with quadratic form (i-j)^2 + j^2, offsets (u, v).
    ValueError refuses a window past MAX_WINDOW slots before it is allocated.
    """
    order = Fraction(order)
    n = ceil(order)
    w_cap = window if window is not None else _ct_window(n)
    rows, ncols = _ct_shape(u_exp, v_exp, n, w_cap)
    if rows * ncols > MAX_WINDOW:
        raise ValueError(f"the constant term needs {rows} x {ncols} window "
                         f"slots, more than {MAX_WINDOW}")
    row = exact_run(partial(_ladder, u_exp, v_exp, n, w_cap))
    if any(row[:w_cap + 2]):
        raise WindowOverflow("constant term picked up negative exponents")
    body = QSeries(dict(enumerate(row[w_cap + 2:])), 1, order)
    return body * poch(pf(1, 2, 2), order)
