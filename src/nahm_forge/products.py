"""Product-side constructors: q-Pochhammer symbols, J-notation, eta quotients,
and Jacobi-triple bilateral sums, all as exact :class:`QSeries`.

Every factor is a ladder of binomials (1 - sign*q^(a+k*m)), one PochFactor
in products and in the Nahm sums alike; multiplying or dividing a dense
coefficient window by one binomial is one O(length) pass of rungs, the
kernel the Nahm sums share, so whole products are built rung by rung instead
of by general series multiplication.  A product of many rungs is built
instead from its exponents by the log-derivative recurrence, when that costs
fewer passes (see product).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil, isfinite, lcm
from operator import mul
from typing import Optional

import numpy as np

from .errors import Divergent
from .series import ParamSeries, QSeries, Rat, _coeff, _frac

MAX_WINDOW = 2 ** 24  # most dense slots, over all rows, that a sum or product may hold


@dataclass(frozen=True)
class PochFactor:
    """One symbol (sign*q^a; q^m)_length^power; length None means infinite.
    Inside a sum over n its length is length + per_n*n."""
    sign: int
    a: Fraction
    m: Fraction
    length: Optional[int] = None
    power: int = 1
    per_n: int = 0

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        object.__setattr__(self, "a", _frac(self.a))
        object.__setattr__(self, "m", _frac(self.m))
        if self.m <= 0:
            raise ValueError("step must be positive")
        if self.length is not None and self.length < 0:
            raise ValueError("length must be nonnegative")
        if self.per_n < 0 or self.per_n and self.length is None:
            raise ValueError("per_n must be nonnegative, and 0 for an infinite length")

    def check_convergent(self):
        """Infinite products need a > 0, or a = 0 with sign -1 (constant 2)."""
        if self.length is not None:
            return
        if self.a < 0 or (self.a == 0 and self.sign == 1):
            raise Divergent(f"infinite product with base {self.sign}*q^{self.a}")


def pf(sign: int, a: Rat, m: Rat, length: Optional[int] = None,
       power: int = 1, per_n: int = 0) -> PochFactor:
    """Shorthand PochFactor constructor."""
    return PochFactor(sign, _frac(a), _frac(m), length, power, per_n)


def neg_base_pair(sign: int, a: Rat, m: Rat, power: int = 1) -> tuple[PochFactor, PochFactor]:
    """(sign*q^a; -q^m)_inf rewritten over the base q^(2m).

    Splitting even and odd rungs gives
    (x; -q^m)_inf = (x; q^(2m))_inf * (-x*q^m; q^(2m))_inf.
    """
    a = _frac(a)
    m = _frac(m)
    return (pf(sign, a, 2 * m, None, power), pf(-sign, a + m, 2 * m, None, power))


# ---------------------------------------------------------------------------
# Binomial-ladder kernel
# ---------------------------------------------------------------------------

def rungs(arr, sign: int, a: int, m: int, power: int,
          start: int = 0, stop: Optional[int] = None) -> int:
    """arr *= prod over rungs start <= k < stop (all when stop is None) of
    (1 - sign*q^(a+k*m))^power in place, slot i of the last axis holding
    q^i; returns the adds made.  Needs m > 0 and the first rung's exponent
    >= 0 (> 0 to divide); the ladder stops at the top of the window.  A
    division by 1 - q^e is a running sum per residue class mod e.  A float
    array takes the majorant: 1 + q^e for 1 - sign*q^e, 1/(1 - q^e) for
    1/(1 + q^e)."""
    n, adds, first = arr.shape[-1], 0, a + start * m
    end = n if stop is None else min(n, a + stop * m)
    if first < end and (first < 0 or first == 0 and power < 0):
        raise ValueError("rung exponents must be nonnegative, positive to divide")
    sign = (-1 if power > 0 else 1) if arr.dtype.kind == "f" else sign
    for e in [e for e in range(first, end, m) for _ in range(abs(power))]:
        if power > 0 or sign == -1:     # 1/(1 + q^e) = (1 - q^e)/(1 - q^2e)
            tail = arr[..., e:]         # in place, with no multiply by the sign
            (np.add if sign * power < 0 else np.subtract)(tail, arr[..., :n - e], out=tail)
            e, adds = 2 * e, adds + 1
        if power < 0 and e < n:         # a running sum per residue mod e
            full = n - n % e
            head = arr[..., :full].reshape(arr.shape[:-1] + (full // e, e))
            np.cumsum(head, axis=-2, out=head)
            arr[..., full:] += arr[..., full - e:n - e]
            adds += full // e + 1
    return adds


def exact_run(run, nonneg: bool = True) -> list:
    """The exact integers, as a flat list, of run(dtype) -> (array, adds), a
    computation by rungs and adds; nonneg says it has no signs.  The int64
    run is exact mod 2^64.  The float64 run drops every sign (see rungs), so
    while adds < 2^51 it sums nonnegative terms to within adds 2^-51 f of a
    majorant x* (the gamma_n bound: Higham, Accuracy and Stability of
    Numerical Algorithms, 2nd ed., ch. 3; a running sum of L terms counts L
    adds).  Sign-free and below 2^53, the floats are exact; else exact_row
    places the residues, and past that the run repeats on Python ints."""
    with np.errstate(over="ignore"):
        shadow, adds = run(np.float64)
        top = float(shadow.max(initial=0.0))
        small = top < 2 ** 53 and (int(top) + 1) * (2 ** 51 + adds) <= 2 ** 104
        residues = shadow.astype(np.int64) if nonneg and small else run(np.int64)[0]
    flat = exact_row(residues.ravel(), shadow.ravel(), adds, nonneg)
    return run(object)[0].ravel().tolist() if flat is None else flat


def exact_row(residues, shadow, adds: int, nonneg: bool = True):
    """x from exact_run's int64 residues and float64 shadow f: the residues
    while f (1 + adds 2^-51) < 2^63 everywhere, or, sign-free (x = x*), the
    integer of their class mod 2^64 nearest f while the bound is below 2^62;
    else, or if f is not finite, None."""
    top = float(shadow.max(initial=0.0))
    if not isfinite(top) or adds >= 2 ** 51:
        return None
    if (int(top) + 1) * (2 ** 51 + adds) <= 2 ** 114:
        return residues.tolist()
    if not nonneg or int(top) * adds >= 2 ** 113:
        return None
    return [b + (r - b + 2 ** 63) % 2 ** 64 - 2 ** 63
            for r, b in zip(residues.tolist(), map(int, shadow.tolist()))]


def poch(f: PochFactor, order: Rat) -> QSeries:
    """Expand a single Pochhammer symbol to the given order."""
    return product([f], order)


def exponent_product(exps: dict, n: int, integral: bool = True) -> list:
    """The first n coefficients of prod over e >= 1 of (1 - q^e)^exps[e].

    This is the log-derivative recurrence of prodmake (Andrews, q-Series,
    CBMS 66, 1986, section 10.7) run forwards: q f'/f = sum_k g_k q^k with
    g_k = -sum_(e|k) e*exps[e], so c_0 = 1 and j c_j = sum_(k=1..j) g_k c_(j-k),
    about n^2/2 multiply-adds in all.  With integral exponents every c_j is
    an integer and each division is exact; otherwise the c_j are Fractions.
    """
    g = [0] * n
    for e, p in exps.items():
        if p and e < n:
            for k in range(e, n, e):
                g[k] -= e * p
    c = [1] if n else []
    for j in range(1, n):
        s = sum(map(mul, g[1:j + 1], c[::-1]))
        if integral:
            cj, r = divmod(s, j)
            assert not r, "log-derivative recurrence: inexact division"
        else:
            cj = _coeff(Fraction(s, j))
        c.append(cj)
    return c


def product(factors, order: Rat) -> QSeries:
    """Expand a product of Pochhammer symbols to the given order.

    A finite factor's rungs with negative exponent e fold out by
    1 - s*q^e = -s*q^e * (1 - s*q^-e) into one constant and one shift, so
    the window holds the exponents from 0 up to the order less that shift;
    ValueError refuses a window past MAX_WINDOW before it is allocated.
    Every rung in the window then goes into one map (sign, e) -> power, a
    rung at e = 0 into the constant.  A rung pass and a step of
    exponent_product each cost about one dense pass over the window, so the
    recurrence builds the product when the map holds more rung passes than
    the window has slots, with 1 + q^e = (1 - q^(2e)) / (1 - q^e), and rungs
    runs each entry once otherwise.
    """
    order = _frac(order)
    den = lcm(*(x.denominator for f in factors for x in (f.a, f.m)))
    const, shift, ladders = 1, 0, []
    for f in factors:
        f.check_convergent()
        s, a, m, p = f.sign, int(f.a * den), int(f.m * den), f.power
        k = 0 if f.length is None else min(f.length, max(0, -(a // m)))
        const *= (-s) ** (k * abs(p))
        shift += p * (k * a + m * k * (k - 1) // 2)
        ladders.append((s, a, m, p, k, f.length))
    n = max(ceil(order * den) - shift, 0)
    if n > MAX_WINDOW:
        raise ValueError(f"the product needs {n} window slots, more than {MAX_WINDOW}")
    rung_map: dict = {}
    for s, a, m, p, k, length in ladders:
        top = n if length is None else min(n, a + length * m)
        # the k folded rungs at -(a + j m), then the rungs from a + k m up
        for e in (*range(m - a - k * m, min(n, 1 - a), m), *range(a + k * m, top, m)):
            if e:
                rung_map[s, e] = rung_map.get((s, e), 0) + p
            elif p < 0:
                raise ValueError("cannot divide by the rung 1 - sign*q^0")
            else:
                const *= (1 - s) ** p
    if sum(map(abs, rung_map.values())) > n:
        exps: dict = {}
        for (s, e), p in rung_map.items():
            exps[e] = exps.get(e, 0) + s * p
            if s == -1:
                exps[2 * e] = exps.get(2 * e, 0) + p
        arr = np.array(exponent_product(exps, n), object)
    else:
        arr = np.zeros(n, object)
        arr[:1] = 1
        for (s, e), p in rung_map.items():
            rungs(arr, s, e, e, p, 0, 1)
    out = {shift + i: const * v for i, v in enumerate(arr.tolist()) if v}
    return QSeries(out, den, order).reduce()


# ---------------------------------------------------------------------------
# Named products
# ---------------------------------------------------------------------------

def J_factors(a: Rat, m: Rat, power: int = 1) -> tuple[PochFactor, ...]:
    """(q^a, q^(m-a), q^m; q^m)_inf as factors; requires 0 < a < m."""
    a = _frac(a)
    m = _frac(m)
    if not 0 < a < m:
        raise ValueError("J(a, m) needs 0 < a < m")
    return (pf(1, a, m, None, power), pf(1, m - a, m, None, power),
            pf(1, m, m, None, power))


def Jm_factors(m: Rat, power: int = 1) -> tuple[PochFactor, ...]:
    return (pf(1, _frac(m), _frac(m), None, power),)


def J(a: Rat, m: Rat, order: Rat) -> QSeries:
    return product(J_factors(a, m), order)


def Jm(m: Rat, order: Rat) -> QSeries:
    return product(Jm_factors(m), order)


def jacobi_triple(zexp: Rat, zsign: int, m: Rat, order: Rat) -> QSeries:
    """Bilateral sum over n of (-1)^n q^(m*n(n-1)/2) (zsign*q^zexp)^n.

    Equals the product (q^m, zsign*q^zexp, zsign*q^(m-zexp); q^m)_inf.
    """
    zexp = _frac(zexp)
    m = _frac(m)
    order = _frac(order)
    if m <= 0:
        raise ValueError("triple-product modulus must be positive")
    den = lcm(zexp.denominator, m.denominator)
    out: dict = {}
    vertex = Fraction(1, 2) - zexp / m
    for direction in (1, -1):
        n = 0 if direction == 1 else -1
        while True:
            e = m * n * (n - 1) / 2 + zexp * n
            if e < order:
                k = int(e * den)
                c = 1 if n % 2 == 0 else -zsign
                w = out.get(k, 0) + c
                if w:
                    out[k] = w
                else:
                    del out[k]
            elif (direction == 1 and n >= vertex) or (direction == -1 and n <= vertex):
                break
            n += direction
    return QSeries(out, den, order).reduce()


def eta_factors(exps: dict) -> tuple[PochFactor, ...]:
    """prod over moduli m of (q^m; q^m)_inf^exps[m] as factors."""
    factors = []
    for m, e in sorted(exps.items(), key=lambda kv: _frac(kv[0])):
        if _frac(m) <= 0:
            raise ValueError("moduli must be positive")
        if e:
            factors.append(pf(1, m, m, None, e))
    return tuple(factors)


def eta_quotient(exps: dict, order: Rat) -> QSeries:
    """prod over moduli m of (q^m; q^m)_inf^exps[m]."""
    return product(eta_factors(exps), order)


# ---------------------------------------------------------------------------
# Products with a formal parameter
# ---------------------------------------------------------------------------

def poch_param(sign: int, upow: int, a: Rat, m: Rat, order: Rat, deg: int,
               factors=()) -> ParamSeries:
    """(sign * u^upow * q^a; q^m)_inf times the fixed product of the
    PochFactors `factors`, as a ParamSeries with u-degree cap deg.

    By the q-binomial theorem (Andrews, The Theory of Partitions, Thm 2.1
    and Cor. 2.2) the u^(upow*k) row of the symbol is
        (-sign)^k q^(a*k + m*k(k-1)/2) / (q^m; q^m)_k,
    so each row is one product() call.  The parameter contributes no
    q-exponent, so upow >= 1 makes the symbol converge for every a >= 0.
    """
    a = _frac(a)
    m = _frac(m)
    order = _frac(order)
    if m <= 0:
        raise ValueError("step must be positive")
    if a < 0 or upow < 1 or any(f.a < 0 for f in factors):
        raise ValueError("parameter products need a >= 0 and upow >= 1, "
                         "and factors with a >= 0")
    rows = [QSeries.zero(order)] * (deg + 1)
    k, e = 0, Fraction(0)
    while e < order and upow * k <= deg:
        row = product((pf(1, m, m, k, -1), *factors), order - e)
        rows[upow * k] = row.shift(e).scale((-sign) ** k)
        k, e = k + 1, e + a + m * k
    return ParamSeries(rows)
