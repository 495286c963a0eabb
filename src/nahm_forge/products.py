"""Product-side constructors: q-Pochhammer symbols, J-notation, eta quotients,
and Jacobi-triple bilateral sums, all as exact :class:`QSeries`.

Every factor is a ladder of binomials (1 - sign*q^(a+k*m)), one PochFactor
in products and in the Nahm sums alike; multiplying or dividing a dense
coefficient window by one binomial is one O(length) pass of rungs, the
kernel the Nahm sums share.  product() puts every rung into a map
e -> power of (1 - q^e) or of 1 + q^e; the ladders that run to the window
top pair into theta functions J_(r,M) and eta factors (q^M; q^M)_inf, as
sparse Jacobi-triple-product series, and the rest runs on rungs.  The plan
(_window; a single sum's fixed factors start from the sum's window) ends in
a numerator window over a divisor of thetas, which _divide divides out.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil, gcd, isfinite, lcm, prod
from typing import Optional

import numpy as np

from .errors import Divergent
from .series import ParamSeries, QSeries, Rat, _coeff, _frac

MAX_WINDOW = 2 ** 24  # most dense slots, over all rows, that a sum or product may hold


def _check_window(lead: str, *sizes: int):
    """ValueError if a window of these sizes holds more than MAX_WINDOW
    slots; lead opens the message, e.g. "the product needs"."""
    if prod(sizes) > MAX_WINDOW:
        raise ValueError(f"{lead} {' x '.join(map(str, sizes))} window slots, "
                         f"more than {MAX_WINDOW}")


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
        for name in ("length", "power", "per_n"):
            v = getattr(self, name)
            if type(v) is not int and not (v is None and name == "length"):
                raise ValueError(f"{name} must be an int, not {v!r}")
        object.__setattr__(self, "a", _frac(self.a, "base a"))
        object.__setattr__(self, "m", _frac(self.m, "step m"))
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
    return PochFactor(sign, a, m, length, power, per_n)


def neg_base_pair(sign: int, a: Rat, m: Rat) -> tuple[PochFactor, PochFactor]:
    """(sign*q^a; -q^m)_inf rewritten over the base q^(2m).

    Splitting even and odd rungs gives
    (x; -q^m)_inf = (x; q^(2m))_inf * (-x*q^m; q^(2m))_inf.
    """
    a, m = _frac(a, "base a"), _frac(m, "step m")
    return pf(sign, a, 2 * m), pf(-sign, a + m, 2 * m)


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
    places the residues, running int64 only if it can, and past that the
    run repeats on Python ints."""
    with np.errstate(over="ignore"):
        shadow, adds = run(np.float64)
        top = float(shadow.max(initial=0.0))
        small = top < 2 ** 53 and (int(top) + 1) * (2 ** 51 + adds) <= 2 ** 104
        residues = shadow.astype(np.int64) if nonneg and small else lambda: run(np.int64)[0]
        flat = exact_row(residues, shadow.ravel(), adds, nonneg)
    return run(object)[0].ravel().tolist() if flat is None else flat


def exact_row(residues, shadow, adds: int, nonneg: bool = True):
    """x from exact_run's int64 residues (or a function that runs them, only
    called if they are used) and float64 shadow f: the residues while
    f (1 + adds 2^-51) < 2^63 everywhere, or, sign-free (x = x*), the
    integer of their class mod 2^64 nearest f while the bound is below 2^62;
    else, or if f is not finite, None."""
    top = float(shadow.max(initial=0.0))
    if not isfinite(top) or adds >= 2 ** 51:
        return None
    near = (int(top) + 1) * (2 ** 51 + adds) > 2 ** 114
    if near and (not nonneg or int(top) * adds >= 2 ** 113):
        return None
    residues = (residues() if callable(residues) else residues).ravel().tolist()
    return [b + (r - b + 2 ** 63) % 2 ** 64 - 2 ** 63
            for r, b in zip(residues, map(int, shadow.tolist()))] if near else residues


def poch(f: PochFactor, order: Rat) -> QSeries:
    """Expand a single Pochhammer symbol to the given order."""
    return product([f], order)


def product(factors, order: Rat) -> QSeries:
    """Expand a product of Pochhammer symbols to the given order.

    A finite factor's rungs with negative exponent e fold out by
    1 - s*q^e = -s*q^e * (1 - s*q^-e) into one constant and one shift; the
    window holds the exponents from 0 up to the order less that shift, on
    the grid of the gcd g of every a and m, and ValueError refuses one past
    MAX_WINDOW before it is allocated.  Every rung in the window goes into
    one map e -> power of (1 - q^e) or one of 1 + q^e, and a rung at e = 0
    into the constant.  A ladder that runs to the window top is there the
    same as an infinite one, and if it starts in the lower half (from
    higher up, its class would put back more rungs below it than it takes
    out) then by the Jacobi triple product (Andrews, The Theory of
    Partitions, 1976, Thm 2.8) such ladders of step M, a ladder of
    1 + q^e as (1 - q^2e)/(1 - q^e), are, as far as residues r and M - r
    share a power, powers of J_(r,M) = (q^r, q^(M-r), q^M; q^M)_inf and of
    eta factors (q^M; q^M)_inf = J_(M,3M), each a sparse series of about
    2 sqrt(2n/M) terms below the window top n (see _thetas).  The maps less
    their rungs run on rungs, and the theta series then multiply by slice
    adds or, as the divisor, divide by an exact sweep (_divide).
    """
    order = _frac(order, "the order")
    return _series(_divide(*_window(factors, order)), order)


def _series(window: tuple, order: Fraction) -> QSeries:
    """The QSeries below order of the window (den, shift, g, values)."""
    den, shift, g, values = window
    return QSeries({shift + i * g: v for i, v in enumerate(values) if v}, den, order).reduce()


def _window(factors, order: Fraction, start: tuple = (1, 0, 1, (1,))) -> tuple:
    """(window, divisor): product(factors, order), times the window start
    (exact below order less the shift of the folds), is the window
    (den, shift, g, values), the sum of values[i] q^((shift + i*g)/den), over
    the divisor {(z, M): t > 0}, the product of the J_(z,M)^t (z, M in q).  den
    makes every a, m and exponent of start an integer; g is the gcd of those
    a and m and of the exponents of start less its least, where it starts."""
    s_den, s_shift, s_g, s_values = start
    den = lcm(s_den, *(x.denominator for f in factors for x in (f.a, f.m)))
    terms = {(s_shift + i * s_g) * (den // s_den): v for i, v in enumerate(s_values) if v}
    low = min(terms, default=0)
    const, shift, ladders = 1, low, []
    for f in factors:
        f.check_convergent()
        s, a, m, p = f.sign, int(f.a * den), int(f.m * den), f.power
        k = 0 if f.length is None else min(f.length, max(0, -(a // m)))
        const *= (-s) ** (k * abs(p))
        shift += p * (k * a + m * k * (k - 1) // 2)
        ladders.append((s, a, m, p, k, f.length))
    g = gcd(*(x for ladder in ladders for x in ladder[1:3]), *(k - low for k in terms)) or 1
    n = max(-((shift - ceil(order * den)) // g), 0)
    _check_window("the product needs", n)
    # powers[e], plus[e]: of 1 - q^e and of 1 + q^e; groups: M -> r -> power
    powers, plus, groups = np.zeros(n, object), np.zeros(n, object), {}
    for s, a, m, p, k, length in ladders:
        a, m = a // g, m // g
        top = n if length is None else min(n, a + length * m)
        b = a + k * m           # k rungs fold to -(a + j m), the rest run from b
        if b == 0 < top:        # the rung 1 - s*q^0 goes into the constant
            if p < 0:
                raise ValueError("cannot divide by the rung 1 - sign*q^0")
            const, b = const * (1 - s) ** p, m
        if k:                   # the folded rungs, reflected
            (powers if s == 1 else plus)[m - a - k * m:1 - a:m] += p
        if not top == n > 2 * b - b % m:       # not from the lower half to the top
            (powers if s == 1 else plus)[b:top:m] += p
            continue
        if s == -1:             # 1 + q^e = (1 - q^2e)/(1 - q^e)
            powers[2 * b:2 * top:2 * m] += p
        powers[b:top:m] += s * p
        for b, M, x in ((b, m, p),) if s == 1 else ((2 * b, 2 * m, p), (b, m, -p)):
            group = groups.setdefault(M, {})
            group[b % M] = group.get(b % M, 0) + x
    thetas = _thetas(groups, powers)
    arr = np.zeros(n, object)
    for k, v in terms.items():
        if (i := (k - low) // g) < n:
            arr[i] = v * const
    for e in np.flatnonzero(powers).tolist():
        rungs(arr, 1, e, e, int(powers[e]), 0, 1)
    for e in np.flatnonzero(plus).tolist():
        rungs(arr, -1, e, e, int(plus[e]), 0, 1)
    _times(arr, [(z, M, t) for (z, M), t in thetas.items() if t > 0])
    q = Fraction(g, den)        # a grid step, in q
    return (den, shift, g, arr), {(z * q, M * q): -t for (z, M), t in thetas.items() if t < 0}


def _thetas(groups: dict, powers) -> dict:
    """The theta factors {(z, M): power of J_(z,M)}, on the grid of powers, of
    the ladders grouped by step M into residue -> power; their rungs are taken
    out of powers.  J_(r,M)^t takes the power t that residues r and M - r share
    (0 < r < M/2), and (q^(M/2); q^(M/2)) and (q^M; q^M), as J_(M,3M), take
    residues M/2 and 0, merged over all steps; what is left of a ladder that
    starts above its residue, or of an unshared residue, stays in powers."""
    eta, thetas = {}, {}
    for M, x in groups.items():
        half = x.get(M // 2, 0) if M % 2 == 0 else 0
        eta[M] = eta.get(M, 0) + x.get(0, 0) - half
        eta[M // 2] = eta.get(M // 2, 0) + half
        for r, y in x.items():
            z = x.get(M - r, 0) if 0 < 2 * r < M else 0
            t = (min(y, z) if y > 0 else max(y, z)) if y * z > 0 else 0
            if t:
                thetas[r, M] = t
                eta[M] -= t
    for M, y in eta.items():    # J_(M,3M) may also be some J_(r,3r)
        if y:
            thetas[M, 3 * M] = thetas.get((M, 3 * M), 0) + y
    for (z, M), y in thetas.items():    # J_(z,M) has the rungs z, M - z and 0 mod M
        for e in (z, M - z, M):
            powers[e::M] -= y
    return thetas


def _times(arr, thetas: list):
    """arr times J_(z,M)^t, t > 0, for (z, M, t) in thetas, one slice add a term."""
    n = len(arr)
    for z, M, t in thetas:
        terms = sorted(_triple_terms(z, 1, M, n))[1:]     # all but the constant 1
        for _ in range(t):
            src = arr.copy()
            for e, c in terms:
                (np.add if c > 0 else np.subtract)(arr[e:], src[:n - e], out=arr[e:])


def _divide(window: tuple, divisor: dict) -> tuple:
    """The window, values as a list, over its divisor: each theta has constant
    term 1, so slot i is itself less the terms below it, one slot at a time."""
    den, shift, g, values = window
    values, n = values.tolist(), len(values)
    for (z, M), t in divisor.items():
        terms = sorted(_triple_terms(int(z * den) // g, 1, int(M * den) // g, n))[1:]
        plus, minus = ([e for e, c in terms if c == sign] for sign in (1, -1))
        for _ in range(t):
            for i in range(1, n):
                v = values[i]
                for e in minus:
                    if e > i:
                        break
                    v += values[i - e]
                for e in plus:
                    if e > i:
                        break
                    v -= values[i - e]
                values[i] = v
    return den, shift, g, values


def _combine(parts, order: Fraction) -> tuple:
    """(window, divisor) below order of the sum of coeff q^shift window /
    divisor over parts (coeff, shift, window, divisor): the lcm of their
    divisors over their windows on one grid, each times the thetas its own
    divisor lacks, by slice adds.  ValueError refuses a grid past MAX_WINDOW."""
    divisor = {key: max(d.get(key, 0) for *_, d in parts) for *_, d in parts for key in d}
    keys = [x for key in divisor for x in key]
    den = lcm(*(w[0] * s.denominator for _, s, w, _ in parts), *(x.denominator for x in keys))
    starts = [int(s * den) + w[1] * den // w[0] for _, s, w, _ in parts]
    low = min(starts, default=0)
    g = gcd(*(k - low for k in starts), *(w[2] * den // w[0] for _, _, w, _ in parts),
            *(int(x * den) for x in keys)) or 1
    n = max(-((low - ceil(order * den)) // g), 0)
    _check_window("the terms need", n)
    total = np.zeros(n, object)
    for (coeff, _, (d0, _, g0, values), d), start in zip(parts, starts):
        arr = np.zeros(n, object)
        dst = arr[(start - low) // g::g0 * den // d0 // g]
        dst[:len(values)] = values[:len(dst)]
        _times(arr, [(int(z * den) // g, int(M * den) // g, t - d.get((z, M), 0))
                     for (z, M), t in divisor.items() if t > d.get((z, M), 0)])
        total += arr * _coeff(coeff)
    return (den, low, g, total), divisor


# ---------------------------------------------------------------------------
# Named products
# ---------------------------------------------------------------------------

def J_factors(a: Rat, m: Rat, power: int = 1) -> tuple[PochFactor, ...]:
    """(q^a, q^(m-a), q^m; q^m)_inf as factors; requires 0 < a < m."""
    a, m = _frac(a, "a"), _frac(m, "m")
    if not 0 < a < m:
        raise ValueError("J(a, m) needs 0 < a < m")
    return (pf(1, a, m, None, power), pf(1, m - a, m, None, power),
            pf(1, m, m, None, power))


def Jm_factors(m: Rat, power: int = 1) -> tuple[PochFactor, ...]:
    return (pf(1, m, m, None, power),)


def J(a: Rat, m: Rat, order: Rat) -> QSeries:
    return product(J_factors(a, m), order)


def Jm(m: Rat, order: Rat) -> QSeries:
    return product(Jm_factors(m), order)


def _triple_terms(z: int, zsign: int, m: int, n: int) -> list:
    """The terms (e, c), e < n, of the sum over k of (-1)^k q^(m k(k-1)/2)
    (zsign q^z)^k, one per k out from the vertex k = 1/2 - z/m; with
    zsign = 1 it is J_(z,m), and J_(M,3M) = (q^M; q^M)_inf is pentagonal."""
    out = []
    for step, k in ((1, 0), (-1, -1)):
        while True:
            e = m * k * (k - 1) // 2 + z * k
            if e < n:
                out.append((e, 1 if k % 2 == 0 else -zsign))
            elif step * (m * (2 * k - 1) + 2 * z) >= 0:
                break
            k += step
    return out


def jacobi_triple(zexp: Rat, zsign: int, m: Rat, order: Rat) -> QSeries:
    """Bilateral sum over n of (-1)^n q^(m*n(n-1)/2) (zsign*q^zexp)^n.

    Equals the product (q^m, zsign*q^zexp, zsign*q^(m-zexp); q^m)_inf.
    """
    zexp, m, order = _frac(zexp, "zexp"), _frac(m, "m"), _frac(order, "the order")
    if m <= 0:
        raise ValueError("triple-product modulus must be positive")
    den = lcm(zexp.denominator, m.denominator)
    out: dict = {}
    for k, c in _triple_terms(int(zexp * den), zsign, int(m * den), ceil(order * den)):
        out[k] = out.get(k, 0) + c
    return QSeries(out, den, order).reduce()


def eta_factors(exps: dict) -> tuple[PochFactor, ...]:
    """prod over moduli m of (q^m; q^m)_inf^exps[m] as factors."""
    factors = []
    for m, e in sorted((_frac(m, "a modulus"), e) for m, e in exps.items()):
        if m <= 0:
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

def poch_param(sign: int, a: Rat, m: Rat, order: Rat, deg: int,
               factors=()) -> ParamSeries:
    """(sign * u * q^a; q^m)_inf times the fixed product of the PochFactors
    `factors`, as a ParamSeries with u-degree cap deg.

    By the q-binomial theorem (Andrews, The Theory of Partitions, Thm 2.1
    and Cor. 2.2) the u^k row of the symbol is
        (-sign)^k q^(a*k + m*k(k-1)/2) / (q^m; q^m)_k,
    so the fixed product is expanded once and each row is the one before
    divided by 1 - q^(k*m) (one rung pass).  The parameter contributes no
    q-exponent, so the symbol converges for every a >= 0.
    """
    a, m, order = _frac(a, "base a"), _frac(m, "step m"), _frac(order, "the order")
    if m <= 0:
        raise ValueError("step must be positive")
    if a < 0 or any(f.a < 0 for f in factors):
        raise ValueError("parameter products need a >= 0, and factors with a >= 0")
    if deg < 0:
        raise ValueError(f"the u-degree cap must be nonnegative, not {deg}")
    rows = [QSeries.zero(order)] * (deg + 1)
    if order <= 0:
        return ParamSeries(rows)
    # a zero-length (q^m; q^m) puts the rungs of every row on the window's grid
    den, shift, g, window = _divide(*_window((pf(1, m, m, 0), *factors), order))
    window, k, e = np.array(window, object), 0, Fraction(0)
    while e < order and k <= deg:
        # row k is row k-1 divided by 1 - q^(k m), both cut at order - e
        window = window[:max(-((shift - ceil((order - e) * den)) // g), 0)]
        if k:
            rungs(window, 1, int(k * m * den) // g, int(k * m * den) // g, -1, 0, 1)
        row = _series((den, shift, g, window.tolist()), order - e)
        rows[k] = row.shift(e).scale((-sign) ** k)
        k, e = k + 1, e + a + m * k
    return ParamSeries(rows)
