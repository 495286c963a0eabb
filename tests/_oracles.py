"""Independent brute-force oracles used to freeze expected values.

Everything here is deliberately naive and self-contained: partition counting
by recursion, series arithmetic by dictionary convolution over Fractions,
products by literal factor multiplication.  None of it shares code with the
package under test, except the last section: eta, the Weber functions and the
theta functions h and g as thin wrappers over modular's numeric kernels, so
that the tests check those kernels against the modular laws.
"""

import cmath
from fractions import Fraction
from functools import lru_cache
from math import ceil, floor

from nahm_forge.modular import (_check_eps, _check_tau, _ladder, _one_den,
                                _theta_series, qpow)


def partitions_from_parts(n: int, parts: tuple) -> int:
    """Number of partitions of n into parts drawn from `parts` (repeats allowed)."""
    parts = tuple(sorted(parts))

    @lru_cache(maxsize=None)
    def count(m, idx):
        if m == 0:
            return 1
        if idx == len(parts) or parts[idx] > m:
            return 0
        return count(m - parts[idx], idx) + count(m, idx + 1)

    return count(n, 0)


def partitions_distinct_from_parts(n: int, parts: tuple) -> int:
    """Partitions of n into distinct parts drawn from `parts`."""
    parts = tuple(sorted(parts))

    @lru_cache(maxsize=None)
    def count(m, idx):
        if m == 0:
            return 1
        if idx == len(parts) or parts[idx] > m:
            return 0
        return count(m - parts[idx], idx + 1) + count(m, idx + 1)

    return count(n, 0)


def partitions_gap2(n: int) -> int:
    """Partitions of n whose parts pairwise differ by at least 2."""

    @lru_cache(maxsize=None)
    def count(m, lo):
        if m == 0:
            return 1
        total = 0
        p = lo
        while p <= m:
            total += count(m - p, p + 2)
            p += 1
        return total

    return count(n, 1)


def partition_count(n: int) -> int:
    return partitions_from_parts(n, tuple(range(1, n + 1))) if n else 1


def pentagonal_coeffs(order: int) -> dict:
    """Coefficients of (q;q)_inf via the pentagonal number series."""
    out = {}
    k = 0
    while True:
        hit = False
        for s in (k, -k) if k else (0,):
            e = s * (3 * s - 1) // 2
            if e < order:
                out[e] = out.get(e, 0) + (-1) ** (s % 2)
                hit = True
        if not hit and k > 0:
            break
        k += 1
    return {k: v for k, v in out.items() if v}


def triple_product_coeffs(zexp: Fraction, zsign: int, m: Fraction, order: Fraction) -> dict:
    """Direct bilateral sum of (-1)^n q^(m n(n-1)/2) (zsign q^zexp)^n."""
    out = {}
    for n in range(-400, 401):
        e = Fraction(m) * n * (n - 1) / 2 + Fraction(zexp) * n
        if e < order:
            c = 1 if n % 2 == 0 else -zsign
            out[e] = out.get(e, 0) + c
    return {k: v for k, v in out.items() if v}


# -- a tiny independent series engine (dict exponent -> Fraction) -----------

def ser_mul(a: dict, b: dict, order: Fraction) -> dict:
    out = {}
    for ea, va in a.items():
        for eb, vb in b.items():
            e = ea + eb
            if e < order:
                out[e] = out.get(e, 0) + va * vb
    return {k: v for k, v in out.items() if v}


def ser_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for e, v in b.items():
        out[e] = out.get(e, 0) + v
    return {k: v for k, v in out.items() if v}


def ser_scale(a: dict, c) -> dict:
    return {e: v * c for e, v in a.items()} if c else {}


def ser_inv(a: dict, order: Fraction) -> dict:
    """Inverse of a series with nonzero constant term, to the given order."""
    assert min(a) == 0, "oracle inversion wants constant leading term"
    from math import ceil as _ceil
    from math import lcm as _lcm
    den = 1
    for e in list(a.keys()):
        den = _lcm(den, Fraction(e).denominator)
    n = _ceil(Fraction(order) * den)
    arr = [Fraction(0)] * n
    for e, v in a.items():
        idx = int(e * den)
        if 0 <= idx < n:
            arr[idx] = v
    res = [Fraction(0)] * n
    res[0] = 1 / arr[0]
    for k in range(1, n):
        s = Fraction(0)
        for j in range(1, k + 1):
            if arr[j] and res[k - j]:
                s += arr[j] * res[k - j]
        res[k] = -s / arr[0]
    return {Fraction(k, den): v for k, v in enumerate(res) if v}


def poch_naive(sign: int, a: Fraction, m: Fraction, length, order: Fraction) -> dict:
    """(sign q^a; q^m)_length by literal factor multiplication."""
    out = {Fraction(0): Fraction(1)}
    k = 0
    a = Fraction(a)
    m = Fraction(m)
    while (length is None and a + k * m < order) or (length is not None and k < length):
        e = a + k * m
        out = ser_mul(out, ser_add({Fraction(0): Fraction(1)}, {e: Fraction(-sign)}), order)
        k += 1
        if length is None and a + k * m >= order:
            break
    return out


def poch_param_naive(sign: int, upow: int, a, m, length, order, deg: int) -> dict:
    """(sign u^upow q^a; q^m)_length by literal multiplication of the
    binomials (1 - sign u^upow q^e), as a map from (u-power, exponent) to
    coefficient; a term of u-power above deg is discarded."""
    a, m, order = Fraction(a), Fraction(m), Fraction(order)
    out = {(0, Fraction(0)): Fraction(1)} if order > 0 else {}
    k = 0
    while (length is None or k < length) and a + k * m < order:
        e = a + k * m
        nxt = dict(out)
        for (p, x), v in out.items():
            if x + e >= order or p + upow > deg:
                continue
            key = (p + upow, x + e)
            nxt[key] = nxt.get(key, 0) - sign * v
        out = {key: v for key, v in nxt.items() if v}
        k += 1
    return out


def specialize(p, alpha):
    """The one-parameter series p at u = q^alpha, as the sum of
    p.rows[k].shift(k*alpha).  It is exact below p.order only when p's
    degree cap covers every grade below the order, so that no term of p was
    discarded; call it only there."""
    total = p.rows[0]
    for k, row in enumerate(p.rows[1:], 1):
        total = total + row.shift(k * alpha)
    return total


def nahm_naive(A, b, c, d, order, box: int, mask=None) -> dict:
    """Nahm sum by scanning an explicit box, fully naive arithmetic."""
    from itertools import product as iproduct
    r = len(d)
    A = [[Fraction(x) for x in row] for row in A]
    b = [Fraction(x) for x in b]
    c = Fraction(c)
    order = Fraction(order)
    total = {}
    for n in iproduct(range(box + 1), repeat=r):
        if mask is not None and any(p is not None and ni % 2 != p
                                    for p, ni in zip(mask, n)):
            continue
        e = c
        for i in range(r):
            for j in range(r):
                e += Fraction(A[i][j] * d[j], 2) * n[i] * n[j]
            e += b[i] * n[i]
        if e >= order:
            continue
        term = {e: Fraction(1)}
        for i in range(r):
            den = poch_naive(1, Fraction(d[i]), Fraction(d[i]), n[i], order - e)
            inv = ser_inv(den, order - e)
            term = ser_mul(term, inv, order)
        total = ser_add(total, term)
    return total


def nahm_param_naive(A, b, c, d, order, box: int, weights, deg: int,
                     mask=None) -> dict:
    """The Nahm sum carrying u^(weights . n), by scanning an explicit box, as
    a map from exponents to {u-power: coefficient}; a point whose u-power
    exceeds deg is left out."""
    from itertools import product as iproduct
    r = len(d)
    order = Fraction(order)
    by_pow = {}
    for n in iproduct(range(box + 1), repeat=r):
        if mask is not None and any(p is not None and ni % 2 != p
                                    for p, ni in zip(mask, n)):
            continue
        e = Fraction(c)
        for i in range(r):
            for j in range(r):
                e += Fraction(A[i][j]) * d[j] / 2 * n[i] * n[j]
            e += Fraction(b[i]) * n[i]
        ua = sum(w * x for w, x in zip(weights, n))
        if e >= order or ua > deg:
            continue
        term = {e: Fraction(1)}
        for i in range(r):
            den = poch_naive(1, Fraction(d[i]), Fraction(d[i]), n[i], order - e)
            term = ser_mul(term, ser_inv(den, order - e), order)
        by_pow[ua] = ser_add(by_pow.get(ua, {}), term)
    coeffs = {}
    for ua, ser in by_pow.items():
        for x, v in ser.items():
            coeffs.setdefault(x, {})[ua] = v
    return coeffs


def det_leibniz(m) -> Fraction:
    """Determinant by the Leibniz formula: the signed sum over permutations."""
    from itertools import permutations
    total = Fraction(0)
    for perm in permutations(range(len(m))):
        sign = (-1) ** sum(perm[i] > perm[j] for i in range(len(perm))
                           for j in range(i + 1, len(perm)))
        term = Fraction(sign)
        for i, j in enumerate(perm):
            term *= m[i][j]
        total += term
    return total


def solve_cramer(m, v) -> list:
    """m^-1 v by Cramer's rule, each component a ratio of Leibniz determinants."""
    det = det_leibniz(m)
    return [det_leibniz([[v[i] if j == k else x for j, x in enumerate(row)]
                         for i, row in enumerate(m)]) / det
            for k in range(len(m))]


def peel_naive(coeffs: dict, order, max_n: int) -> tuple:
    """Exponents a_1..a_max_n of q^delta * c * prod (1-q^n)^(a_n), by the
    literal peel: after dividing out the leading monomial, the q^n
    coefficient is -a_n once (1-q^m)^(a_m) is divided out for every m < n,
    so read it and divide (1-q^n)^(a_n) out by its generalized binomial
    series sum_k C(-a_n, k) (-q^n)^k.  `coeffs` maps integer exponents to
    coefficients; the series is known below `order`.
    """
    lead = min(e for e, v in coeffs.items() if v)
    n_slots = ceil(Fraction(order) - lead)
    c = Fraction(coeffs[lead])
    arr = [Fraction(0)] * n_slots
    for e, v in coeffs.items():
        arr[int(e - lead)] = Fraction(v) / c
    exps = []
    for n in range(1, min(max_n, n_slots - 1) + 1):
        a_n = -arr[n]
        exps.append(a_n)
        if a_n == 0:
            continue
        binom = [Fraction(1)]
        for k in range(1, (n_slots - 1) // n + 1):
            binom.append(binom[-1] * (-a_n - k + 1) / k * -1)
        terms = [(n * k, b) for k, b in enumerate(binom) if b]
        arr = [sum(b * arr[i - j] for j, b in terms if j <= i)
               for i in range(n_slots)]
    return tuple(exps)


# -- numeric theta series and products, one fresh exp per term --------------

def _nome_power(tau: complex, e: Fraction) -> complex:
    """exp(2 pi i tau e) for an exact rational e, the phase Re(tau) e reduced
    mod 1 in exact arithmetic before the exp."""
    size = cmath.exp(-2 * cmath.pi * tau.imag * float(e))
    if size == 0:
        return 0j
    turns = Fraction(tau.real) * e
    return size * cmath.exp(2j * cmath.pi * float(turns - floor(turns)))


def theta_naive(tau: complex, j, m, alternating: bool, cutoff: int = 80) -> tuple:
    """Sum over |k| <= cutoff of (-1)^k (if alternating) q^(m (k + j/2m)^2),
    each term by its own exp; returns (value, sum of |terms|)."""
    j, m = Fraction(j), Fraction(m)
    terms = [(-1 if alternating and k % 2 else 1) * _nome_power(tau, m * (k + j / (2 * m)) ** 2)
             for k in range(-cutoff, cutoff + 1)]
    return sum(terms), sum(abs(t) for t in terms)


def triple_naive(tau: complex, m, zexp, base_sign: int, z_sign: int,
                 cutoff: int = 80) -> tuple:
    """Sum over |n| <= cutoff of (-1)^n base_sign^C(n,2) z_sign^n
    q^(m n(n-1)/2 + zexp n); returns (value, sum of |terms|)."""
    m, zexp = Fraction(m), Fraction(zexp)
    terms = [(-1) ** n * base_sign ** (n * (n - 1) // 2) * z_sign ** n *
             _nome_power(tau, m * n * (n - 1) / 2 + zexp * n)
             for n in range(-cutoff, cutoff + 1)]
    return sum(terms), sum(abs(t) for t in terms)


def ladder_naive(tau: complex, sign: int, a, m, factors: int = 1000) -> tuple:
    """prod_{k < factors} (1 - sign q^(a+km)); returns (value, prod (1 + |q^(a+km)|))."""
    a, m = Fraction(a), Fraction(m)
    value, size = 1 + 0j, 1.0
    for k in range(factors):
        x = _nome_power(tau, a + k * m)
        value *= 1 - sign * x
        size *= 1 + abs(x)
    return value, size


# -- eta, Weber and theta functions on modular's numeric kernels ------------

_PLAIN = (1, 1, 1, 1)
_ALTERNATING = (1, -1, 1, -1)


@lru_cache(maxsize=256)
def _theta_quad(j, m) -> tuple:
    """m (n + j/2m)^2 = m n^2 + j n + j^2/4m over one denominator."""
    j, m = Fraction(j), Fraction(m)
    if m <= 0:
        raise ValueError(f"theta series need m > 0, got {m}")
    return _one_den(m, j, j * j / (4 * m))


def theta_sum(tau: complex, j, m, eps: float, alternating: bool) -> tuple:
    """Sum over k of q^(m (k + j/2m)^2), with sign (-1)^k if alternating, and
    its cutoff error, from modular._theta_series."""
    return _theta_series(tau, _theta_quad(j, m),
                         _ALTERNATING if alternating else _PLAIN, eps)


def eval_h(j, m, tau: complex, eps: float = 1e-16) -> complex:
    """h_(j,m): sum over k of q^(m (k + j/2m)^2)."""
    _check_eps(eps)
    return theta_sum(_check_tau(tau), j, m, eps, alternating=False)[0]


def eval_g(j, m, tau: complex, eps: float = 1e-16) -> complex:
    """g_(j,m): the alternating-sign companion of h_(j,m)."""
    _check_eps(eps)
    return theta_sum(_check_tau(tau), j, m, eps, alternating=True)[0]


def _scaled_ladder(tau: complex, eps: float, pre: float, sign: int,
                   a: float) -> complex:
    """q^pre prod_k (1 - sign q^(a+k)), from modular._ladder."""
    tau = _check_tau(tau)
    _check_eps(eps)
    return qpow(tau, pre) * _ladder(tau, sign, a, 1, eps)[0]


def eval_eta(tau: complex, eps: float = 1e-16) -> complex:
    """q^(1/24) (q; q)_inf."""
    return _scaled_ladder(tau, eps, 1 / 24, 1, 1)


def eval_weber_f(tau: complex, eps: float = 1e-16) -> complex:
    """q^(-1/48) (-q^(1/2); q)_inf."""
    return _scaled_ladder(tau, eps, -1 / 48, -1, 0.5)


def eval_weber_f1(tau: complex, eps: float = 1e-16) -> complex:
    """q^(-1/48) (q^(1/2); q)_inf."""
    return _scaled_ladder(tau, eps, -1 / 48, 1, 0.5)


def eval_weber_f2(tau: complex, eps: float = 1e-16) -> complex:
    """q^(1/24) (-q; q)_inf."""
    return _scaled_ladder(tau, eps, 1 / 24, -1, 1)
