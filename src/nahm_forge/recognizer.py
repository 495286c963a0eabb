"""Recover q^delta * const * prod_(n>=1) (1-q^n)^(a_n) representations from
series, detect eventual periodicity of the exponent sequence, and run the
grid search over offset vectors b that flags bounded-periodic product forms.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from math import ceil, lcm
from operator import mul
from typing import Optional, Sequence

from .errors import NotIntegralLattice, ZeroLeadingTerm
from .nahm import nahm_sum, quadruple
from .series import QSeries, Rat, _coeff, _frac

MIN_REPEATS = 3  # full periods an eventual period must show in the scan


@dataclass(frozen=True)
class ExponentProfile:
    """Peeled exponents of q^delta * const * prod (1-q^n)^(a[n-1]).

    delta and const describe the leading monomial in the variable the peel ran
    in; `substitution` records a q -> q^substitution normalization applied
    beforehand (1 if none).  `a` holds exact rationals; integrality is a
    property of nice product forms, not an assumption of the peel.
    """
    delta: Fraction
    const: Fraction
    a: tuple
    substitution: int = 1
    period: Optional[int] = None
    offset: int = 0

    def is_integral(self) -> bool:
        return all(x.denominator == 1 for x in self.a)

    def is_bounded(self, max_abs: int) -> bool:
        return all(abs(x) <= max_abs for x in self.a)

    def residue_table(self) -> Optional[list]:
        """Eventual a-value for each residue class 1..period (period class last)."""
        if self.period is None:
            return None
        a, p = self.a, self.period    # a[n - 1], n the last scanned n = r mod p
        return [a[len(a) - 1 - (len(a) - r) % p] for r in range(1, p + 1)]

    def rebuild(self, order: Rat) -> QSeries:
        """Reconstruct the series (in the peeled variable) from the profile.

        Exact below min(order, delta + len(a) + 1): the scanned exponents
        determine nothing beyond the last peeled index.  This is the peel's
        recurrence run backwards (exponent_product).
        """
        order = _frac(order, "the order")
        arr_order = min(order - self.delta, Fraction(len(self.a) + 1))
        exps = {d: _coeff(x) for d, x in enumerate(self.a, 1)}
        c = exponent_product(exps, max(ceil(arr_order), 0), self.is_integral())
        out = {k: v for k, v in enumerate(c) if v}
        return QSeries(out, 1, arr_order).shift(self.delta).scale(self.const)


def extract_profile(s: QSeries, max_n: int) -> ExponentProfile:
    """Peel a_1..a_max_n from a nonzero series on an integer lattice.

    After dividing out the leading monomial, exponents must be nonnegative
    integers (NotIntegralLattice otherwise); callers normalize fractional
    lattices with a q -> q^den substitution first.

    This is prodmake (Andrews, q-Series, CBMS 66, 1986, section 10.7): for
    f = c_0 prod (1-q^n)^(a_n) the log-derivative q f'/f = sum g_m q^m has
    g_m = -sum_(d|m) d a_d.  With the body scaled to integers C_k, the
    numbers G_m = c_0^m g_m obey G_m = m D_m - sum_(k<m) G_k D_(m-k), where
    D_j = C_j c_0^(j-1), so the pass runs in integers; a sieve over the
    divisors then inverts the divisor sum exactly.
    """
    s = s.reduce()
    ld = s.lead()
    if ld is None:
        raise ZeroLeadingTerm("cannot profile a series that is zero to truncation")
    if s.den != 1:
        raise NotIntegralLattice(f"exponent lattice has denominator {s.den}")
    delta, const = ld
    n_max = max(min(max_n, ceil(s.order - delta) - 1), 0)
    base = int(delta)
    scale = lcm(*(v.denominator for v in s.coeffs.values()))
    C = [0] * (n_max + 1)
    for k, v in s.coeffs.items():
        if k - base <= n_max:
            C[k - base] = int(v * scale)
    c0 = C[0]
    D = [0] * (n_max + 1)
    G = [0] * (n_max + 1)
    for m in range(1, n_max + 1):
        D[m] = C[m] * c0 ** (m - 1)
        G[m] = m * D[m] - sum(map(mul, G[1:m], D[m - 1:0:-1]))
    # B_m = m a_m c_0^n_max has divisor sums sum_(d|m) B_d = -G_m c_0^(n_max-m);
    # Moebius inversion as a sieve: subtract each B_d from its proper multiples
    B = [-G[m] * c0 ** (n_max - m) for m in range(n_max + 1)]
    for d in range(1, n_max + 1):
        for m in range(2 * d, n_max + 1, d):
            B[m] -= B[d]
    top = c0 ** n_max
    a = tuple(Fraction(B[m], m * top) for m in range(1, n_max + 1))
    return ExponentProfile(delta, _frac(const, "the leading coefficient"), a)


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


def with_period(profile: ExponentProfile) -> ExponentProfile:
    """Copy of the profile carrying the smallest eventual period (if any).

    A period p qualifies when a_n = a_(n+p) for all n past some offset that
    is at most half the scan (else a run of equal values at its end reads
    as period 1) and still leaves at least MIN_REPEATS full periods in it.
    """
    a = profile.a
    length = len(a)
    for p in range(1, length // MIN_REPEATS + 1):
        bad = -1
        for i in range(length - p - 1, -1, -1):
            if a[i] != a[i + p]:
                bad = i
                break
        offset = bad + 1
        if offset <= min(length // 2, length - MIN_REPEATS * p):
            return replace(profile, period=p, offset=offset)
    return profile


def normalize_and_profile(s: QSeries, max_n: int) -> ExponentProfile:
    """Profile a series, substituting q -> q^den first when needed."""
    s = s.reduce()
    sub = s.den
    if sub > 1:
        s = s.power_substitute(sub)
    prof = extract_profile(s, max_n)
    if sub > 1:
        prof = replace(prof, substitution=sub)
    return prof


@dataclass(frozen=True)
class HuntHit:
    b: tuple
    profile: ExponentProfile
    order_checked: int

    def to_json(self) -> dict:
        return {"b": [str(x) for x in self.b],
                "delta": str(self.profile.delta / self.profile.substitution),
                "const": str(self.profile.const),
                "period": self.profile.period,
                "residue_exponents": [int(x) for x in self.profile.residue_table()],
                "order_checked": self.order_checked}


def hunt(A, d, b_grid: Sequence, order: Rat, max_n: Optional[int] = None,
         max_abs: int = 4) -> list[HuntHit]:
    """Evaluate the sum at c = 0 for every b in the grid and report the b
    whose peeled exponent sequence is integral, bounded by max_abs, and
    eventually periodic."""
    order = _frac(order, "the order")
    hits = []
    for b in b_grid:
        quad = quadruple(A, b, 0, d)
        s = nahm_sum(quad, order).reduce()
        if s.is_zero():
            continue
        navail = ceil((s.order - s.lead()[0]) * s.den) - 1
        n_scan = navail if max_n is None else min(max_n, navail)
        prof = normalize_and_profile(s, n_scan)
        if not prof.is_integral() or not prof.is_bounded(max_abs):
            continue
        prof = with_period(prof)
        if prof.period is None:
            continue
        hits.append(HuntHit(quad.b, prof, len(prof.a)))
    return hits
