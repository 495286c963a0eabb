"""Exact arithmetic on truncated Puiseux series in q over the rationals.

A :class:`QSeries` stores exponents on the lattice (1/den)*Z as a sparse map
from integer numerators to exact rational coefficients, together with a
rational truncation order: the series is exact for every exponent strictly
below ``order`` and carries no information at or above it.  All operations
compute the tightest truncation order that the inputs can prove.

Coefficients are kept as plain ``int`` whenever they are integral (the
overwhelmingly common case) and as :class:`fractions.Fraction` otherwise;
the two interoperate exactly.

:class:`ParamSeries` extends the coefficient domain to polynomials in up to
two formal parameters u, v with nonnegative exponents and explicit degree
caps, supporting exact specialization u -> q^alpha, v -> q^beta.
"""

from __future__ import annotations

from fractions import Fraction
from math import ceil, floor, gcd, lcm
from typing import Iterator, NamedTuple, Optional, Union

from .errors import OrderTooLarge, ZeroLeadingTerm

Rat = Union[int, Fraction]

__all__ = [
    "QSeries", "ParamSeries", "Mismatch",
    "align", "eq_to_order", "substitute_params",
]


def _coeff(v: Rat) -> Rat:
    """Normalize a coefficient: integral Fractions become ints."""
    if isinstance(v, Fraction) and v.denominator == 1:
        return int(v)
    return v


def _frac(v) -> Fraction:
    return v if isinstance(v, Fraction) else Fraction(v)


class Mismatch(NamedTuple):
    """Smallest disagreeing coefficient of two series."""
    exponent: Fraction
    lhs: Fraction
    rhs: Fraction


class QSeries:
    """Truncated Puiseux series: sum of coeffs[k] * q^(k/den) for k/den < order."""

    __slots__ = ("den", "order", "coeffs")

    def __init__(self, coeffs: dict, den: int = 1, order: Rat = Fraction(0)):
        if den < 1:
            raise ValueError(f"den must be >= 1, got {den}")
        order = _frac(order)
        clean = {}
        for k, v in coeffs.items():
            if v == 0:
                continue
            if Fraction(k, den) >= order:
                raise ValueError(
                    f"coefficient at q^{Fraction(k, den)} is at or above order {order}")
            clean[k] = _coeff(v)
        self.den = den
        self.order = order
        self.coeffs = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, order: Rat) -> "QSeries":
        return cls({}, 1, order)

    @classmethod
    def const(cls, c: Rat, order: Rat) -> "QSeries":
        order = _frac(order)
        if order <= 0:
            return cls({}, 1, order)
        return cls({0: c}, 1, order)

    @classmethod
    def one(cls, order: Rat) -> "QSeries":
        return cls.const(1, order)

    @classmethod
    def monomial(cls, exp: Rat, coeff: Rat, order: Rat) -> "QSeries":
        exp = _frac(exp)
        order = _frac(order)
        if exp >= order:
            return cls({}, exp.denominator, order)
        return cls({exp.numerator: coeff}, exp.denominator, order)

    # -- inspection --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def lead(self) -> Optional[tuple[Fraction, Rat]]:
        """Smallest exponent with nonzero coefficient, or None if zero."""
        if not self.coeffs:
            return None
        k = min(self.coeffs)
        return Fraction(k, self.den), self.coeffs[k]

    def coeff(self, exp: Rat) -> Rat:
        e = _frac(exp)
        if e >= self.order:
            raise OrderTooLarge(f"exponent {e} is not below order {self.order}")
        k = e * self.den
        if k.denominator != 1:
            return 0
        return self.coeffs.get(int(k), 0)

    def items(self) -> Iterator[tuple[Fraction, Rat]]:
        """Iterate (exponent, coefficient) pairs in increasing exponent order."""
        for k in sorted(self.coeffs):
            yield Fraction(k, self.den), self.coeffs[k]

    def __repr__(self) -> str:
        parts = [f"{c}*q^({e})" for e, c in list(self.items())[:6]]
        if len(self.coeffs) > 6:
            parts.append("...")
        body = " + ".join(parts) if parts else "0"
        return f"QSeries({body}; O(q^{self.order}))"

    def __eq__(self, other) -> bool:
        if not isinstance(other, QSeries):
            return NotImplemented
        if self.order != other.order:
            return False
        a, b = align(self, other)
        return a.coeffs == b.coeffs

    def __hash__(self):
        a = self.reduce()
        return hash((a.den, a.order, tuple(sorted(a.coeffs.items()))))

    # -- structural ops ----------------------------------------------------

    def reduce(self) -> "QSeries":
        """Shrink den to the smallest lattice containing all exponents."""
        if self.den == 1:
            return self
        g = self.den
        for k in self.coeffs:
            g = gcd(g, k)
            if g == 1:
                return self
        if g == 1:
            return self
        return QSeries({k // g: v for k, v in self.coeffs.items()},
                       self.den // g, self.order)

    def with_den(self, den: int) -> "QSeries":
        if den == self.den:
            return self
        if den % self.den:
            raise ValueError(f"{den} is not a multiple of den {self.den}")
        f = den // self.den
        return QSeries({k * f: v for k, v in self.coeffs.items()}, den, self.order)

    def truncate(self, order: Rat) -> "QSeries":
        order = _frac(order)
        if order > self.order:
            raise OrderTooLarge(f"cannot extend order {self.order} to {order}")
        if order == self.order:
            return self
        bound = order * self.den
        return QSeries({k: v for k, v in self.coeffs.items() if k < bound},
                       self.den, order)

    # -- ring ops ----------------------------------------------------------

    def __add__(self, other: "QSeries") -> "QSeries":
        a, b = align(self, other)
        order = min(a.order, b.order)
        bound = order * a.den
        out = dict(a.coeffs)
        for k, v in b.coeffs.items():
            w = out.get(k, 0) + v
            if w:
                out[k] = w
            else:
                out.pop(k, None)
        return QSeries({k: v for k, v in out.items() if k < bound}, a.den, order)

    def __neg__(self) -> "QSeries":
        return QSeries({k: -v for k, v in self.coeffs.items()}, self.den, self.order)

    def __sub__(self, other: "QSeries") -> "QSeries":
        return self + (-other)

    def __mul__(self, other: "QSeries") -> "QSeries":
        a, b = align(self, other)
        # Unknown terms of a (exponent >= a.order) meet terms of b of exponent
        # >= lead(b), and vice versa; the product is provable strictly below both.
        la = a.lead()
        lb = b.lead()
        oa = a.order + (lb[0] if lb else b.order)
        ob = b.order + (la[0] if la else a.order)
        order = min(oa, ob)
        bound = order * a.den
        out: dict = {}
        if len(a.coeffs) > len(b.coeffs):
            a, b = b, a
        bitems = sorted(b.coeffs.items())
        for ka, va in a.coeffs.items():
            for kb, vb in bitems:
                k = ka + kb
                if k >= bound:
                    break
                w = out.get(k, 0) + va * vb
                if w:
                    out[k] = w
                else:
                    del out[k]
        return QSeries(out, a.den, order)

    def shift(self, e: Rat) -> "QSeries":
        """Multiply by q^e."""
        e = _frac(e)
        den = lcm(self.den, e.denominator)
        s = self.with_den(den)
        off = int(e * den)
        return QSeries({k + off: v for k, v in s.coeffs.items()}, den, s.order + e)

    def scale(self, r: Rat) -> "QSeries":
        """Multiply every coefficient by the rational r."""
        r = _coeff(_frac(r))
        if r == 0:
            return QSeries({}, 1, self.order)
        return QSeries({k: v * r for k, v in self.coeffs.items()}, self.den, self.order)

    def invert(self) -> "QSeries":
        """Multiplicative inverse, exact below order - 2*lead."""
        s = self.reduce()
        ld = s.lead()
        if ld is None:
            raise ZeroLeadingTerm("cannot invert a series that is zero to truncation")
        lam, c = ld
        order = s.order - 2 * lam
        # u = s / (c q^lam), a unit with u[0] = 1, known below s.order - lam
        n = ceil((s.order - lam) * s.den)
        base = int(lam * s.den)
        u = [0] * n
        for k, v in s.coeffs.items():
            i = k - base
            if i < n:
                u[i] = Fraction(v, 1) / c if c != 1 else v
        t = [0] * n
        t[0] = 1
        for i in range(1, n):
            acc = 0
            for j in range(1, i + 1):
                if u[j] and t[i - j]:
                    acc += u[j] * t[i - j]
            if acc:
                t[i] = -acc
        inv_c = _coeff(Fraction(1, 1) / _frac(c))
        out = {}
        bound = order * s.den
        for i, v in enumerate(t):
            if v:
                k = i - base
                if k < bound:
                    out[k] = _coeff(v * inv_c)
        return QSeries(out, s.den, order)

    def power(self, n: int) -> "QSeries":
        if n < 0:
            return self.invert().power(-n)
        if n == 0:
            return QSeries.one(self.order)
        result = None
        base = self
        while n:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if n:
                base = base * base
        return result

    # -- substitutions and dissections --------------------------------------

    def power_substitute(self, k: int) -> "QSeries":
        """Substitute q -> q^k for a positive integer k (exponent scaling)."""
        if k < 1:
            raise ValueError("power_substitute needs a positive integer")
        return QSeries({key * k: v for key, v in self.coeffs.items()},
                       self.den, self.order * k).reduce()

    def subst_neg(self) -> "QSeries":
        """Substitute q -> -q; requires an integer exponent lattice."""
        s = self.reduce()
        if s.den != 1:
            raise ValueError("q -> -q substitution needs integer exponents")
        return QSeries({k: (v if k % 2 == 0 else -v) for k, v in s.coeffs.items()},
                       1, s.order)

    def even_part(self) -> "QSeries":
        """Terms with even integer exponent (integer lattice only)."""
        s = self.reduce()
        if s.den != 1:
            raise ValueError("dissection needs integer exponents")
        return QSeries({k: v for k, v in s.coeffs.items() if k % 2 == 0}, 1, s.order)

    def odd_part(self) -> "QSeries":
        s = self.reduce()
        if s.den != 1:
            raise ValueError("dissection needs integer exponents")
        return QSeries({k: v for k, v in s.coeffs.items() if k % 2 == 1}, 1, s.order)


def align(s: QSeries, t: QSeries) -> tuple[QSeries, QSeries]:
    """Bring two series onto a common exponent lattice (lcm of dens)."""
    if s.den == t.den:
        return s, t
    den = lcm(s.den, t.den)
    return s.with_den(den), t.with_den(den)


def eq_to_order(s: QSeries, t: QSeries, order: Rat) -> Optional[Mismatch]:
    """Compare coefficients below `order`; None if equal, else smallest mismatch."""
    order = _frac(order)
    if order > s.order or order > t.order:
        raise OrderTooLarge(
            f"comparison order {order} exceeds provable orders "
            f"({s.order}, {t.order})")
    a, b = align(s, t)
    bound = order * a.den
    diff = [k for k in set(a.coeffs) | set(b.coeffs)
            if k < bound and a.coeffs.get(k, 0) != b.coeffs.get(k, 0)]
    if not diff:
        return None
    k = min(diff)
    return Mismatch(Fraction(k, a.den),
                    _frac(a.coeffs.get(k, 0)), _frac(b.coeffs.get(k, 0)))


# ---------------------------------------------------------------------------
# Series with formal parameters
# ---------------------------------------------------------------------------

Mono = tuple[int, int]        # (u-power, v-power), both >= 0


class ParamSeries:
    """Truncated Puiseux series whose coefficients are polynomials in u, v.

    coeffs maps integer exponent numerators to {(a, b): rational} polynomial
    dicts with 0 <= a <= udeg, 0 <= b <= vdeg.  Monomials whose degree would
    exceed a cap are discarded; the smallest q-exponent of any discarded
    monomial is remembered so that substitute() can attach a sound order.
    """

    __slots__ = ("den", "order", "udeg", "vdeg", "coeffs", "udrop", "vdrop")

    def __init__(self, coeffs: dict, den: int = 1, order: Rat = Fraction(0),
                 udeg: int = 0, vdeg: int = 0,
                 udrop: Optional[Fraction] = None, vdrop: Optional[Fraction] = None):
        order = _frac(order)
        self.den = den
        self.order = order
        self.udeg = udeg
        self.vdeg = vdeg
        self.udrop = udrop
        self.vdrop = vdrop
        clean: dict = {}
        for k, poly in coeffs.items():
            if Fraction(k, den) >= order:
                raise ValueError("monomial at or above truncation order")
            p = {}
            for (a, b), v in poly.items():
                if v == 0:
                    continue
                if a < 0 or b < 0:
                    raise ValueError("parameter powers must be nonnegative")
                if a > udeg or b > vdeg:
                    raise ValueError("parameter power above its cap")
                p[(a, b)] = _coeff(v)
            if p:
                clean[k] = p
        self.coeffs = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_qseries(cls, s: QSeries, udeg: int, vdeg: int) -> "ParamSeries":
        return cls({k: {(0, 0): v} for k, v in s.coeffs.items()},
                   s.den, s.order, udeg, vdeg)

    @classmethod
    def monomial(cls, exp: Rat, upow: int, vpow: int, coeff: Rat,
                 order: Rat, udeg: int, vdeg: int) -> "ParamSeries":
        exp = _frac(exp)
        if exp >= _frac(order):
            return cls({}, exp.denominator, order, udeg, vdeg)
        return cls({exp.numerator: {(upow, vpow): coeff}},
                   exp.denominator, order, udeg, vdeg)

    @classmethod
    def one(cls, order: Rat, udeg: int, vdeg: int) -> "ParamSeries":
        return cls.monomial(0, 0, 0, 1, order, udeg, vdeg)

    # -- helpers -----------------------------------------------------------

    def _caps_match(self, other: "ParamSeries"):
        if self.udeg != other.udeg or self.vdeg != other.vdeg:
            raise ValueError("degree caps differ")

    def with_den(self, den: int) -> "ParamSeries":
        if den == self.den:
            return self
        if den % self.den:
            raise ValueError("den must be a multiple")
        f = den // self.den
        return ParamSeries({k * f: dict(p) for k, p in self.coeffs.items()},
                           den, self.order, self.udeg, self.vdeg,
                           self.udrop, self.vdrop)

    def is_zero(self) -> bool:
        return not self.coeffs

    def lead_exponent(self) -> Optional[Fraction]:
        if not self.coeffs:
            return None
        return Fraction(min(self.coeffs), self.den)

    def __repr__(self):
        n = sum(len(p) for p in self.coeffs.values())
        return (f"ParamSeries({n} monomials; den={self.den}, "
                f"O(q^{self.order}), udeg={self.udeg}, vdeg={self.vdeg})")

    def __eq__(self, other):
        if not isinstance(other, ParamSeries):
            return NotImplemented
        if (self.order, self.udeg, self.vdeg) != (other.order, other.udeg, other.vdeg):
            return False
        a = self.with_den(lcm(self.den, other.den))
        b = other.with_den(a.den)
        return a.coeffs == b.coeffs

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "ParamSeries") -> "ParamSeries":
        self._caps_match(other)
        den = lcm(self.den, other.den)
        a, b = self.with_den(den), other.with_den(den)
        order = min(a.order, b.order)
        bound = order * den
        out = {k: dict(p) for k, p in a.coeffs.items() if k < bound}
        for k, poly in b.coeffs.items():
            if k >= bound:
                continue
            tgt = out.setdefault(k, {})
            for m, v in poly.items():
                w = tgt.get(m, 0) + v
                if w:
                    tgt[m] = w
                else:
                    tgt.pop(m, None)
        return ParamSeries(out, den, order, a.udeg, a.vdeg,
                           _min_drop(a.udrop, b.udrop), _min_drop(a.vdrop, b.vdrop))

    def __neg__(self) -> "ParamSeries":
        return self.scale(-1)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, r: Rat) -> "ParamSeries":
        r = _coeff(_frac(r))
        out = {k: {m: v * r for m, v in p.items()} for k, p in self.coeffs.items()}
        if r == 0:
            out = {}
        return ParamSeries(out, self.den, self.order, self.udeg, self.vdeg,
                           self.udrop, self.vdrop)

    def shift(self, e: Rat) -> "ParamSeries":
        e = _frac(e)
        den = lcm(self.den, e.denominator)
        s = self.with_den(den)
        off = int(e * den)
        return ParamSeries({k + off: dict(p) for k, p in s.coeffs.items()},
                           den, s.order + e, s.udeg, s.vdeg,
                           None if s.udrop is None else s.udrop + e,
                           None if s.vdrop is None else s.vdrop + e)

    def __mul__(self, other: "ParamSeries") -> "ParamSeries":
        self._caps_match(other)
        den = lcm(self.den, other.den)
        a, b = self.with_den(den), other.with_den(den)
        la = a.lead_exponent()
        lb = b.lead_exponent()
        oa = a.order + (lb if lb is not None else b.order)
        ob = b.order + (la if la is not None else a.order)
        order = min(oa, ob)
        bound = order * den
        udeg, vdeg = a.udeg, a.vdeg
        udrop = _min_drop(a.udrop, b.udrop)
        vdrop = _min_drop(a.vdrop, b.vdrop)
        out: dict = {}
        bitems = sorted(b.coeffs.items())
        for ka, pa in a.coeffs.items():
            for kb, pb in bitems:
                k = ka + kb
                if k >= bound:
                    break
                tgt = out.setdefault(k, {})
                for (a1, b1), v1 in pa.items():
                    for (a2, b2), v2 in pb.items():
                        au, bv = a1 + a2, b1 + b2
                        if au > udeg:
                            udrop = _min_drop(udrop, Fraction(k, den))
                            continue
                        if bv > vdeg:
                            vdrop = _min_drop(vdrop, Fraction(k, den))
                            continue
                        m = (au, bv)
                        w = tgt.get(m, 0) + v1 * v2
                        if w:
                            tgt[m] = w
                        else:
                            del tgt[m]
        out = {k: p for k, p in out.items() if p}
        return ParamSeries(out, den, order, udeg, vdeg, udrop, vdrop)

    def mul_qseries(self, s: QSeries) -> "ParamSeries":
        return self * ParamSeries.from_qseries(s, self.udeg, self.vdeg)

    # -- specialization ------------------------------------------------------

    def substitute(self, alpha: Rat, beta: Rat = 0) -> QSeries:
        """Specialize u -> q^alpha, v -> q^beta (alpha, beta >= 0).

        The attached order is the largest bound below which the retained
        monomials provably determine the substituted series: the base order,
        lowered to account for any monomials that were discarded at the
        degree caps.
        """
        alpha = _frac(alpha)
        beta = _frac(beta)
        if alpha < 0 or beta < 0:
            raise ValueError("substitution exponents must be nonnegative")
        order = self.order
        if self.udrop is not None:
            order = min(order, self.udrop + (self.udeg + 1) * alpha)
        if self.vdrop is not None:
            order = min(order, self.vdrop + (self.vdeg + 1) * beta)
        den = lcm(self.den, lcm(alpha.denominator, beta.denominator))
        bound = order * den
        f = den // self.den
        out: dict = {}
        for k, poly in self.coeffs.items():
            for (a, b), v in poly.items():
                e = k * f + int((a * alpha + b * beta) * den)
                if e >= bound:
                    continue
                w = out.get(e, 0) + v
                if w:
                    out[e] = w
                else:
                    del out[e]
        return QSeries(out, den, order).reduce()


def _min_drop(a: Optional[Fraction], b: Optional[Fraction]) -> Optional[Fraction]:
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


def substitute_params(p: ParamSeries, alpha: Rat, beta: Rat = 0) -> QSeries:
    return p.substitute(alpha, beta)


def eq_to_order_param(s: ParamSeries, t: ParamSeries, order: Rat):
    """Compare ParamSeries coefficient polynomials below `order`.

    Returns None on agreement, else (exponent, upow, vpow, lhs, rhs) of the
    smallest mismatching monomial.
    """
    order = _frac(order)
    if order > s.order or order > t.order:
        raise OrderTooLarge(
            f"comparison order {order} exceeds provable orders "
            f"({s.order}, {t.order})")
    den = lcm(s.den, t.den)
    a, b = s.with_den(den), t.with_den(den)
    bound = order * den
    for k in sorted(set(a.coeffs) | set(b.coeffs)):
        if k >= bound:
            break
        pa = a.coeffs.get(k, {})
        pb = b.coeffs.get(k, {})
        for m in sorted(set(pa) | set(pb)):
            va, vb = pa.get(m, 0), pb.get(m, 0)
            if va != vb:
                return (Fraction(k, den), m[0], m[1], _frac(va), _frac(vb))
    return None
