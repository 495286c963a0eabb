"""Exact arithmetic on truncated Puiseux series in q over the rationals.

A :class:`QSeries` stores exponents on the lattice (1/den)*Z as a sparse map
from integer numerators to exact rational coefficients, together with a
rational truncation order: the series is exact for every exponent strictly
below ``order`` and carries no information at or above it.  All operations
compute the tightest truncation order that the inputs can prove.

Coefficients are kept as plain ``int`` whenever they are integral (the
overwhelmingly common case) and as :class:`fractions.Fraction` otherwise;
the two interoperate exactly.

:class:`ParamSeries` extends the coefficient domain to polynomials in one
formal parameter u with an explicit degree cap, stored as one QSeries per
power of u, with the product and row-by-row comparison the registry needs.
"""

from __future__ import annotations

from fractions import Fraction
from math import ceil, gcd, lcm
from typing import Iterator, NamedTuple, Optional, Union

from .errors import OrderTooLarge, ZeroLeadingTerm

Rat = Union[int, Fraction]

__all__ = [
    "QSeries", "ParamSeries", "Mismatch",
    "align", "eq_to_order",
]


def _coeff(v: Rat) -> Rat:
    """Normalize a coefficient: integral Fractions become ints."""
    if type(v) is Fraction and v.denominator == 1:
        return int(v)
    return v


def _frac(v, what: str) -> Fraction:
    """v as a Fraction, the one gate an exact value enters by: a float or a
    bool is refused (its binary value is no rational meant); what names v."""
    if type(v) is Fraction:
        return v
    if isinstance(v, (float, bool)):
        raise ValueError(f"{what} must be an int, Fraction or rational string, not "
                         f"the {'bool' if isinstance(v, bool) else 'float'} {v!r}")
    return Fraction(v)


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
        order = _frac(order, "the order")
        top = ceil(order * den)     # integer keys k lie below order iff k < top
        clean = {}
        for k, v in coeffs.items():
            if v == 0:
                continue
            if k >= top:
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
        order = _frac(order, "the order")
        if order <= 0:
            return cls({}, 1, order)
        return cls({0: c}, 1, order)

    @classmethod
    def one(cls, order: Rat) -> "QSeries":
        return cls.const(1, order)

    @classmethod
    def monomial(cls, exp: Rat, coeff: Rat, order: Rat) -> "QSeries":
        exp = _frac(exp, "the exponent")
        order = _frac(order, "the order")
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
        e = _frac(exp, "the exponent")
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
        order = _frac(order, "the order")
        if order > self.order:
            raise OrderTooLarge(f"cannot extend order {self.order} to {order}")
        if order == self.order:
            return self
        top = ceil(order * self.den)
        return QSeries({k: v for k, v in self.coeffs.items() if k < top},
                       self.den, order)

    # -- ring ops ----------------------------------------------------------

    def __add__(self, other: "QSeries") -> "QSeries":
        a, b = align(self, other)
        order = min(a.order, b.order)
        top = ceil(order * a.den)
        out = dict(a.coeffs)
        for k, v in b.coeffs.items():
            w = out.get(k, 0) + v
            if w:
                out[k] = w
            else:
                out.pop(k, None)
        return QSeries({k: v for k, v in out.items() if k < top}, a.den, order)

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
        top = ceil(order * a.den)
        out: dict = {}
        if len(a.coeffs) > len(b.coeffs):
            a, b = b, a
        bitems = sorted(b.coeffs.items())
        for ka, va in a.coeffs.items():
            for kb, vb in bitems:
                k = ka + kb
                if k >= top:
                    break
                w = out.get(k, 0) + va * vb
                if w:
                    out[k] = w
                else:
                    del out[k]
        return QSeries(out, a.den, order)

    def shift(self, e: Rat) -> "QSeries":
        """Multiply by q^e."""
        e = _frac(e, "the shift")
        den = lcm(self.den, e.denominator)
        s = self.with_den(den)
        off = int(e * den)
        return QSeries({k + off: v for k, v in s.coeffs.items()}, den, s.order + e)

    def scale(self, r: Rat) -> "QSeries":
        """Multiply every coefficient by the rational r."""
        r = _coeff(_frac(r, "the scale"))
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
        inv_c = _coeff(Fraction(1) / c)
        out = {}
        top = ceil(order * s.den)
        for i, v in enumerate(t):
            if v:
                k = i - base
                if k < top:
                    out[k] = _coeff(v * inv_c)
        return QSeries(out, s.den, order)

    # -- substitutions ------------------------------------------------------

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


def align(s: QSeries, t: QSeries) -> tuple[QSeries, QSeries]:
    """Bring two series onto a common exponent lattice (lcm of dens)."""
    if s.den == t.den:
        return s, t
    den = lcm(s.den, t.den)
    return s.with_den(den), t.with_den(den)


def eq_to_order(s: QSeries, t: QSeries, order: Rat) -> Optional[Mismatch]:
    """Compare coefficients below `order`; None if equal, else smallest mismatch."""
    order = _frac(order, "the order")
    if order > s.order or order > t.order:
        raise OrderTooLarge(
            f"comparison order {order} exceeds provable orders "
            f"({s.order}, {t.order})")
    a, b = align(s, t)
    top = ceil(order * a.den)
    diff = [k for k in set(a.coeffs) | set(b.coeffs)
            if k < top and a.coeffs.get(k, 0) != b.coeffs.get(k, 0)]
    if not diff:
        return None
    k = min(diff)
    return Mismatch(Fraction(k, a.den),
                    _frac(a.coeffs.get(k, 0), "lhs"), _frac(b.coeffs.get(k, 0), "rhs"))


# ---------------------------------------------------------------------------
# Series with a formal parameter
# ---------------------------------------------------------------------------

class ParamSeries:
    """Truncated Puiseux series whose coefficients are polynomials in u.

    rows[a] is the QSeries coefficient of u^a for 0 <= a <= deg, and every
    row has the common truncation order.  Terms of u-degree above the cap
    deg are discarded.
    """

    __slots__ = ("rows", "order")

    def __init__(self, rows: list):
        order = rows[0].order
        if any(r.order != order for r in rows):
            raise ValueError("rows must share one truncation order")
        self.rows = rows
        self.order = order

    @classmethod
    def polynomial(cls, rows: list, deg: int) -> "ParamSeries":
        """sum of rows[a] * u^a for a <= deg (as __mul__, it drops the rest)."""
        return cls(list(rows[:deg + 1])
                   + [QSeries.zero(rows[0].order)] * (deg + 1 - len(rows)))

    @property
    def deg(self) -> int:
        return len(self.rows) - 1

    def __mul__(self, other: "ParamSeries") -> "ParamSeries":
        deg = _common_deg(self, other)
        a = [(i, r) for i, r in enumerate(self.rows) if r.coeffs]
        b = [(j, r) for j, r in enumerate(other.rows) if r.coeffs]
        # The global rule of QSeries.__mul__, with leads taken over all rows.
        la = min((r.lead()[0] for _, r in a), default=self.order)
        lb = min((r.lead()[0] for _, r in b), default=other.order)
        order = min(self.order + lb, other.order + la)
        rows: dict = {}
        for i, ra in a:
            for j, rb in b:
                if i + j <= deg:
                    t = (ra * rb).truncate(order)
                    rows[i + j] = rows[i + j] + t if i + j in rows else t
        zero = QSeries.zero(order)
        return ParamSeries([rows.get(r, zero) for r in range(deg + 1)])


def _common_deg(s: ParamSeries, t: ParamSeries) -> int:
    if s.deg != t.deg:
        raise ValueError("degree caps differ")
    return s.deg


def eq_to_order_param(s: ParamSeries, t: ParamSeries,
                      order: Rat) -> Optional[Mismatch]:
    """Compare row by row below `order`; None if equal, else the mismatch of
    least exponent, taking the lowest u-power on ties."""
    _common_deg(s, t)
    found = [(m.exponent, a, m) for a, (x, y) in enumerate(zip(s.rows, t.rows))
             if (m := eq_to_order(x, y, order)) is not None]
    return min(found)[2] if found else None
