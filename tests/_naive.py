"""Independent naive evaluator for registry record payloads.

Interprets the declarative side descriptions (NahmSide / SingleSum /
ComboSide) with its own dictionary-based exact arithmetic: bounded box scans
for lattice sums (a NahmSide's flip as a sign per term), literal factor
multiplication for products, long division for inverses.  Shares no series
code with the package.
"""

from fractions import Fraction as F
from functools import lru_cache

from nahm_forge.registry import ComboSide, NahmSide, SingleSum

from _oracles import nahm_naive, poch_naive, ser_add, ser_inv, ser_mul, ser_scale


def naive_factor(f, order):
    """Expand one PochFactor naively, honoring sign of the power.  A division
    takes the leading monomial c q^low out first, 1/(c q^low (1 + r)) =
    q^-low (1 + r)^-1 / c, so a finite factor with negative rungs divides
    too."""
    base = poch_naive(f.sign, f.a, f.m, f.length, order)
    if f.power < 0:
        low = min(base)
        lead = base[low]
        inv = ser_inv({e - low: v / lead for e, v in base.items()}, order)
        base = {e - low: v / lead for e, v in inv.items() if e - low < order}
    out = {F(0): F(1)}
    for _ in range(abs(f.power)):
        out = ser_mul(out, base, order)
    return out


def negative_size(f):
    """|power| times the sum of |a + k*m| over the negative rungs of a
    finite PochFactor (an infinite one has none)."""
    if f.length is None:
        return 0
    return abs(f.power) * sum(max(0, -(f.a + k * f.m)) for k in range(f.length))


def naive_flip(series: dict, x) -> dict:
    """q^x (q^-x S)(-q) of the expansion S: the coefficient at q^e times
    (-1)^(e - x), which must be an integer power."""
    out = {}
    for e, v in series.items():
        k = e - x
        if k.denominator != 1:
            raise ValueError(f"q^{e} is off {x} + Z")
        out[e] = -v if k.numerator % 2 else v
    return out


def naive_single_sum(spec: SingleSum, order, nmax=60):
    total = {}
    for n in range(nmax):
        e = spec.e2 * n * n + spec.e1 * n + spec.e0
        if e >= order:
            if 2 * spec.e2 * n + spec.e1 >= 0:
                break
            continue
        term = {e: F(1)}
        for f in spec.factors:
            length = f.length + f.per_n * n
            body = poch_naive(f.sign, f.a, f.m, length, order - e)
            if f.power < 0:
                body = ser_inv(body, order - e)
            term = ser_mul(term, body, order)
        total = ser_add(total, term)
    return total


@lru_cache(maxsize=None)
def naive_side(side, order, box=90):
    """The naive expansion of a side description below `order`, computed
    once per (side, order, box): the sides are frozen dataclasses, and
    callers must not mutate the dict it returns."""
    order = F(order)
    if isinstance(side, NahmSide):
        total = nahm_naive(side.quad.A, side.quad.b, side.quad.c, side.quad.d,
                           order, box=box, mask=side.mask)
        return total if side.flip is None else naive_flip(total, side.flip)
    if isinstance(side, SingleSum):
        return naive_single_sum(side, order)
    if isinstance(side, ComboSide):
        total = {}
        for t in side.terms:
            # A factor's terms reach the product lowered by at most the
            # negative rung exponents of the other factors, so expanding
            # every factor by the total of all of them, and truncating the
            # product afterwards, loses nothing below the order.
            top = order - t.shift + sum(negative_size(f) for f in t.factors)
            part = {F(0): F(1)}
            for f in t.factors:
                part = ser_mul(part, naive_factor(f, top), top)
            if t.body is not None:
                part = ser_mul(part, naive_single_sum(t.body, top), top)
            part = {e + t.shift: v for e, v in part.items() if e < order - t.shift}
            total = ser_add(total, ser_scale(part, t.coeff))
        return total
    raise TypeError(f"no naive interpretation for {type(side).__name__}")
