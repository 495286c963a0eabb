"""Canonical inventory of the verified identities, with both sides as exact
series constructors, plus the verification engine and JSON reporting.

Records fall into a few structural families:

* double (or single) lattice sums against infinite-product sides,
* Slater-style single sums with factor lengths linear in the index,
* two-term product combinations (dissection-style right sides),
* identities carrying one formal parameter,
* the closed product forms of the six parity-restricted vector components.

Most sides are described by small data objects (NahmSide / SingleSum /
ComboSide, and ParamNahmSide / ParamProdSide with the parameter) interpreted
by generic builders; the test suite recomputes those with an independent
naive evaluator.  Only the vector components' left sides are constructor
closures.  Conjectural entries can never report better than
"conjecture_pass" no matter how far they are checked.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from math import ceil
from typing import Callable, Optional

from .candidates import FAMILIES
from .errors import UnknownId
from .nahm import NahmQuadruple, ladder_sum, nahm_sum, nahm_sum_param, quadruple
from .products import (
    J_factors as Jf, Jm_factors as Jmf, PochFactor, _combine, _divide, _series, _window,
    eta_factors, neg_base_pair, pf, poch_param,
)
from .series import (
    ParamSeries, QSeries, Rat, _frac, eq_to_order, eq_to_order_param,
)
from . import modular

F = Fraction


# ---------------------------------------------------------------------------
# side descriptions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NahmSide:
    """A (possibly parity-restricted) generalized lattice sum."""
    quad: NahmQuadruple
    mask: Optional[tuple] = None

    def build(self, order: Rat) -> QSeries:
        return nahm_sum(self.quad, order, mask=self.mask)


def sf(sign, a, m, len0, len1, power=1) -> PochFactor:
    """(sign q^a; q^m) of length len1*n + len0, as numerator (power +1)
    or denominator (power -1) of a single-sum term."""
    return pf(sign, a, m, len0, power, len1)


@dataclass(frozen=True)
class SingleSum:
    """sum over n >= 0 of q^(e2 n^2 + e1 n + e0) * prod(factors)."""
    e2: Fraction
    e1: Fraction
    e0: Fraction
    factors: tuple

    def build(self, order: Rat) -> QSeries:
        return single_sum(self, order)

    def _quotient(self, order: Fraction) -> tuple:
        return _single_window(self, order)


@dataclass(frozen=True)
class ProdTerm:
    coeff: Fraction
    shift: Fraction
    factors: tuple
    body: Optional[SingleSum] = None   # optional single-sum multiplied in


@dataclass(frozen=True)
class ComboSide:
    """Sum of terms coeff * q^shift * prod(factors) [* single sum]."""
    terms: tuple

    def build(self, order: Rat) -> QSeries:
        order = _frac(order, "the order")
        return _series(_divide(*self._quotient(order)), order)

    def _quotient(self, order: Fraction) -> tuple:
        return _combine([(t.coeff, t.shift, *_single_window(t.body, order - t.shift, t.factors))
                         for t in self.terms], order)


def combo(*terms) -> ComboSide:
    """The side of terms (coeff, shift, factors) or (coeff, shift, factors, body)."""
    return ComboSide(tuple(ProdTerm(_frac(c, "coeff"), _frac(s, "shift"), tuple(fs), *body)
                           for c, s, fs, *body in terms))


def single_sum(spec: SingleSum, order: Rat) -> QSeries:
    """sum over n >= 0 of q^e(n) * prod(spec.factors) below `order`.

    The rank-one Nahm walk of ((2*e2), (e1), e0, (1)) sums exactly the n
    with e(n) < order, streaming the finite spec.factors as ladders; the
    infinite ones then multiply its window on the product plan
    (products._window).  Every a and m is an integer.
    """
    order = _frac(order, "the order")
    return _series(_divide(*_single_window(spec, order)), order)


def _single_window(spec: Optional[SingleSum], order: Fraction, factors=()) -> tuple:
    """(window, divisor) of single_sum(spec, order) times the product of the
    fixed factors, or of that product alone if spec is None (products._window)."""
    if spec is None:
        return _window(factors, order)
    if spec.e2 <= 0:
        raise ValueError("single sums need quadratic exponent growth")
    for f in factors:
        f.check_convergent()
    if (any(f.a.denominator != 1 or f.m.denominator != 1 for f in (*spec.factors, *factors))
            or any(f.a < 0 for f in factors)):
        raise ValueError("single-sum factors need integer a and m, and fixed ones a >= 0")
    quad = NahmQuadruple(((2 * spec.e2,),), (spec.e1,), spec.e0, (1,))
    body = ladder_sum(quad, order, [[f for f in spec.factors if f.length is not None]])
    return _window((*factors, *(f for f in spec.factors if f.length is None)), order, body)


@dataclass(frozen=True)
class ParamNahmSide:
    """The Nahm sum of quad carrying u^(weights . n), its u^k row times sign^k."""
    quad: NahmQuadruple
    weights: tuple
    sign: int = 1

    def build(self, order: Rat, deg: int) -> ParamSeries:
        p = nahm_sum_param(self.quad, order, deg, self.weights)
        if self.sign == 1:
            return p
        return ParamSeries([row.scale(self.sign ** k) for k, row in enumerate(p.rows)])


@dataclass(frozen=True)
class ParamProdSide:
    """(sign u q^a; q^m)_inf times the fixed product of the PochFactors
    factors, times the polynomial in u whose u^k row is the Laurent
    polynomial poly[k] in q (exponent -> coefficient), if poly is given."""
    sign: int
    a: Rat
    m: Rat
    factors: tuple = ()
    poly: tuple = ()

    def build(self, order: Rat, deg: int) -> ParamSeries:
        if not self.poly:
            return poch_param(self.sign, self.a, self.m, order, deg, self.factors)
        # built past order by the least exponent of poly, the product is exact below order
        order = _frac(order, "the order") - min(min(row) for row in self.poly)
        return (ParamSeries.polynomial([QSeries(row, 1, order) for row in self.poly], deg)
                * poch_param(self.sign, self.a, self.m, order, deg, self.factors))


# ---------------------------------------------------------------------------
# records
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IdentityRecord:
    id: str
    status: str                # "theorem" | "known" | "conjecture"
    lhs: Callable
    rhs: Callable
    anchor: str
    params: tuple = ()
    lhs_data: object = None
    rhs_data: object = None


@dataclass(frozen=True)
class VerifyReport:
    id: str
    status: str
    order: int
    result: str                # "pass" | "fail" | "conjecture_pass" | "error"
    first_mismatch: Optional[tuple]
    ms: int
    error: Optional[str] = None    # the exception, when result is "error"

    def to_json(self) -> dict:
        fm = None
        if self.first_mismatch is not None:
            e, lhs, rhs = self.first_mismatch
            fm = {"exp": str(e), "lhs": str(lhs), "rhs": str(rhs)}
        out = {"id": self.id, "status": self.status, "order": self.order,
               "result": self.result, "first_mismatch": fm, "ms": self.ms}
        if self.error is not None:
            out["error"] = self.error
        return out


def _rec(rid, status, lhs_data, rhs_data, anchor) -> IdentityRecord:
    return IdentityRecord(rid, status, lhs_data.build, rhs_data.build, anchor,
                          (), lhs_data, rhs_data)


def _prec(rid, status, lhs, rhs, anchor) -> IdentityRecord:
    return IdentityRecord(rid, status, lhs.build, rhs.build, anchor, ("u",))


def _nahm(A, b, d, mask=None) -> NahmSide:
    return NahmSide(quadruple(A, b, 0, d), mask)


def _prods(*factors) -> ComboSide:
    return combo((1, 0, tuple(factors)))


def _eta(exps: dict) -> ComboSide:
    return combo((1, 0, eta_factors(exps)))


def _triple_factors(m, zexp, base_sign, z_sign) -> tuple:
    """The bilateral sum of modular._theta_triple as ladders: by the Jacobi
    triple product it is (z, Q/z, Q; Q)_inf with z = z_sign q^zexp and
    Q = base_sign q^m, and a base of -q^m splits into two ladders over q^2m."""
    rungs = ((z_sign, zexp), (base_sign * z_sign, m - zexp), (base_sign, m))
    if base_sign == 1:
        return tuple(pf(sign, a, m) for sign, a in rungs)
    return tuple(f for sign, a in rungs for f in neg_base_pair(sign, a, m))


def _component_rhs(vec: str, idx: int, shift: Rat) -> ComboSide:
    """modular.PRODUCT_FORMS[vec][idx] as a product side, its prefactor
    lowered by shift."""
    pre, (sign, a, m), triple = modular.PRODUCT_FORMS[vec][idx]
    return combo((1, pre - shift, (pf(sign, a, m), *_triple_factors(*triple),
                                   pf(1, 2, 2, None, -1))))


def _v_component_lhs(idx):
    def build(order):
        order = _frac(order, "the order")
        pre = modular.PRODUCT_FORMS["v"][idx][0]
        pre, body = modular.component_series_v(idx, ceil(order - pre) + 2)
        return body.shift(pre).truncate(order)
    return build


# ---------------------------------------------------------------------------
# the inventory
# ---------------------------------------------------------------------------

A1, A2, A3, A4, A5, A6, A7, A8, A9, A10, A11, A12, A13, A14 = (f.A for f in FAMILIES)


def _build_registry() -> list[IdentityRecord]:
    out = []
    add = out.append

    # -- classical single-sum identities ------------------------------------
    add(_rec("rr-1", "known",
             _nahm(((2,),), (0,), (1,)),
             _prods(pf(1, 1, 5, None, -1), pf(1, 4, 5, None, -1)),
             "first Rogers-Ramanujan identity"))
    add(_rec("rr-2", "known",
             _nahm(((2,),), (1,), (1,)),
             _prods(pf(1, 2, 5, None, -1), pf(1, 3, 5, None, -1)),
             "second Rogers-Ramanujan identity"))
    add(_rec("capparelli", "known",
             _nahm(A5, (0, 0), (1, 3)),
             _prods(pf(-1, 2, 6), pf(-1, 3, 6), pf(-1, 4, 6), pf(-1, 6, 6)),
             "Capparelli partition identity"))
    # sum_n q^(n(n+1)/2) (u;q)_n/(q;q)_n.  By the q-binomial theorem (Andrews,
    # The Theory of Partitions, Thm 3.3), (u;q)_n/(q;q)_n is the sum over
    # j + k = n of (-u)^k q^(k(k-1)/2)/((q;q)_j (q;q)_k), so this is the
    # rank-two Nahm sum of (-u)^k q^(j^2/2 + jk + k^2 + j/2)/((q;q)_j (q;q)_k)
    add(_prec("lebesgue-param", "known",
              ParamNahmSide(quadruple([[1, 1], [1, 2]], [F(1, 2), 0], 0, [1, 1]), (0, 1), -1),
              ParamProdSide(1, 1, 2, (pf(-1, 1, 1),)),
              "Lebesgue identity with free parameter"))
    add(_rec("msz-254", "known",
             SingleSum(F(1), F(1), F(0),
                       (sf(-1, 1, 1, 1, 1), sf(1, 2, 2, 0, 1, -1))),
             _prods(*Jmf(5), *Jf(1, 5, -1)),
             "odd-indexed Rogers-Ramanujan variant"))
    add(_rec("gollnitz-224", "known",
             SingleSum(F(1), F(1), F(0),
                       (sf(-1, 1, 2, 0, 1), sf(1, 2, 2, 0, 1, -1))),
             _prods(pf(1, 2, 8, None, -1), pf(1, 3, 8, None, -1),
                    pf(1, 7, 8, None, -1)),
             "Gollnitz-Gordon type identity"))
    add(_rec("slater-16", "known",
             SingleSum(F(1), F(2), F(0), (sf(1, 4, 4, 0, 1, -1),)),
             _prods(*Jf(1, 5), *Jf(1, 4, -1)), "Slater list no. 16"))
    add(_rec("slater-20", "known",
             SingleSum(F(1), F(0), F(0), (sf(1, 4, 4, 0, 1, -1),)),
             _prods(*Jf(2, 5), *Jf(1, 4, -1)), "Slater list no. 20"))
    add(_rec("slater-31", "known",
             SingleSum(F(2), F(2), F(0),
                       (sf(-1, 1, 1, 1, 2, -1), sf(1, 2, 2, 0, 1, -1))),
             _prods(*Jf(1, 7), *Jmf(2, -1)), "Slater list no. 31"))
    add(_rec("slater-32", "known",
             SingleSum(F(2), F(2), F(0),
                       (sf(-1, 1, 1, 0, 2, -1), sf(1, 2, 2, 0, 1, -1))),
             _prods(*Jf(2, 7), *Jmf(2, -1)), "Slater list no. 32 (Rogers)"))
    add(_rec("slater-33", "known",
             SingleSum(F(2), F(0), F(0),
                       (sf(-1, 1, 1, 0, 2, -1), sf(1, 2, 2, 0, 1, -1))),
             _prods(*Jf(3, 7), *Jmf(2, -1)), "Slater list no. 33"))
    add(_rec("slater-36", "known",
             SingleSum(F(1), F(0), F(0),
                       (sf(-1, 1, 2, 0, 1), sf(1, 2, 2, 0, 1, -1))),
             _prods(pf(1, 1, 8, None, -1), pf(1, 4, 8, None, -1),
                    pf(1, 7, 8, None, -1)),
             "Slater list no. 36"))
    add(_rec("ramanujan-538", "known",
             SingleSum(F(1), F(0), F(0),
                       (sf(-1, 3, 6, 0, 1), sf(1, 2, 2, 0, 2, -1))),
             _prods(*Jmf(2), *Jf(2, 24), *Jf(10, 24),
                    *Jmf(1, -1), *Jmf(24, -1), *Jf(4, 24, -1)),
             "Ramanujan, Lost Notebook entry"))
    add(_rec("ms-124", "known",
             SingleSum(F(1, 2), F(1, 2), F(0),
                       (sf(-1, 3, 3, 0, 1), sf(1, 1, 1, 1, 2, -1))),
             _prods(*Jmf(12, 5), *Jf(2, 12),
                    *Jf(1, 12, -2), *Jf(3, 12, -2), *Jf(5, 12, -2)),
             "Mc Laughlin-Sills identity"))
    add(_rec("slater-59", "known",
             SingleSum(F(1), F(2), F(0),
                       (sf(1, 1, 1, 0, 1, -1), sf(1, 1, 2, 1, 1, -1))),
             _prods(*Jf(2, 14), *Jmf(1, -1)), "Slater list no. 59 (Rogers)"))
    add(_rec("slater-60", "known",
             SingleSum(F(1), F(1), F(0),
                       (sf(1, 1, 1, 0, 1, -1), sf(1, 1, 2, 1, 1, -1))),
             _prods(*Jf(4, 14), *Jmf(1, -1)), "Slater list no. 60"))
    add(_rec("slater-61", "known",
             SingleSum(F(1), F(0), F(0),
                       (sf(1, 1, 2, 0, 1, -1), sf(1, 1, 1, 0, 1, -1))),
             _prods(*Jf(6, 14), *Jmf(1, -1)), "Slater list no. 61"))
    add(_rec("slater-80", "known",
             SingleSum(F(1, 2), F(1, 2), F(0),
                       (sf(1, 1, 1, 0, 1, -1), sf(1, 1, 2, 1, 1, -1))),
             _prods(*Jmf(2), *Jmf(14, 3), *Jmf(1, -1),
                    *Jf(1, 14, -1), *Jf(4, 14, -1), *Jf(6, 14, -1)),
             "Slater list no. 80"))
    add(_rec("slater-81", "known",
             SingleSum(F(1, 2), F(1, 2), F(0),
                       (sf(1, 1, 2, 0, 1, -1), sf(1, 1, 1, 0, 1, -1))),
             _prods(*Jmf(2), *Jmf(14, 3), *Jmf(1, -1),
                    *Jf(2, 14, -1), *Jf(3, 14, -1), *Jf(4, 14, -1)),
             "Slater list no. 81"))
    add(_rec("slater-82", "known",
             SingleSum(F(1, 2), F(3, 2), F(0),
                       (sf(1, 1, 1, 0, 1, -1), sf(1, 1, 2, 1, 1, -1))),
             _prods(*Jmf(2), *Jmf(14, 3), *Jmf(1, -1),
                    *Jf(2, 14, -1), *Jf(5, 14, -1), *Jf(6, 14, -1)),
             "Slater list no. 82"))
    add(_rec("slater-117", "known",
             SingleSum(F(1), F(0), F(0),
                       (sf(1, 1, 2, 0, 1, -1), sf(1, 4, 4, 0, 1, -1))),
             _prods(*Jmf(2), *Jmf(14), *Jf(3, 28), *Jf(11, 28),
                    *Jmf(1, -1), *Jmf(28, -1), *Jf(4, 28, -1), *Jf(12, 28, -1)),
             "Slater list no. 117"))
    add(_rec("slater-118", "known",
             SingleSum(F(1), F(2), F(0),
                       (sf(1, 1, 2, 0, 1, -1), sf(1, 4, 4, 0, 1, -1))),
             _prods(*Jmf(2), *Jf(1, 14), *Jf(12, 28),
                    *Jmf(1, -1), *Jmf(4, -1), *Jmf(28, -1)),
             "Slater list no. 118"))
    add(_rec("slater-119", "known",
             SingleSum(F(1), F(2), F(0),
                       (sf(1, 1, 1, 1, 2, -1), sf(-1, 2, 2, 0, 1, -1))),
             _prods(*Jmf(2), *Jf(4, 28), *Jf(5, 14),
                    *Jmf(1, -1), *Jmf(4, -1), *Jmf(28, -1)),
             "Slater list no. 119"))
    add(_rec("new-single-1", "theorem",
             SingleSum(F(3), F(0), F(0),
                       (sf(-1, 1, 2, 0, 3), sf(1, 6, 6, 0, 2, -1))),
             _prods(*Jmf(24, 3), *Jf(3, 24, -1), *Jf(4, 24, -1), *Jf(9, 24, -1)),
             "new single-sum identity, modulus 24"))
    add(_rec("new-single-2", "theorem",
             SingleSum(F(3, 2), F(3, 2), F(0),
                       (sf(-1, 1, 1, 1, 3), sf(1, 3, 3, 1, 2, -1))),
             _prods(*Jmf(12, 3), *Jf(2, 12),
                    *Jf(1, 12, -1), *Jf(3, 12, -2), *Jf(5, 12, -1)),
             "new single-sum identity, modulus 12"))

    # -- family 1 ------------------------------------------------------------
    add(_rec("exam1-1", "known", _nahm(A1, (0, 0), (1, 2)),
             _eta({3: 2, 1: -1, 6: -1}), "Bressoud instance, family 1"))
    add(_rec("exam1-2", "known", _nahm(A1, (0, 1), (1, 2)),
             _prods(pf(1, 1, 2, None, -1)), "Bressoud instance, family 1"))
    add(_rec("exam1-3", "known", _nahm(A1, (-1, -1), (1, 2)),
             _prods(pf(-1, 0, 1)), "Cao-Wang specialization"))
    add(_rec("exam1-4", "known", _nahm(A1, (-1, 0), (2, 4)),
             _prods(pf(-1, 1, 2)), "Cao-Wang specialization"))
    add(_rec("exam1-5", "known", _nahm(A1, (1, 2), (1, 2)),
             _eta({6: 2, 2: -1, 3: -1}), "Bressoud instance, family 1"))
    add(_prec("cao-wang-param", "known",
              ParamNahmSide(quadruple(A1, (-1, -1), 0, (1, 2)), (1, 2)),
              ParamProdSide(-1, 0, 1), "Cao-Wang parametrized identity"))
    add(_prec("thm-new-exam1-param", "theorem",   # (1 + u q + u/q) (-u q^3; q^2)_inf
              ParamNahmSide(quadruple(A1, (-3, 0), 0, (2, 4)), (1, 2)),
              ParamProdSide(-1, 3, 2, poly=({0: 1}, {-1: 1, 1: 1})),
              "new companion family to the Cao-Wang identity"))

    # -- family 2 ------------------------------------------------------------
    add(_rec("exam2-1", "known", _nahm(A2, (0, 0), (2, 4)),
             _eta({2: 3, 3: 2, 1: -2, 4: -2, 6: -1}), "Li-Wang identity"))
    add(_rec("exam2-2", "known", _nahm(A2, (F(-1, 2), 1), (1, 2)),
             _prods(pf(-1, 0, 1), pf(-1, 1, 1)), "Li-Wang specialization"))
    add(_rec("exam2-3", "known", _nahm(A2, (F(-1, 2), 0), (1, 2)),
             _prods(pf(-1, 0, 1, None, 2)), "Li-Wang specialization"))
    add(_rec("exam2-4", "known", _nahm(A2, (-1, 1), (2, 4)),
             _prods(pf(-1, 0, 2), pf(-1, 1, 2)), "Li-Wang specialization"))
    add(_rec("exam2-5", "known", _nahm(A2, (0, 2), (2, 4)),
             _eta({2: 2, 6: 2, 1: -1, 3: -1, 4: -2}), "Li-Wang identity"))
    add(_prec("li-wang-param", "known",
              ParamNahmSide(quadruple(A2, (-1, 0), 0, (2, 4)), (0, 1)),
              ParamProdSide(-1, 0, 2, (pf(-1, 0, 2),)), "Li-Wang parametrized identity"))
    add(_prec("thm-new-exam2-param", "theorem",   # 2 q^-2 (1 + u q + q^2) (-u q^3, -q^2; q^2)_inf
              ParamNahmSide(quadruple(A2, (-3, 3), 0, (2, 4)), (0, 1)),
              ParamProdSide(-1, 3, 2, (pf(-1, 2, 2),), ({-2: 2, 0: 2}, {-1: 2})),
              "new dual companion family"))

    # -- family 3 ------------------------------------------------------------
    mod7 = [((3, 4), "Li-Wang modulus-7 identity"),
            ((2, 5), "Li-Wang modulus-7 identity"),
            ((1, 6), "Li-Wang modulus-7 identity")]
    for idx, (b, ((x, y), anchor)) in enumerate(
            zip([(0, 0), (0, 2), (2, 2)], mod7), start=1):
        add(_rec(f"exam3-{idx}", "known", _nahm(A3, b, (2, 4)),
                 _prods(pf(-1, 1, 2), pf(1, x, 7), pf(1, y, 7), pf(1, 7, 7),
                        pf(1, 2, 2, None, -1)),
                 anchor))

    # -- the twelve vector components -----------------------------------------
    # thm-parity-r1..r6 are the masked sums of the first vector's components
    # 0, 3, 4, 1, 5, 2 against their product forms
    for k, idx in enumerate((0, 3, 4, 1, 5, 2), start=1):
        sigma, b, pre = modular._COMPONENT_DATA[idx]
        m, _, base_sign, _ = modular.PRODUCT_FORMS["u"][idx][2]
        anchor = (f"{'odd' if sigma else 'even'}-slot product form, "
                  f"{'signed ' if base_sign < 0 else ''}modulus {m}")
        add(_rec(f"thm-parity-r{k}", "theorem", _nahm(A3, b, (1, 2), (sigma, None)),
                 _component_rhs("u", idx, pre), anchor))
    # the second vector's components as exact Puiseux identities
    for idx in range(6):
        rhs = _component_rhs("v", idx, 0)
        add(IdentityRecord(f"v-closed-{idx + 1}", "theorem", _v_component_lhs(idx),
                           rhs.build, "signed-nome component closed form",
                           rhs_data=rhs))

    # -- family 4: two expressions per sum, plus single-sum splits ------------
    exam4_b = [(0, 0), (-1, 2), (1, 0)]
    exam4_a_terms = [
        (((1, 0, (*Jmf(2, 6), *Jmf(28, 3), *Jmf(1, -4), *Jmf(4, -2),
                  *Jf(4, 28, -1), *Jf(6, 28, -1), *Jf(8, 28, -1))),
          (-2, 1, (*Jmf(4, 2), *Jf(4, 28), *Jf(5, 14),
                   *Jmf(1, -2), *Jmf(2, -1), *Jmf(28, -1))))),
        (((2, 0, (*Jmf(4, 2), *Jf(1, 14), *Jf(12, 28),
                  *Jmf(1, -2), *Jmf(2, -1), *Jmf(28, -1))),
          (-1, 1, (*Jmf(2, 6), *Jmf(28, 3), *Jmf(1, -4), *Jmf(4, -2),
                   *Jf(4, 28, -1), *Jf(10, 28, -1), *Jf(12, 28, -1))))),
        (((2, 0, (*Jmf(4, 3), *Jmf(14), *Jf(3, 28), *Jf(11, 28),
                  *Jmf(1, -2), *Jmf(2, -1), *Jmf(28, -1),
                  *Jf(4, 28, -1), *Jf(12, 28, -1))),
          (-1, 0, (*Jmf(2, 6), *Jmf(28, 3), *Jmf(1, -4), *Jmf(4, -2),
                   *Jf(2, 28, -1), *Jf(8, 28, -1), *Jf(12, 28, -1))))),
    ]
    exam4_b_terms = [
        (((1, 0, (*Jmf(4, 5), *Jmf(28), *Jf(6, 56), *Jf(16, 56), *Jf(22, 56),
                  *Jmf(2, -4), *Jmf(8, -2), *Jmf(56, -3))),
          (2, 1, (*Jmf(4), *Jmf(8), *Jmf(56, 3),
                  *Jf(2, 4, -1), *Jf(4, 8, -1), *Jf(4, 56, -1),
                  *Jf(16, 56, -1), *Jf(24, 56, -1))))),
        (((2, 0, (*Jmf(8), *Jmf(56), *Jf(24, 56),
                  *Jmf(2, -2), *Jf(12, 56, -1))),
          (1, 1, (*Jmf(4, 5), *Jmf(28), *Jf(8, 56), *Jf(10, 56), *Jf(18, 56),
                  *Jmf(2, -4), *Jmf(8, -2), *Jmf(56, -3))))),
        (((1, 0, (*Jmf(4, 5), *Jmf(28), *Jf(2, 56), *Jf(24, 56), *Jf(26, 56),
                  *Jmf(2, -4), *Jmf(8, -2), *Jmf(56, -3))),
          (2, 3, (*Jmf(8), *Jmf(56), *Jf(16, 56),
                  *Jmf(2, -2), *Jf(20, 56, -1))))),
    ]
    exam4_split_terms = [
        (((1, 0, (pf(-1, 1, 2, None, 3), pf(1, 1, 2, None, -1)),
           SingleSum(F(1), F(1), F(0),
                     (sf(1, 2, 2, 0, 1, -1), sf(1, 2, 4, 0, 1, -1)))),
          (-2, 1, (pf(-1, 2, 2, None, 3), pf(1, 1, 2, None, -1)),
           SingleSum(F(1), F(2), F(0),
                     (sf(1, 1, 2, 1, 1, -1), sf(1, 4, 4, 0, 1, -1)))))),
        (((2, 0, (pf(-1, 2, 2, None, 3), pf(1, 1, 2, None, -1)),
           SingleSum(F(1), F(2), F(0),
                     (sf(1, 2, 2, 0, 1, -1), sf(-1, 2, 2, 0, 1, -1),
                      sf(1, 1, 2, 0, 1, -1)))),
          (-1, 1, (pf(-1, 1, 2, None, 3), pf(1, 1, 2, None, -1)),
           SingleSum(F(1), F(3), F(0),
                     (sf(1, 2, 2, 0, 1, -1), sf(1, 2, 4, 1, 1, -1)))))),
        (((2, 0, (pf(-1, 2, 2, None, 3), pf(1, 1, 2, None, -1)),
           SingleSum(F(1), F(0), F(0),
                     (sf(1, 2, 2, 0, 1, -1), sf(-1, 2, 2, 0, 1, -1),
                      sf(1, 1, 2, 0, 1, -1)))),
          (-1, 0, (pf(-1, 1, 2, None, 3), pf(1, 1, 2, None, -1)),
           SingleSum(F(1), F(1), F(0),
                     (sf(1, 2, 2, 0, 1, -1), sf(1, 2, 4, 1, 1, -1)))))),
    ]
    for k in range(3):
        lhs = _nahm(A4, exam4_b[k], (1, 2))
        add(_rec(f"exam4-{k + 1}a", "theorem", lhs, combo(*exam4_a_terms[k]),
                 "two-term modulus-28 expression"))
        add(_rec(f"exam4-{k + 1}b", "theorem", lhs, combo(*exam4_b_terms[k]),
                 "two-term modulus-56 dissection"))
        add(_rec(f"exam4-{k + 1}-split", "theorem", lhs,
                 combo(*exam4_split_terms[k]),
                 "contour-route single-sum split"))

    # -- dissection aids -------------------------------------------------------
    add(_rec("j1-square", "known", _eta({1: -2}),
             combo((1, 0, (*Jmf(8, 5), *Jmf(2, -5), *Jmf(16, -2))),
                   (2, 1, (*Jmf(4, 2), *Jmf(16, 2), *Jmf(2, -5), *Jmf(8, -1)))),
             "even-odd split of the inverse square"))
    add(_rec("j1-four", "known", _eta({1: -4}),
             combo((1, 0, (*Jmf(4, 14), *Jmf(2, -14), *Jmf(8, -4))),
                   (4, 1, (*Jmf(4, 2), *Jmf(8, 4), *Jmf(2, -10)))),
             "even-odd split of the inverse fourth power"))
    add(_rec("xia-yao", "known", _eta({1: -1, 3: -1}),
             combo((1, 0, (*Jmf(8, 2), *Jmf(12, 5), *Jmf(2, -2), *Jmf(4, -1),
                           *Jmf(6, -4), *Jmf(24, -2))),
                   (1, 1, (*Jmf(4, 5), *Jmf(24, 2), *Jmf(2, -4), *Jmf(6, -2),
                           *Jmf(8, -2), *Jmf(12, -1)))),
             "Xia-Yao even-odd split"))

    # -- family 6 ---------------------------------------------------------------
    exam6_lhs = _nahm(A6, (0, 0), (2, 6))
    add(_rec("exam6-a", "theorem", exam6_lhs,
             combo((1, 0, (*Jmf(2, 2), *Jmf(6), *Jmf(24),
                           *Jmf(1, -1), *Jmf(3, -1), *Jmf(4, -1),
                           *Jf(4, 24, -1))),
                   (2, 1, (*Jmf(4), *Jmf(24, 3), *Jf(4, 24),
                           *Jmf(2, -1), *Jf(2, 24, -1), *Jf(6, 24, -2),
                           *Jf(10, 24, -1)))),
             "dual Capparelli expression"))
    add(_rec("exam6-b", "theorem", exam6_lhs,
             combo((1, 0, (*Jmf(24, 6), *Jf(4, 24, -3), *Jf(6, 24, -3))),
                   (3, 1, (*Jmf(24, 6), *Jf(4, 24),
                           *Jf(2, 24, -2), *Jf(6, 24, -3), *Jf(10, 24, -2)))),
             "dual Capparelli dissection"))

    # -- families 7 and 8: conjectural entries ----------------------------------
    add(_rec("conj-KR-1", "conjecture", _nahm(A7, (0, 0), (1, 3)),
             _prods(pf(1, 1, 9, None, -1), pf(1, 3, 9, None, -1),
                    pf(1, 6, 9, None, -1), pf(1, 8, 9, None, -1)),
             "Kanade-Russell conjecture I1"))
    add(_rec("conj-KR-2", "conjecture", _nahm(A7, (1, 3), (1, 3)),
             _prods(pf(1, 2, 9, None, -1), pf(1, 3, 9, None, -1),
                    pf(1, 6, 9, None, -1), pf(1, 7, 9, None, -1)),
             "Kanade-Russell conjecture I2"))
    add(_rec("conj-KR-3", "conjecture", _nahm(A7, (2, 3), (1, 3)),
             _prods(pf(1, 3, 9, None, -1), pf(1, 4, 9, None, -1),
                    pf(1, 5, 9, None, -1), pf(1, 6, 9, None, -1)),
             "Kanade-Russell conjecture I3"))
    add(_rec("conj-KR-4", "conjecture", _nahm(A7, (1, 2), (1, 3)),
             _prods(pf(1, 2, 9, None, -1), pf(1, 3, 9, None, -1),
                    pf(1, 5, 9, None, -1), pf(1, 8, 9, None, -1)),
             "Kanade-Russell companion conjecture"))
    add(_rec("conj-LW", "conjecture", _nahm(A8, (0, 1), (1, 3)),
             _prods(pf(1, 6, 9),
                    pf(1, 1, 6, None, -1), pf(1, 2, 6, None, -2),
                    pf(1, 4, 6, None, -1), pf(1, 5, 6, None, -2)),
             "Li-Wang companion conjecture"))

    def nine(a, power=1):
        return pf(1, a, 9, None, power)

    add(_rec("conj-WW1-1", "conjecture", _nahm(A7, (0, 0), (1, 3)),
             combo((1, 0, (nine(3, 2), nine(6, 2), nine(4, -2), nine(5, -2),
                           nine(1, -1), nine(2, -1), nine(7, -1), nine(8, -1))),
                   (-1, 2, (nine(1, 2), nine(8, 2), nine(4, -3), nine(5, -3),
                            nine(3, -1), nine(6, -1)))),
             "new two-term representation"))
    add(_rec("conj-WW1-2", "conjecture", _nahm(A7, (1, 3), (1, 3)),
             combo((1, 0, (nine(3, 2), nine(6, 2), nine(2, -2), nine(4, -2),
                           nine(5, -2), nine(7, -2))),
                   (-1, 2, (nine(1, 3), nine(8, 3), nine(4, -3), nine(5, -3),
                            nine(2, -1), nine(3, -1), nine(6, -1), nine(7, -1)))),
             "new two-term representation"))
    add(_rec("conj-WW1-3", "conjecture", _nahm(A7, (2, 3), (1, 3)),
             combo((1, 0, (nine(2, 2), nine(7, 2), nine(4, -2), nine(5, -2),
                           nine(1, -1), nine(3, -1), nine(6, -1), nine(8, -1))),
                   (-1, 1, (nine(1), nine(2), nine(7), nine(8),
                            nine(4, -3), nine(5, -3), nine(3, -1), nine(6, -1)))),
             "new two-term representation"))
    add(_rec("conj-WW2-1", "conjecture", _nahm(A8, (0, 0), (1, 3)),
             combo((1, 0, (nine(1, -2), nine(3, -2), nine(6, -2), nine(8, -2))),
                   (1, 1, (nine(3, -2), nine(6, -2), nine(2, -1), nine(4, -1),
                           nine(5, -1), nine(7, -1)))),
             "new two-term representation, dual family"))
    add(_rec("conj-WW2-2", "conjecture", _nahm(A8, (-1, 3), (1, 3)),
             combo((1, 0, (nine(2, -2), nine(3, -2), nine(6, -2), nine(7, -2))),
                   (1, 0, (nine(3, -2), nine(6, -2), nine(1, -1), nine(4, -1),
                           nine(5, -1), nine(8, -1)))),
             "new two-term representation, dual family"))
    add(_rec("conj-WW2-3", "conjecture", _nahm(A8, (1, 0), (1, 3)),
             combo((1, 0, (nine(2), nine(7), nine(1, -2), nine(3, -2),
                           nine(6, -2), nine(8, -2), nine(4, -1), nine(5, -1))),
                   (-2, 1, (nine(3, -2), nine(4, -2), nine(5, -2), nine(6, -2)))),
             "new two-term representation, dual family"))
    add(_rec("conj-WW3-1", "conjecture", _nahm(A7, (1, 2), (1, 3)),
             combo((1, 0, (nine(2), nine(7, 2), nine(1, -1), nine(3, -1),
                           nine(4, -1), nine(5, -2), nine(8, -2))),
                   (-1, 1, (nine(1), nine(7), nine(3, -1), nine(4, -2),
                            nine(5, -3)))),
             "two-term form of the companion conjecture"))
    add(_rec("conj-WW3-2", "conjecture", _nahm(A8, (0, 1), (1, 3)),
             combo((1, 0, (nine(6), nine(7), nine(5, -3), nine(8, -3),
                           nine(1, -2), nine(4, -2))),
                   (-1, 1, (nine(6), nine(2, -1), nine(8, -1), nine(4, -3),
                            nine(5, -4)))),
             "two-term form of the dual companion conjecture"))

    # -- family 10 ---------------------------------------------------------------
    exam10_rhs = [(2, 3), (1, 4)]
    for idx, (b, (x, y)) in enumerate(zip([(-2, 2), (-2, 4)], exam10_rhs), 1):
        add(_rec(f"exam10-{idx}", "theorem", _nahm(A10, b, (4, 8)),
                 _prods(pf(-1, 0, 4), pf(1, x, 5), pf(1, y, 5), pf(1, 5, 5),
                        pf(1, 1, 4, None, -1), pf(1, 3, 4, None, -1),
                        pf(1, 4, 4, None, -1)),
                 "dual product form, modulus 5 over 4"))

    # -- family 12 ---------------------------------------------------------------
    add(_rec("exam12-1", "theorem", _nahm(A12, (F(-3, 2), F(5, 2)), (1, 2)),
             combo((2, -1, (pf(-1, 1, 1), pf(1, 1, 5, None, -1),
                            pf(1, 4, 5, None, -1)))),
             "doubled first Rogers-Ramanujan product"))
    add(_rec("exam12-2", "theorem", _nahm(A12, (F(-1, 2), F(1, 2)), (1, 2)),
             combo((2, 0, (pf(-1, 1, 1), pf(1, 1, 5, None, -1),
                           pf(1, 4, 5, None, -1)))),
             "doubled first Rogers-Ramanujan product"))
    add(_rec("exam12-3", "theorem", _nahm(A12, (F(-1, 2), F(3, 2)), (1, 2)),
             combo((2, 0, (pf(-1, 1, 1), pf(1, 2, 5, None, -1),
                           pf(1, 3, 5, None, -1)))),
             "doubled second Rogers-Ramanujan product"))

    # -- families 13 and 14 --------------------------------------------------------
    add(_rec("exam13-1", "known", _nahm(A13, (F(1, 2), 2), (1, 4)),
             _prods(pf(1, 2, 8, None, -1), pf(1, 3, 8, None, -1),
                    pf(1, 7, 8, None, -1)),
             "Li-Wang modulus-8 identity"))
    add(_rec("exam13-2", "known", _nahm(A13, (F(-1, 2), 2), (1, 4)),
             _prods(pf(1, 1, 8, None, -1), pf(1, 5, 8, None, -1),
                    pf(1, 6, 8, None, -1)),
             "Kurşungöz modulus-8 identity"))
    add(_rec("thm-new-exam13", "theorem", _nahm(A13, (F(-5, 2), 0), (1, 4)),
             combo((1, -1, (pf(1, 1, 8, None, -1), pf(1, 4, 8, None, -1),
                            pf(1, 7, 8, None, -1))),
                   (1, 0, (pf(1, 1, 8, None, -1), pf(1, 4, 8, None, -1),
                           pf(1, 7, 8, None, -1)))),
             "new non-modular companion identity"))
    add(_rec("exam14-1", "known", _nahm(A14, (F(-1, 2), 1), (1, 4)),
             combo((2, 0, (pf(1, 1, 2, None, -1), pf(1, 1, 8, None, -1),
                           pf(1, 4, 8, None, -1), pf(1, 7, 8, None, -1)))),
             "Li-Wang modulus-8 identity"))
    add(_rec("exam14-2", "known", _nahm(A14, (F(-1, 2), 3), (1, 4)),
             combo((2, 0, (pf(1, 1, 2, None, -1), pf(1, 3, 8, None, -1),
                           pf(1, 4, 8, None, -1), pf(1, 5, 8, None, -1)))),
             "Li-Wang modulus-8 identity"))
    add(_rec("thm-new-exam14-1", "theorem", _nahm(A14, (F(-1, 2), 2), (1, 4)),
             combo((2, 0, (pf(-1, 1, 1), pf(1, 2, 8, None, -1),
                           pf(1, 3, 8, None, -1), pf(1, 7, 8, None, -1)))),
             "new dual companion identity"))
    add(_rec("thm-new-exam14-2", "theorem", _nahm(A14, (F(-3, 2), 4), (1, 4)),
             combo((2, -1, (pf(-1, 1, 1), pf(1, 1, 8, None, -1),
                            pf(1, 5, 8, None, -1), pf(1, 6, 8, None, -1)))),
             "new dual companion identity"))
    add(_rec("thm-new-exam14-3", "theorem", _nahm(A14, (F(-5, 2), 5), (1, 4)),
             combo((2, -3, (pf(-1, 1, 1), pf(1, 1, 8, None, -1),
                            pf(1, 4, 8, None, -1), pf(1, 7, 8, None, -1))),
                   (2, -2, (pf(-1, 1, 1), pf(1, 1, 8, None, -1),
                            pf(1, 4, 8, None, -1), pf(1, 7, 8, None, -1)))),
             "new dual companion identity"))
    return out


_REGISTRY: Optional[list] = None
_BY_ID: Optional[dict] = None


def registry() -> list[IdentityRecord]:
    """The fixed, ordered inventory of identity records."""
    global _REGISTRY, _BY_ID
    if _REGISTRY is None:
        _REGISTRY = _build_registry()
        _BY_ID = {r.id: r for r in _REGISTRY}
        assert len(_BY_ID) == len(_REGISTRY), "duplicate record ids"
    return _REGISTRY


def get(rid: str) -> IdentityRecord:
    registry()
    try:
        return _BY_ID[rid]
    except KeyError:
        raise UnknownId(f"no registered identity {rid!r}") from None


def verify(rid: str, order: int) -> VerifyReport:
    """Build both sides at the requested order and compare exactly.

    Without a parameter each side is a window N over a divisor D of theta
    series, D = 1 for a Nahm sum or a closure.  With D the lcm of D_L and
    D_R, N_L D/D_L - N_R D/D_R is (lhs - rhs) D (products._combine), whose
    first nonzero exponent is the first mismatch, as D has constant term 1.
    Only then are both sides built in full, for the report's (exp, lhs, rhs)."""
    if order < 1:       # an order below 1 compares nothing
        raise ValueError(f"order must be at least 1, not {order}")
    rec, o = get(rid), _frac(order, "the order")
    t0 = time.perf_counter()
    if rec.params:
        mism = eq_to_order_param(rec.lhs(order, int(order)), rec.rhs(order, int(order)), o)
    else:
        sides = [data._quotient(o) if hasattr(data, "_quotient") else _window((), o, build(o))
                 for data, build in ((rec.lhs_data, rec.lhs), (rec.rhs_data, rec.rhs))]
        diff = _combine([(1, 0, *sides[0]), (-1, 0, *sides[1])], o)[0][3]
        mism = eq_to_order(rec.lhs(o), rec.rhs(o), o) if diff.any() else None
    ms = int((time.perf_counter() - t0) * 1000)
    result = "fail" if mism else "conjecture_pass" if rec.status == "conjecture" else "pass"
    return VerifyReport(rid, rec.status, int(order), result, mism and tuple(mism), ms)


def _verify_worker(args) -> VerifyReport:
    """verify() one (id, order) task; an exception becomes a report with
    result "error", so one bad record cannot abort a sweep."""
    rid, order = args
    t0 = time.perf_counter()
    try:
        return verify(rid, order)
    except Exception as exc:
        ms = int((time.perf_counter() - t0) * 1000)
        return VerifyReport(rid, get(rid).status, int(order), "error", None, ms,
                            f"{type(exc).__name__}: {exc}")


def verify_all(order: int, status_filter: Optional[str] = None,
               jobs: int = 1, param_order: Optional[int] = None
               ) -> list[VerifyReport]:
    """Verify every record (optionally restricted by status), in registry
    order regardless of the worker count."""
    recs = [r for r in registry()
            if status_filter in (None, "all") or r.status == status_filter]
    tasks = [(r.id, param_order if (r.params and param_order is not None) else order)
             for r in recs]
    if jobs and jobs > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=jobs) as ex:
            return list(ex.map(_verify_worker, tasks))
    return [_verify_worker(t) for t in tasks]
