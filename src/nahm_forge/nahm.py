"""Generalized Nahm sums for symmetrizable matrices, parity restrictions,
a formal parameter, and the duality transform.

The sum runs over lattice points n in N^r of
    q^( (1/2) n^T A D n + n^T b + c ) / prod_i (q^{d_i}; q^{d_i})_{n_i},
where D = diag(d) and A*D is symmetric positive definite.

Enumeration completes the squares of E(n) = (1/2) n^T A D n + n^T b exactly,
from the last coordinate down:
    E(n) = C + sum_k h_k (n_k + sum_{j<k} L_kj n_j + t_k)^2,   h_k > 0
(the Fincke-Pohst scheme).  Square k involves only n_0..n_k, so for a prefix
n_0..n_{k-1} the partial sum S is the exact minimum of E over all real
completions of that prefix.  A NahmQuadruple completes its squares once, at
construction: a pivot h_k <= 0 refuses it as not positive definite, and the
walk, lambda_bound and dual_quadruple read the stored integer form.

The walk runs on integers.  P_k, the lcm of the denominators of t_k and the
L_kj, makes u = P_k (t_k + sum_j L_kj n_j) an integer; W, the lcm of the
denominators of C and of every h_k / P_k^2, makes H_k = W h_k / P_k^2 a
positive integer and S' = W S an integer at every depth.  Square k adds
H_k y^2 with y = P_k n_k + u.  Since S' + H_k y^2 is an integer, it is below
W (order - c) exactly when it is at most top := ceil(W (order - c)) - 1,
that is when |y| <= isqrt((top - S') // H_k).  The walk takes exactly the
n_k >= 0 with such a y, so every one it tries lies below the bound: the
enumeration is complete by proof and needs no box radius.  It yields rows
in lexicographic order: per prefix n_0..n_(r-2), the last coordinates and
their S' as arrays, int64 while S', every H_k and every P_k stay inside
2^62, so that no product overflows, and Python ints past that.  A parity
mask only filters the points walked.  enumerate_lattice lists them with
E(n) = S' / W; the sums key E(n) as S' / g on the lattice of W / g,
g = gcd(W, every S').

The sum is a Horner scheme by level, one array row per prefix n_0..n_(k-1)
at depth k.  Walking x = n_k from the largest down, every row takes the
rungs between levels x+1 and x (for 1/(q^d; q^d)_x a division by
1 - q^(d(x+1)), a running sum per residue class), then level x comes in:
monomials q^E(n) at the deepest depth, finished rows of depth k+1 above.
Every step is a rung of products.rungs or an add, so products.exact_run
makes the sum exact from a float64 and an int64 run, or reruns it on
Python ints; its docstring holds the proof.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from math import ceil, gcd, isqrt, lcm, prod
from operator import mul
from typing import Iterator, Optional, Sequence

import numpy as np

from .errors import NonSymmetric, NotPositiveDefinite, SingularMatrix
from .products import _check_window, _series, exact_run, pf, rungs
from .series import ParamSeries, QSeries, Rat, _frac

ParityMask = tuple  # per coordinate: None or residue in {0, 1}
_check_sum = partial(_check_window, "the sum needs")


def _mat_inv(m: list[list[Fraction]]) -> list[list[Fraction]]:
    n = len(m)
    a = [row[:] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(m)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            raise SingularMatrix("matrix is not invertible")
        a[col], a[piv] = a[piv], a[col]
        inv = 1 / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for r in range(n):
            if r != col and a[r][col]:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [row[n:] for row in a]


@dataclass(frozen=True)
class NahmQuadruple:
    """Data (A, b, c, d) of a generalized Nahm sum."""
    A: tuple
    b: tuple
    c: Fraction
    d: tuple

    def __post_init__(self):
        A = tuple(tuple(_frac(x, "an entry of A") for x in row) for row in self.A)
        b = tuple(_frac(x, "an entry of b") for x in self.b)
        c = _frac(self.c, "c")
        d = [None if isinstance(x, (bool, float)) else _frac(x, "d") for x in self.d]
        if any(x is None or x.denominator != 1 for x in d):
            raise ValueError("symmetrizer entries must be integers")
        d = tuple(map(int, d))
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "d", d)
        r = len(A)
        if not r:
            raise ValueError("the matrix must not be empty")
        if any(len(row) != r for row in A) or len(b) != r or len(d) != r:
            raise ValueError("inconsistent dimensions")
        if any(x < 1 for x in d):
            raise NotPositiveDefinite("symmetrizer entries must be positive integers")
        ad = self.symmetrized()
        for i in range(r):
            for j in range(i + 1, r):
                if ad[i][j] != ad[j][i]:
                    raise NonSymmetric(f"A*diag(d) is not symmetric at ({i},{j})")
        # not a field: out of ==, hash and repr
        object.__setattr__(self, "_squares", _completed_squares(ad, b))

    @property
    def rank(self) -> int:
        return len(self.A)

    def symmetrized(self) -> list[list[Fraction]]:
        """The symmetric matrix A*diag(d)."""
        return [[self.A[i][j] * self.d[j] for j in range(self.rank)]
                for i in range(self.rank)]

    def lambda_bound(self) -> Fraction:
        """Positive rational lower bound for the least eigenvalue of A*diag(d):
        det / tr^(r-1), the determinant being the product of the pivots."""
        W, _, H, P, _, _ = self._squares
        det = prod(Fraction(2 * h * p * p, W) for h, p in zip(H, P))
        tr = sum(self.A[i][i] * self.d[i] for i in range(self.rank))
        return det / tr ** (self.rank - 1)

    def to_json(self, parity: Optional[ParityMask] = None) -> dict:
        out = {"A": [[str(x) for x in row] for row in self.A],
               "b": [str(x) for x in self.b],
               "c": str(self.c),
               "d": list(self.d)}
        out["parity"] = list(parity) if parity is not None else [None] * self.rank
        return out

    @classmethod
    def from_json(cls, data) -> tuple["NahmQuadruple", Optional[ParityMask]]:
        """Read to_json's layout; a malformed document raises ValueError."""
        if not isinstance(data, dict):
            raise ValueError("a quadruple is a JSON object with keys A, b, c, d")
        quad = cls(_json_matrix(data.get("A")), _json_vector(data.get("b"), "b"),
                   _rational(data.get("c", 0)), _json_vector(data.get("d"), "d"))
        par = data.get("parity")
        mask = None
        if par is not None:
            mask = tuple(_json_list(par, "parity"))
            check_parity_mask(mask, quad.rank)
            if all(p is None for p in mask):
                mask = None
        return quad, mask


def _json_list(x, what: str) -> list:
    if not isinstance(x, list):
        raise ValueError(f"{what} must be a JSON list")
    return x


def _json_vector(x, what: str) -> tuple:
    """A JSON list of rationals (_rational) as a tuple of Fractions."""
    return tuple(map(_rational, _json_list(x, what)))


def _json_matrix(x) -> tuple:
    """A JSON list of rows of rationals as a tuple of tuples of Fractions."""
    if not isinstance(x, list) or not all(isinstance(row, list) for row in x):
        raise ValueError("A must be a JSON list of rows, e.g. [[\"2\"]]")
    return tuple(tuple(map(_rational, row)) for row in x)


def _rational(x) -> Fraction:
    """A JSON number or a rational string as a Fraction, else ValueError.
    A float is read as the decimal it prints as, so 0.1 is 1/10, as typed."""
    if isinstance(x, bool) or not isinstance(x, (int, float, str)):
        raise ValueError(f"expected a rational number, got {x!r}")
    try:
        return Fraction(str(x))
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {x!r}") from None


def quadruple(A, b, c, d) -> NahmQuadruple:
    """Convenience constructor accepting ints/Fractions/strings; a float or
    a bool in A, b or c is refused."""
    return NahmQuadruple(tuple(map(tuple, A)), tuple(b), c, tuple(d))


def check_parity_mask(mask: Optional[ParityMask], rank: int):
    """ValueError unless mask is None or one None, 0 or 1 per coordinate;
    a bool or a float is no residue."""
    if mask is not None and len(mask) != rank:
        raise ValueError("parity mask length must equal the rank")
    for p in mask or ():
        if p is not None and (type(p) is not int or p not in (0, 1)):
            raise ValueError("parity residues must be 0 or 1")


def box_radius(quad: NahmQuadruple, bound: Fraction) -> int:
    """Integer R with E(n) >= bound whenever some n_i > R."""
    lam = quad.lambda_bound()
    l1 = sum(abs(x) for x in quad.b)
    v = l1 * l1 + 2 * lam * bound      # s >= sqrt(v), 0 if v <= 0
    s = Fraction(isqrt(v.numerator * v.denominator) + 1, v.denominator) if v > 0 else 0
    return int((l1 + s) / lam)


def _completed_squares(m: list, b: Sequence):
    """(W, C, H, P, T, Lam), all integers, with
        W E(n) = C + sum_k H_k (P_k n_k + sum_{j<k} Lam_kj n_j + T_k)^2
    for E(n) = (1/2) n^T m n + n^T b, m symmetric (and overwritten).

    Squares are completed exactly from the last coordinate down, so square k
    only involves n_0..n_k.  Its h_k is half the k-th pivot, the ratio of two
    consecutive trailing principal minors of m, so by Sylvester's criterion
    every h_k > 0 exactly when m is positive definite (else
    NotPositiveDefinite).  P_k clears the denominators of square k's linear
    form, and W those of the constant and of every h_k / P_k^2, so W > 0 and
    every H_k > 0.
    """
    b = list(b)
    r = len(b)
    const = Fraction(0)
    h, L, t = [None] * r, [None] * r, [None] * r
    for k in range(r - 1, -1, -1):
        piv = m[k][k]
        if piv <= 0:
            raise NotPositiveDefinite(
                f"trailing principal minor {r - k} of A*diag(d) is not positive")
        h[k] = piv / 2
        L[k] = [m[k][j] / piv for j in range(k)]
        t[k] = b[k] / piv
        const -= b[k] * t[k] / 2
        for i in range(k):
            b[i] -= m[i][k] * t[k]
            for j in range(k):
                m[i][j] -= m[i][k] * L[k][j]
    P = [lcm(t[k].denominator, *(x.denominator for x in L[k])) for k in range(r)]
    hs = [h[k] / (P[k] * P[k]) for k in range(r)]
    W = lcm(const.denominator, *(x.denominator for x in hs))
    return (W, int(const * W), [int(x * W) for x in hs], P,
            [int(t[k] * P[k]) for k in range(r)],
            [[int(x * P[k]) for x in L[k]] for k in range(r)])


def _rows(quad: NahmQuadruple, order: Rat, window=False):
    """Yield (prefix, x, S') per prefix n_0..n_(r-2) with points below order - c,
    lexicographically: its last coordinates x, ascending, and their S' = W E(n),
    as arrays (module docstring); with window, also refuse a row past a sum's."""
    order = _frac(order, "the order")
    r = quad.rank
    W, const, H, P, T, Lam = quad._squares
    top = ceil((order - quad.c) * W) - 1   # W E(n) < W (order - c) iff <= top
    ints = np.int64 if max(top, -const, *H, *P) < 2 ** 62 else object
    n = [0] * r

    def walk(k: int, s: int):
        # s <= top is W times the least E over real completions of n_0..n_{k-1}
        u = T[k] + sum(map(mul, Lam[k], n))
        R = isqrt((top - s) // H[k])
        hk, pk = H[k], P[k]
        lo = max(0, -((R + u) // pk))
        xs = range(lo, (R - u) // pk + 1)
        if k + 1 == r:
            if xs:  # refused unbuilt: L distinct y put S' on >= L/2 slots, and in the
                # window, with S' = a, b at the ends and c nearest the vertex y = 0 (c <=
                # max(a, b) by convexity), keys span >= (max(a, b) - c) // gcd(W, a, b, c) + 1
                _check_sum(1, 1, (len(xs) + 1) // 2)
                if window:
                    y0, y1 = pk * lo + u, pk * xs[-1] + u
                    yv = y0 + pk * min(max(0, -y0 // pk), len(xs) - 1)
                    a, b, c = s + hk * y0 * y0, s + hk * y1 * y1, s + hk * yv * yv
                    _check_sum(1, 1, (max(a, b) - c) // gcd(W, a, b, c) + 1)
                x = np.arange(xs.start, xs.stop, dtype=ints)
                y = pk * x + u
                yield tuple(n[:-1]), x, s + hk * y * y
            return
        for x in xs:
            n[k] = x
            y = pk * x + u
            yield from walk(k + 1, s + hk * y * y)

    if const <= top:
        yield from walk(0, const)


def enumerate_lattice(quad: NahmQuadruple, order: Rat,
                      mask: Optional[ParityMask] = None
                      ) -> Iterator[tuple[tuple, Fraction]]:
    """Yield every (n, E(n)) with E(n) = (1/2) n^T A D n + n^T b < order - c
    and n of the masked parity, in lexicographic order: the points of _rows
    one by one."""
    check_parity_mask(mask, quad.rank)
    W = quad._squares[0]
    for prefix, xs, ss in _rows(quad, order):
        for x, s in zip(xs.tolist(), ss.tolist()):
            n = (*prefix, x)
            if all(p is None or v % 2 == p for v, p in zip(n, mask or ())):
                yield n, Fraction(s, W)


def _denominators(quad: NahmQuadruple) -> list:
    """The factors of 1/prod_k (q^{d_k}; q^{d_k})_{n_k}."""
    return [[pf(1, d, d, 0, -1, 1)] for d in quad.d]


def _levels(kept, rank: int) -> list:
    """The plan of _horner for the sorted kept (n_0..n_(r-1), grade, slot): per
    depth from the deepest up, its prefix rows' top levels, descending, and per
    level x the lowest slot coming in, where it goes, its child rows or None."""
    plan, cols, low, src = [], kept[:, :rank], kept[:, -1], None
    for k in range(rank - 1, -1, -1) if len(kept) else ():
        starts = np.flatnonzero(np.r_[True, (cols[1:, :k] != cols[:-1, :k]).any(1)])
        ends = np.r_[starts[1:], len(cols)]
        top = cols[ends - 1, k]             # a prefix's last point is its top
        rows = np.argsort(-top, kind="stable")
        row = np.argsort(rows)              # the inverse permutation
        at_row, levels = np.repeat(row, ends - starts), {}
        by = np.argsort(cols[:, k], kind="stable")  # the points level by level
        x = cols[by, k]
        first = np.flatnonzero(np.r_[True, x[1:] != x[:-1]])
        floors = np.minimum.reduceat(low[by], first).tolist()
        for x, i, floor in zip(x[first].tolist(), np.split(by, first[1:]), floors):
            dst = (at_row[i], *kept[i, -2:].T) if src is None else at_row[i]
            levels[x] = floor, dst, None if src is None else src[i]
        plan.append((top[rows].tolist(), levels))
        cols, low, src = cols[starts], np.minimum.reduceat(low, starts), row
    return plan


def _horner(plan: list, factors: Sequence, den: int, shape: tuple, dtype):
    """The (grades x slots) array of _graded_sum in dtype, and its adds."""
    adds, arr = 0, np.zeros((1, *shape), dtype)
    for (tops, levels), fs in zip(plan, reversed(factors)):
        lad = [(f.sign, int(f.a) * den, int(f.m) * den, f.power, f.length, f.per_n)
               for f in fs]
        child, arr = arr, np.zeros((len(tops), *shape), dtype)
        live, lo = 0, shape[-1]
        for x in range(tops[0], -1, -1):
            for sign, a, m, power, length, per_n in lad if live else ():
                adds += rungs(arr[:live, ..., lo:], sign, a, m, power,
                              length + per_n * x, length + per_n * (x + 1))
            while live < len(tops) and tops[live] >= x:
                live += 1
            if x in levels:
                floor, dst, src = levels[x]
                lo, adds = min(lo, floor), adds + 1
                arr[dst] += 1 if src is None else child[src]
        for sign, a, m, power, length, _ in lad:
            adds += rungs(arr[..., lo:], sign, a, m, power, 0, length)
    return arr[0], adds


def _graded_sum(quad: NahmQuadruple, order: Rat, factors: Sequence,
                mask: Optional[ParityMask] = None, weights=None, cap: int = 0):
    """Rows 0..cap of the sum below `order` of q^(E(n) + c) times, for each k,
    the finite PochFactors factors[k] at n_k (length + per_n*n_k; integer a
    and m), over the points n of quad, n in row weights.n (0 if weights is
    None) up to cap, each a window (den, shift, g, values), the sum of the
    values[i] q^((shift + i*g)/den).  It holds every point below `order` whatever
    the mask, has one row per prefix n[:-1], one grade per u-power up to the
    largest weights.n kept, and at least ceil(order - c) slots (n = 0, the
    first point listed), so ValueError refuses one past MAX_WINDOW at one
    grade as soon as the prefixes listed so far show it, and at all its
    grades before allocating.  A malformed parity mask raises ValueError."""
    order = _frac(order, "the order")
    bound, r = order - quad.c, quad.rank
    check_parity_mask(mask, r)
    W, rows = quad._squares[0], []
    _check_sum(1, 1, ceil(bound))    # n = 0 opens the first row: refused unlisted
    for row in _rows(quad, order, True):
        rows.append(row)
        _check_sum(len(rows), 1, ceil(bound))
    if not rows:
        return [(quad.c.denominator, 0, 1, np.zeros(0, object))] * (cap + 1)
    prefixes, xs, ss = zip(*rows)
    # E(n) = S'/W lies on the lattice of den = W/g, g = gcd(W, every S')
    ss = np.concatenate(ss)
    g = gcd(W, int(np.gcd.reduce(ss)))
    den, keys = W // g, ss // g
    lo = int(keys.min())
    slots = ceil(bound * den) - lo
    kept = np.zeros((len(keys), r + 2), np.int64)
    kept[:, :r - 1] = np.repeat(prefixes, list(map(len, xs)), axis=0)
    kept[:, r - 1] = np.concatenate(xs)
    kept[:, r] = kept[:, :r] @ np.array(weights or (0,) * r, np.int64)
    keep = kept[:, r] <= cap
    for i, p in enumerate(mask or ()):
        keep &= True if p is None else kept[:, i] % 2 == p
    kept = kept[keep]
    shape = (1 + int(kept[:, r].max(initial=0)), slots)
    _check_sum(len(rows), *shape)
    kept[:, -1] = keys[keep] - lo       # below slots, so int64 even past 2^62
    plan = _levels(kept, r)
    nonneg = all(f.sign * f.power < 0 for fs in factors for f in fs)
    flat = exact_run(partial(_horner, plan, factors, den, shape), nonneg)
    # the rows carry q^c: keys on the lattice of lcm(den, c's denominator)
    out_den = lcm(den, quad.c.denominator)
    f, off = out_den // den, int(quad.c * out_den)
    grid = [*np.array(flat, object).reshape(-1, slots)]   # the grades up to the top kept
    grid += [np.zeros(0, object)] * (cap + 1 - len(grid))
    return [(out_den, lo * f + off, f, row) for row in grid]


def nahm_sum(quad: NahmQuadruple, order: Rat,
             mask: Optional[ParityMask] = None) -> QSeries:
    """Exact expansion of the generalized Nahm sum below `order`."""
    return _series(_graded_sum(quad, order, _denominators(quad), mask)[0], order)


def nahm_sum_param(quad: NahmQuadruple, order: Rat, deg: int,
                   weights: Sequence[int],
                   mask: Optional[ParityMask] = None) -> ParamSeries:
    """Nahm sum carrying u^(weights . n) on each term, u-degree capped at deg.

    Substituting u = q^alpha reproduces nahm_sum with b shifted by
    alpha*weights.
    """
    if len(weights) != quad.rank:
        raise ValueError("the weight vector must match the rank")
    if any(type(w) is not int or w < 0 for w in weights):
        raise ValueError(f"parameter weights must be nonnegative ints, not {tuple(weights)}")
    if deg < 0:
        raise ValueError(f"the u-degree cap must be nonnegative, not {deg}")
    # rows unreduced: every row keeps the lattice of all points below order,
    # masked or not, so the mask never changes a row's denominator
    return ParamSeries([QSeries({shift + i * g: v for i, v in enumerate(values) if v},
                                den, order)
                        for den, shift, g, values in _graded_sum(
                            quad, order, _denominators(quad), mask, weights, deg)])


def dual_quadruple(quad: NahmQuadruple) -> NahmQuadruple:
    """The dual (A^-1, A^-1 b, b^T (AD)^-1 b / 2 - tr(D)/24 - c, d).
    b^T (AD)^-1 b / 2 is -min E = -C/W of the completed squares."""
    a_inv = _mat_inv([list(row) for row in quad.A])
    b_star = tuple(sum(map(mul, row, quad.b)) for row in a_inv)
    W, C = quad._squares[:2]
    c_star = -Fraction(C, W) - Fraction(sum(quad.d), 24) - quad.c
    return NahmQuadruple(tuple(tuple(row) for row in a_inv), b_star,
                         c_star, quad.d)
