"""Generalized Nahm sums for symmetrizable matrices, parity restrictions,
formal parameters, and the duality transform.

The sum runs over lattice points n in N^r of
    q^( (1/2) n^T A D n + n^T b + c ) / prod_i (q^{d_i}; q^{d_i})_{n_i},
where D = diag(d) and A*D is symmetric positive definite.  Enumeration is
made provably complete by a rational lower bound on the smallest eigenvalue
of A*D: since every eigenvalue is at most the trace, lambda := det/trace^(r-1)
satisfies 0 < lambda <= lambda_min, giving the box bound
    ||n|| <= (||b||_1 + sqrt(||b||_1^2 + 2*lambda*(order - c))) / lambda,
inside which points are filtered exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil, floor, isqrt, lcm
from typing import Iterator, Optional, Sequence, Union

from .errors import NonSymmetric, NotPositiveDefinite, SingularMatrix
from .series import ParamSeries, QSeries

Rat = Union[int, Fraction]
ParityMask = tuple  # per coordinate: None or residue in {0, 1}


def _frac(v) -> Fraction:
    return v if isinstance(v, Fraction) else Fraction(v)


def _det(m: list[list[Fraction]]) -> Fraction:
    """Determinant by fraction-exact Gaussian elimination."""
    n = len(m)
    a = [row[:] for row in m]
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        det *= a[col][col]
        inv = 1 / a[col][col]
        for r in range(col + 1, n):
            if a[r][col]:
                f = a[r][col] * inv
                for cc in range(col, n):
                    a[r][cc] -= f * a[col][cc]
    return det


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
        A = tuple(tuple(_frac(x) for x in row) for row in self.A)
        b = tuple(_frac(x) for x in self.b)
        c = _frac(self.c)
        d = tuple(int(x) for x in self.d)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "d", d)
        r = len(A)
        if any(len(row) != r for row in A) or len(b) != r or len(d) != r:
            raise ValueError("inconsistent dimensions")
        if any(x < 1 for x in d):
            raise NotPositiveDefinite("symmetrizer entries must be positive integers")
        ad = self.symmetrized()
        for i in range(r):
            for j in range(i + 1, r):
                if ad[i][j] != ad[j][i]:
                    raise NonSymmetric(f"A*diag(d) is not symmetric at ({i},{j})")
        for k in range(1, r + 1):
            minor = [[ad[i][j] for j in range(k)] for i in range(k)]
            if _det(minor) <= 0:
                raise NotPositiveDefinite(
                    f"leading principal minor {k} of A*diag(d) is not positive")

    @property
    def rank(self) -> int:
        return len(self.A)

    def symmetrized(self) -> list[list[Fraction]]:
        """The symmetric matrix A*diag(d)."""
        return [[self.A[i][j] * self.d[j] for j in range(self.rank)]
                for i in range(self.rank)]

    def lambda_bound(self) -> Fraction:
        """Positive rational lower bound for the least eigenvalue of A*diag(d)."""
        ad = self.symmetrized()
        det = _det(ad)
        tr = sum(ad[i][i] for i in range(self.rank))
        return det / tr ** (self.rank - 1) if self.rank > 1 else det

    def to_json(self, parity: Optional[ParityMask] = None) -> dict:
        out = {"A": [[str(x) for x in row] for row in self.A],
               "b": [str(x) for x in self.b],
               "c": str(self.c),
               "d": list(self.d)}
        out["parity"] = list(parity) if parity is not None else [None] * self.rank
        return out

    @classmethod
    def from_json(cls, data: dict) -> tuple["NahmQuadruple", Optional[ParityMask]]:
        quad = cls(tuple(tuple(Fraction(x) for x in row) for row in data["A"]),
                   tuple(Fraction(x) for x in data["b"]),
                   Fraction(data.get("c", 0)),
                   tuple(int(x) for x in data["d"]))
        par = data.get("parity")
        mask = None
        if par is not None and any(p is not None for p in par):
            mask = tuple(None if p is None else int(p) for p in par)
            check_parity_mask(mask, quad.rank)
        return quad, mask


def quadruple(A, b, c, d) -> NahmQuadruple:
    """Convenience constructor accepting ints/Fractions/strings."""
    return NahmQuadruple(tuple(tuple(_frac(Fraction(x)) for x in row) for row in A),
                         tuple(_frac(Fraction(x)) for x in b),
                         _frac(Fraction(c)), tuple(d))


def check_parity_mask(mask: ParityMask, rank: int):
    if len(mask) != rank:
        raise ValueError("parity mask length must equal the rank")
    for p in mask:
        if p is not None and p not in (0, 1):
            raise ValueError("parity residues must be 0 or 1")


def _mask_ok(mask: Optional[ParityMask], n: Sequence[int]) -> bool:
    if mask is None:
        return True
    return all(p is None or ni % 2 == p for p, ni in zip(mask, n))


def _ceil_sqrt(x: Fraction) -> Fraction:
    """A rational upper bound for sqrt(x), x >= 0."""
    if x <= 0:
        return Fraction(0)
    p, q = x.numerator, x.denominator
    return Fraction(isqrt(p * q) + 1, q)


def box_radius(quad: NahmQuadruple, bound: Fraction) -> int:
    """Integer R with E(n) >= bound whenever some n_i > R."""
    if bound <= 0:
        return 0
    lam = quad.lambda_bound()
    l1 = sum(abs(x) for x in quad.b)
    s = _ceil_sqrt(l1 * l1 + 2 * lam * bound)
    return int((l1 + s) / lam)


def _quad_value(ad, b, n) -> Fraction:
    r = len(n)
    e = Fraction(0)
    for i in range(r):
        if n[i]:
            e += ad[i][i] * n[i] * n[i] / 2 + b[i] * n[i]
            for j in range(i + 1, r):
                if n[j]:
                    e += ad[i][j] * n[i] * n[j]
    return e


def enumerate_lattice(quad: NahmQuadruple, order: Rat,
                      mask: Optional[ParityMask] = None
                      ) -> Iterator[tuple[tuple, Fraction]]:
    """Yield every (n, E(n)) with E(n) = (1/2) n^T A D n + n^T b < order - c.

    Points come out in lexicographic order; the box bound plus exact filtering
    guarantees completeness.
    """
    order = _frac(order)
    if mask is not None:
        check_parity_mask(mask, quad.rank)
    bound = order - quad.c
    ad = quad.symmetrized()
    b = quad.b
    r = quad.rank
    R = box_radius(quad, bound)
    if r == 1:
        alpha = ad[0][0] / 2
        for n in range(R + 1):
            e = alpha * n * n + b[0] * n
            if e < bound and _mask_ok(mask, (n,)):
                yield (n,), e
        return
    if r == 2:
        alpha = ad[0][0] / 2
        beta = ad[0][1]
        gamma = ad[1][1] / 2
        for i in range(R + 1):
            ci = alpha * i * i + b[0] * i
            li = beta * i + b[1]
            vertex = -li / (2 * gamma)
            emitted_row = False
            for j in range(R + 1):
                e = ci + li * j + gamma * j * j
                if e < bound:
                    emitted_row = True
                    if _mask_ok(mask, (i, j)):
                        yield (i, j), e
                elif j >= vertex:
                    break
            # stop the outer loop once even the real-j minimum stays >= bound
            if not emitted_row and ci - li * li / (4 * gamma) >= bound and \
                    2 * alpha * i + b[0] - beta * li / (2 * gamma) >= 0:
                break
        return
    # generic rank: plain box filter
    def rec(prefix):
        depth = len(prefix)
        if depth == r:
            e = _quad_value(ad, b, prefix)
            if e < bound and _mask_ok(mask, prefix):
                yield tuple(prefix), e
            return
        for n in range(R + 1):
            yield from rec(prefix + [n])
    yield from rec([])


def _den_of_points(pts) -> int:
    den = 1
    for _, e in pts:
        den = lcm(den, e.denominator)
    return den


def _phase_row(length: int) -> list:
    """Dense coefficients of 1/(q^d; q^d)_0 = 1 on `length` slots."""
    row = [0] * length
    if length:
        row[0] = 1
    return row


def _div_binom_int(arr: list, step: int):
    """arr *= 1/(1 - q^step) on an integer-exponent dense array."""
    for k in range(step, len(arr)):
        if arr[k - step]:
            arr[k] += arr[k - step]


def nahm_sum(quad: NahmQuadruple, order: Rat,
             mask: Optional[ParityMask] = None) -> QSeries:
    """Exact expansion of the generalized Nahm sum below `order`."""
    order = _frac(order)
    bound = order - quad.c
    pts = list(enumerate_lattice(quad, order, mask=None))
    if not pts:
        return QSeries({}, 1, order)
    emin = min(e for _, e in pts)
    den = _den_of_points(pts)
    lo = floor(emin * den)
    acc = [0] * (ceil(bound * den) - lo)
    lr = max(0, ceil(bound - emin)) + 1
    r = quad.rank
    d = quad.d

    if r <= 2:
        pts_by_row: dict = {}
        for n, e in pts:
            pts_by_row.setdefault(n[0], []).append((n, e))
        rows = sorted(pts_by_row)
        outer = _phase_row(lr)
        prev_i = 0
        for i in rows:
            while prev_i < i:
                prev_i += 1
                _div_binom_int(outer, d[0] * prev_i)
            if mask is not None and mask[0] is not None and i % 2 != mask[0]:
                continue
            if r == 1:
                _, e = pts_by_row[i][0]
                _accumulate(acc, lo, den, e, outer, bound)
            else:
                inner = outer[:]
                prev_j = 0
                for n, e in pts_by_row[i]:
                    j = n[1]
                    while prev_j < j:
                        prev_j += 1
                        _div_binom_int(inner, d[1] * prev_j)
                    if mask is not None and mask[1] is not None and j % 2 != mask[1]:
                        continue
                    _accumulate(acc, lo, den, e, inner, bound)
    else:
        from .products import pf, product
        for n, e in pts:
            if not _mask_ok(mask, n):
                continue
            factors = tuple(pf(1, di, di, ni, -1) for di, ni in zip(d, n) if ni)
            term = product(factors, bound - e)
            for exp, cv in term.items():
                k = int((e + exp) * den)
                if k - lo < len(acc):
                    acc[k - lo] += cv

    out = {}
    top = ceil(bound * den)
    for idx, v in enumerate(acc):
        if v and lo + idx < top:
            out[lo + idx] = v
    return QSeries(out, den, bound).shift(quad.c).reduce()


def _accumulate(acc, lo, den, e: Fraction, row: list, bound: Fraction):
    base = int(e * den) - lo
    top = len(acc)
    kmax = min(len(row), (top - base + den - 1) // den if den else len(row))
    idx = base
    for k in range(max(0, kmax)):
        v = row[k]
        if v and idx < top:
            acc[idx] += v
        idx += den


def nahm_sum_param(quad: NahmQuadruple, order: Rat, udeg: int, vdeg: int,
                   uweights: Sequence[int], vweights: Sequence[int],
                   mask: Optional[ParityMask] = None) -> ParamSeries:
    """Nahm sum carrying u^(uweights . n) v^(vweights . n) on each term.

    Substituting u = q^alpha, v = q^beta reproduces nahm_sum with b shifted
    by alpha*uweights + beta*vweights.
    """
    order = _frac(order)
    bound = order - quad.c
    if len(uweights) != quad.rank or len(vweights) != quad.rank:
        raise ValueError("weight vectors must match the rank")
    if any(w < 0 for w in uweights) or any(w < 0 for w in vweights):
        raise ValueError("parameter weights must be nonnegative")
    pts = list(enumerate_lattice(quad, order))
    coeffs: dict = {}
    udrop = vdrop = None
    if pts:
        den = _den_of_points(pts)
        d = quad.d
        from .products import pf, product

        def denom_row(n, e) -> QSeries:
            factors = tuple(pf(1, di, di, ni, -1) for di, ni in zip(d, n) if ni)
            return product(factors, bound - e)

        for n, e in pts:
            if not _mask_ok(mask, n):
                continue
            ua = sum(w * x for w, x in zip(uweights, n))
            vb = sum(w * x for w, x in zip(vweights, n))
            if ua > udeg:
                udrop = e if udrop is None else min(udrop, e)
                continue
            if vb > vdeg:
                vdrop = e if vdrop is None else min(vdrop, e)
                continue
            row = denom_row(n, e)
            for exp, cv in row.items():
                tot = e + exp
                if tot >= bound:
                    break
                k = int(tot * den)
                tgt = coeffs.setdefault(k, {})
                m = (ua, vb)
                w = tgt.get(m, 0) + cv
                if w:
                    tgt[m] = w
                else:
                    del tgt[m]
        coeffs = {k: p for k, p in coeffs.items() if p}
    else:
        den = 1
    ps = ParamSeries(coeffs, den, bound, udeg, vdeg, udrop, vdrop)
    return ps.shift(quad.c)


def dual_quadruple(quad: NahmQuadruple) -> NahmQuadruple:
    """The dual (A^-1, A^-1 b, b^T (AD)^-1 b / 2 - tr(D)/24 - c, d)."""
    a_inv = _mat_inv([list(row) for row in quad.A])
    b_star = tuple(sum(a_inv[i][j] * quad.b[j] for j in range(quad.rank))
                   for i in range(quad.rank))
    ad_inv = _mat_inv(quad.symmetrized())
    quad_form = sum(quad.b[i] * ad_inv[i][j] * quad.b[j]
                    for i in range(quad.rank) for j in range(quad.rank))
    c_star = quad_form / 2 - Fraction(sum(quad.d), 24) - quad.c
    return NahmQuadruple(tuple(tuple(row) for row in a_inv), b_star,
                         c_star, quad.d)
