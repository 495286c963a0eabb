import random
from fractions import Fraction as F
from itertools import product as iproduct
from math import inf, lcm, nextafter, sqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nahm_forge.errors import NonSymmetric, NotPositiveDefinite, SingularMatrix
from nahm_forge.series import QSeries, eq_to_order, eq_to_order_param
from nahm_forge.products import exact_row, exact_run, pf, poch_param, product
from nahm_forge import nahm, products
from nahm_forge.nahm import (
    box_radius, dual_quadruple, enumerate_lattice, nahm_sum, nahm_sum_param,
    quadruple,
)
from nahm_forge.candidates import DUAL_PAIRS, FAMILIES
from nahm_forge.registry import NahmSide, SingleSum, combo, registry, sf, single_sum

from _naive import naive_single_sum
from _oracles import (
    det_leibniz, nahm_naive, nahm_param_naive, partitions_from_parts, solve_cramer,
    specialize,
)


RR = quadruple([[2]], [0], 0, [1])
CAPPARELLI = quadruple([[4, 2], [6, 4]], [0, 0], 0, [1, 3])
EX3 = quadruple([[1, F(1, 2)], [1, 1]], [0, 0], 0, [1, 2])


def test_quadruple_validation():
    with pytest.raises(NonSymmetric):
        quadruple([[2, 1], [1, 2]], [0, 0], 0, [1, 2])
    with pytest.raises(NotPositiveDefinite):
        quadruple([[1, 2], [2, 1]], [0, 0], 0, [1, 1])
    with pytest.raises(NotPositiveDefinite):
        quadruple([[-1]], [0], 0, [1])
    # d = 1.5 was once truncated to 1
    for d in ([1.5], [F(3, 2)], ["3/2"]):
        with pytest.raises(ValueError, match="integers"):
            quadruple([[2]], [0], 0, d)
    assert quadruple([[2]], [0], 0, ["2"]).d == (2,)
    with pytest.raises(ValueError, match="empty"):
        quadruple([], [], 0, [])


def _random_symmetrizable(rng):
    """(S, A, b, c, d) with S = A*diag(d) a random symmetric matrix of rank <= 3."""
    r = rng.randint(1, 3)
    d = [rng.randint(1, 3) for _ in range(r)]
    S = [[None] * r for _ in range(r)]
    for i in range(r):
        S[i][i] = F(rng.randint(-1, 6), rng.randint(1, 2))
        for j in range(i):
            S[i][j] = S[j][i] = F(rng.randint(-3, 3), rng.randint(1, 2))
    A = [[S[i][j] / d[j] for j in range(r)] for i in range(r)]
    b = [F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(r)]
    return S, A, b, F(rng.randint(-2, 2), rng.randint(1, 4)), d


def test_validity_bound_and_dual_against_leibniz_determinants():
    # the completed squares decide validity and give lambda_bound and the
    # dual's c; here every figure comes from Leibniz determinants instead
    rng, refused = random.Random(2022), 0
    for _ in range(600):
        S, A, b, c, d = _random_symmetrizable(rng)
        r = len(d)
        minors = [det_leibniz([row[:k] for row in S[:k]]) for k in range(1, r + 1)]
        if min(minors) <= 0:
            with pytest.raises(NotPositiveDefinite):
                quadruple(A, b, c, d)
            refused += 1
            continue
        quad = quadruple(A, b, c, d)
        assert quad.lambda_bound() == minors[-1] / sum(S[i][i] for i in range(r)) ** (r - 1)
        form = sum(x * y for x, y in zip(b, solve_cramer(S, b)))
        assert dual_quadruple(quad).c == form / 2 - F(sum(d), 24) - c
    assert 100 < refused < 500


@pytest.mark.parametrize("mask", [(0, None, 1), (2, None), (0,), (None, -1),
                                  (True, None), (None, 1.0), (False, 0)])
def test_malformed_parity_mask_refused(mask):
    with pytest.raises(ValueError, match="parity"):
        nahm_sum(CAPPARELLI, 10, mask=mask)
    with pytest.raises(ValueError, match="parity"):
        nahm_sum_param(CAPPARELLI, 10, 2, (1, 0), mask=mask)


@pytest.mark.parametrize("residue", [True, False, 1.0, 0.0, "1"])
def test_quadruple_document_refuses_a_parity_residue_that_is_no_int(residue):
    # the document schema allows null, 0 or 1; JSON true and 1.0 once read as 1
    doc = {"A": [["2"]], "b": ["0"], "c": "0", "d": [1], "parity": [residue]}
    with pytest.raises(ValueError, match="parity residues"):
        nahm.NahmQuadruple.from_json(doc)
    assert nahm.NahmQuadruple.from_json({**doc, "parity": [1]}) == (RR, (1,))
    assert nahm.NahmQuadruple.from_json({**doc, "parity": [None]}) == (RR, None)


def test_rr_first_seven_coefficients():
    s = nahm_sum(RR, 7)
    assert [s.coeff(n) for n in range(7)] == [1, 1, 1, 1, 2, 2, 3]
    parts = tuple(p for p in range(1, 7) if p % 5 in (1, 4))
    assert [partitions_from_parts(n, parts) for n in range(7)] == [1, 1, 1, 1, 2, 2, 3]


def test_capparelli_matches_product():
    lhs = nahm_sum(CAPPARELLI, 30)
    rhs = product((pf(-1, 2, 6), pf(-1, 3, 6), pf(-1, 4, 6), pf(-1, 6, 6)), 30)
    assert eq_to_order(lhs, rhs, 30) is None


def test_parity_restricted_leading_term():
    f1 = nahm_sum(EX3, 6, mask=(1, None))
    assert f1.lead() == (F(1, 2), 1)


def test_parity_split_sums_to_whole():
    for b in ((0, 0), (0, 1), (1, 1)):
        quad = quadruple(EX3.A, b, 0, EX3.d)
        f0 = nahm_sum(quad, 25, mask=(0, None))
        f1 = nahm_sum(quad, 25, mask=(1, None))
        whole = nahm_sum(quad, 25)
        assert eq_to_order(f0 + f1, whole, 25) is None


def test_nahm_sum_against_naive_box_oracle():
    rng = random.Random(7)
    quads = [RR, CAPPARELLI, EX3,
             quadruple([[1, F(-1, 2)], [-1, 1]], [F(-1, 2), 0], 0, [1, 2]),
             quadruple([[2, -1], [-2, 2]], [-1, 2], 0, [1, 2]),
             quadruple([[1, F(-1, 2)], [-1, F(3, 4)]], [F(-1, 2), F(1, 2)], 0, [1, 2])]
    for quad in quads:
        got = nahm_sum(quad, 20)
        want = nahm_naive(quad.A, quad.b, quad.c, quad.d, 20, box=14)
        assert {F(k, got.den): F(v) for k, v in got.coeffs.items()} == want, quad


def test_fractional_c_only_shifts():
    q1 = quadruple([[2]], [0], F(-1, 24), [1])
    s1 = nahm_sum(q1, 10)
    s0 = nahm_sum(RR, 10 + F(1, 24))
    assert eq_to_order(s1, s0.shift(F(-1, 24)), 10) is None


# -- lattice enumeration -------------------------------------------------------

def test_enumerate_rank1():
    pts = list(enumerate_lattice(RR, 5))
    assert pts == [((0,), F(0)), ((1,), F(1)), ((2,), F(4))]


def test_enumerate_negative_offdiagonal_terminates_and_is_complete():
    quad = quadruple([[1, F(-1, 2)], [-1, 1]], [0, 0], 0, [1, 2])
    pts = dict(enumerate_lattice(quad, 12))
    # naive box scan
    expected = {}
    for i in range(40):
        for j in range(40):
            e = F(i * i) / 2 - i * j + j * j
            if e < 12:
                expected[(i, j)] = e
    assert pts == expected


def test_enumerate_no_duplicates_no_overweight():
    quad = quadruple([[2, -1], [-2, 2]], [-1, 2], 0, [1, 2])
    seen = set()
    for n, e in enumerate_lattice(quad, 15):
        assert n not in seen
        seen.add(n)
        assert e < 15


def test_enumerate_order_zero_is_empty():
    # strictly-below semantics: at order 0 even n = 0 (exponent 0) is excluded
    assert list(enumerate_lattice(RR, 0)) == []


# exam12-1's quadruple: E(n) < 0 at (1, 0) and (2, 0), so the sum has terms
# below q^c and orders at or below c are not empty
EXAM12 = quadruple([[1, F(-1, 2)], [-1, F(3, 2)]], [F(-3, 2), F(5, 2)], 0, [1, 2])


@pytest.mark.parametrize("order", [F(-1, 2), F(0)])
def test_orders_at_or_below_c_match_naive(order):
    got = nahm_sum(EXAM12, order)
    want = nahm_naive(EXAM12.A, EXAM12.b, EXAM12.c, EXAM12.d, order, box=10)
    assert {F(k, got.den): F(v) for k, v in got.coeffs.items()} == want == {F(-1): 2}
    shifted = quadruple(EXAM12.A, EXAM12.b, 1, EXAM12.d)
    assert nahm_sum(shifted, order + 1).coeffs == {0: 2}


def test_box_radius_holds_for_nonpositive_bounds():
    for bound in (F(-1, 2), F(0)):
        R = box_radius(EXAM12, bound)
        pts = [n for n, _ in enumerate_lattice(EXAM12, bound)]
        assert pts and max(max(n) for n in pts) <= R


def _gershgorin_box(M, b, bound) -> int:
    """Box radius from lambda_min >= g := min_i (M_ii - sum_{j != i} |M_ij|):
    E(n) >= g x^2 / 2 - ||b||_1 x with x = max_i n_i."""
    r = len(M)
    g = min(M[i][i] - sum(abs(M[i][j]) for j in range(r) if j != i) for i in range(r))
    l1 = float(sum(abs(x) for x in b))
    return int((l1 + sqrt(l1 * l1 + 2 * g * max(float(bound), 0.0))) / g) + 1


@st.composite
def _dominant_quadruples(draw):
    r = draw(st.integers(1, 3))
    off = {(i, j): draw(st.integers(-2, 2)) for i in range(r) for j in range(i + 1, r)}
    M = [[0] * r for _ in range(r)]
    for (i, j), v in off.items():
        M[i][j] = M[j][i] = v
    for i in range(r):
        M[i][i] = sum(abs(M[i][j]) for j in range(r) if j != i) + draw(st.integers(1, 2))
    d = [draw(st.integers(1, 3)) for _ in range(r)]
    small = st.fractions(min_value=-2, max_value=2, max_denominator=4)
    b = [draw(small) for _ in range(r)]
    c = draw(st.fractions(min_value=-1, max_value=1, max_denominator=3))
    quad = quadruple([[F(M[i][j], d[j]) for j in range(r)] for i in range(r)], b, c, d)
    order = c + F(draw(st.integers(-2, 20)), 2)
    mask = draw(st.one_of(st.none(), st.tuples(*[st.sampled_from([None, 0, 1])] * r)))
    return quad, M, order, mask


@settings(max_examples=60, deadline=None)
@given(_dominant_quadruples())
def test_enumeration_complete_against_gershgorin_box(case):
    quad, M, order, mask = case
    bound = order - quad.c
    R = _gershgorin_box(M, quad.b, bound)
    want = []
    for n in iproduct(range(R + 1), repeat=quad.rank):   # lexicographic
        if mask is not None and any(p is not None and x % 2 != p for p, x in zip(mask, n)):
            continue
        e = sum(F(M[i][j], 2) * n[i] * n[j] for i in range(quad.rank)
                for j in range(quad.rank)) + sum(x * y for x, y in zip(quad.b, n))
        if e < bound:
            want.append((n, e))
    got = list(enumerate_lattice(quad, order, mask))
    assert got == want
    assert all(p[0] < q[0] for p, q in zip(got, got[1:])), "not strictly lexicographic"


@settings(max_examples=30, deadline=None)
@given(_dominant_quadruples(), st.data())
def test_sums_against_naive_oracles(case, data):
    quad, M, order, mask = case
    r = quad.rank
    R = _gershgorin_box(M, quad.b, order - quad.c)
    got = nahm_sum(quad, order, mask=mask)
    want = nahm_naive(quad.A, quad.b, quad.c, quad.d, order, box=R, mask=mask)
    assert {F(k, got.den): F(v) for k, v in got.coeffs.items()} == want

    w = data.draw(st.tuples(*[st.integers(0, 2)] * r))
    deg = data.draw(st.integers(0, 4))
    p = nahm_sum_param(quad, order, deg, w, mask=mask)
    coeffs = nahm_param_naive(quad.A, quad.b, quad.c, quad.d, order, R,
                              w, deg, mask=mask)
    assert _param_coeffs(p) == coeffs
    assert p.order == order
    # the exponent lattice comes from every point below the order, masked or not
    assert [x.den for x in p.rows] == [x.den for x in nahm_sum_param(quad, order, deg, w).rows]


def _param_coeffs(p) -> dict:
    """{exponent: {u-power: coefficient}} of a ParamSeries."""
    out = {}
    for a, row in enumerate(p.rows):
        for e, v in row.items():
            out.setdefault(e, {})[a] = F(v)
    return out


RANK3 = [quadruple([[2, -1, 0], [-1, 2, -1], [0, -1, 2]], [F(-1, 2), 0, F(1, 2)],
                   F(1, 3), [1, 1, 1]),
         quadruple([[4, 1, 1], [2, 2, 1], [2, 1, 2]], [-1, 0, 1], 0, [1, 2, 2])]


@pytest.mark.parametrize("quad", RANK3)
@pytest.mark.parametrize("mask", [None, (0, None, None), (1, None, 0)])
def test_rank3_sums_against_naive(quad, mask):
    order = 8
    got = nahm_sum(quad, order, mask=mask)
    want = nahm_naive(quad.A, quad.b, quad.c, quad.d, order, box=8, mask=mask)
    assert {F(k, got.den): F(v) for k, v in got.coeffs.items()} == want
    p = nahm_sum_param(quad, order, 4, (1, 0, 2), mask=mask)
    coeffs = nahm_param_naive(quad.A, quad.b, quad.c, quad.d, order, 8,
                              (1, 0, 2), 4, mask=mask)
    assert _param_coeffs(p) == coeffs


# Its first prefix n_0 = 0 reaches no point of least E, so the lowest slot
# of the window belongs to the later prefix n_0 = 1.
DIPPED = quadruple([[4, 2], [6, 4]], [-3, -2], 0, [1, 3])


def test_dipped_first_prefix_lies_above_the_minimum():
    pts = list(enumerate_lattice(DIPPED, 12))
    assert min(e for n, e in pts if n[0] == 0) == 0
    assert min(e for _, e in pts) == -1


@pytest.mark.parametrize("quad", [DIPPED, *RANK3])
def test_level_sum_matches_naive_past_a_dipped_prefix(quad):
    order = 12
    got = nahm_sum(quad, order)
    want = nahm_naive(quad.A, quad.b, quad.c, quad.d, order, box=12)
    assert {F(k, got.den): F(v) for k, v in got.coeffs.items()} == want


def _registry_quadruples() -> list:
    """Each distinct quadruple of a registry NahmSide, named by its first record."""
    seen = {}
    for rec in registry():
        for side in (rec.lhs_data, rec.rhs_data):
            if isinstance(side, NahmSide):
                seen.setdefault(side.quad, rec.id)
    return [pytest.param(quad, id=rid) for quad, rid in seen.items()]


def _box_scan(quad, bound) -> list:
    """(n, E(n)) with E(n) < bound over the box range(box_radius + 1)^r, in
    lexicographic order, E evaluated term by term on integers scaled by D."""
    m = quad.symmetrized()
    r = quad.rank
    D = lcm(*(x.denominator for x in [*quad.b, *(y / 2 for row in m for y in row)]))
    M = [[int(m[i][j] * D / 2) for j in range(r)] for i in range(r)]
    b = [int(x * D) for x in quad.b]
    out = []
    for n in iproduct(range(box_radius(quad, bound) + 1), repeat=r):
        e = sum(M[i][j] * n[i] * n[j] for i in range(r) for j in range(r)) \
            + sum(x * y for x, y in zip(b, n))
        if e < bound * D:
            out.append((n, F(e, D)))
    return out


@pytest.mark.parametrize("quad", [
    *_registry_quadruples(), pytest.param(RANK3[0], id="rank3-a2"),
    pytest.param(RANK3[1], id="rank3-b"), pytest.param(EXAM12, id="exam12"),
    pytest.param(DIPPED, id="dipped")])
def test_enumeration_matches_box_scan_on_real_matrices(quad):
    """The matrices in use, not only diagonally dominant ones as in the
    Hypothesis test: every registry Nahm side and the hand-made cases, at
    order c + 30 and at orders c + E for attained values E, where a point
    with E(n) equal to the bound must be left out.  The scan at bound 30
    serves the lower bounds too, as their boxes lie inside its box."""
    top = _box_scan(quad, F(30))
    values = sorted({e for _, e in top})
    for mask in (None, (0,), (1,)):
        mask = mask and mask + (None,) * (quad.rank - 1)
        for bound in (F(30), *values[::max(1, len(values) // 6)]):
            want = [(n, e) for n, e in top if e < bound
                    and (mask is None or n[0] % 2 == mask[0])]
            assert list(enumerate_lattice(quad, quad.c + bound, mask)) == want, (mask, bound)


def test_oversized_window_refused_before_it_is_allocated(monkeypatch):
    # b = 10^-11 puts the two points below q^3 on a lattice of 3*10^11 slots
    with pytest.raises(ValueError, match="window slots"):
        nahm_sum(quadruple([[2]], [F(1, 10 ** 11)], 0, [1]), 3)
    # the bound counts every row: RR below q^10 has 10 slots, 3 rows at cap 2
    monkeypatch.setattr(products, "MAX_WINDOW", 30)
    nahm_sum_param(RR, 10, 2, (1,))
    monkeypatch.setattr(products, "MAX_WINDOW", 29)
    with pytest.raises(ValueError, match="3 x 10 window slots"):
        nahm_sum_param(RR, 10, 2, (1,))


def test_long_row_refused_from_its_range(monkeypatch):
    # A = 10^-11 puts the 774,597 points n <= 774,596 below q^3 on one row:
    # S' = n^2 spans 774,596^2 from its vertex n = 0 to its far end, over
    # gcd(W, 0, 774,596^2) = 16 with W = 2*10^11, so it is refused unbuilt
    def no_array(*args, **kwargs):
        raise AssertionError("a row array was built")

    monkeypatch.setattr(nahm.np, "arange", no_array)
    with pytest.raises(ValueError, match="1 x 1 x 37499935202 window slots"):
        nahm_sum(quadruple([[F(1, 10 ** 11)]], [0], 0, [1]), 3)
    with pytest.raises(AssertionError, match="a row array was built"):
        nahm_sum(RR, 3)         # a row that fits is built by np.arange
    # a listing has no window: two points 10^20 + 1 slots apart are listed
    monkeypatch.undo()
    quad = quadruple([[2]], [F(1, 10 ** 20)], 0, [1])
    assert list(enumerate_lattice(quad, 3)) == [((0,), 0), ((1,), 1 + F(1, 10 ** 20))]


@pytest.mark.parametrize("w", [F(1, 2), 0.5, 1.5, True])
def test_noninteger_weight_refused(w):
    # np.int64 once truncated 1/2 and 0.5 to the unweighted sum in row 0 and
    # 1.5 to the weight-1 rows
    with pytest.raises(ValueError, match="weights must be nonnegative ints"):
        nahm_sum_param(RR, 10, 4, (w,))


def test_float_quadruple_entry_refused():
    # 0.1 was read as 3602879701896397/36028797018963968; as b, it was then
    # refused as "1 x 1 x 335067812276364904 window slots", naming no input
    for args, what in ((([[0.5]], [0], 0, [1]), "an entry of A"),
                       (([[2]], [0.1], 0, [1]), "an entry of b"),
                       (([[2]], [0], 0.1, [1]), "c")):
        with pytest.raises(ValueError, match=f"^{what} must be .* not the float"):
            quadruple(*args)
        with pytest.raises(ValueError, match=f"^{what} must be .* not the float"):
            nahm.NahmQuadruple(*args)
    assert quadruple([["1/2"]], ["1/10"], F(1, 10), [1]) == quadruple(
        [[F(1, 2)]], [F(1, 10)], "1/10", [1])


def test_param_window_counts_only_the_grades_kept(monkeypatch):
    # RR below q^10 has n = 0..3, so a cap of 50 keeps the grades 0..3 only
    monkeypatch.setattr(products, "MAX_WINDOW", 40)
    p = nahm_sum_param(RR, 10, 50, (1,))
    assert [row.coeffs for row in p.rows[:4]] == [
        row.coeffs for row in nahm_sum_param(RR, 10, 3, (1,)).rows]
    assert not any(row.coeffs for row in p.rows[4:])
    monkeypatch.setattr(products, "MAX_WINDOW", 39)
    with pytest.raises(ValueError, match="1 x 4 x 10 window slots"):
        nahm_sum_param(RR, 10, 50, (1,))


def test_rank_two_lattice_refused_while_it_is_listed(monkeypatch):
    # every prefix n_0 is a row of at least ceil(order) slots, so the walk
    # stops at the first prefix that overflows the window
    quad = quadruple([[2, 1], [1, 2]], [0, 0], 0, [1, 1])
    seen, real = [], nahm._rows

    def spy(*args):
        for row in real(*args):
            seen.append(row[0])
            yield row

    monkeypatch.setattr(nahm, "_rows", spy)
    with pytest.raises(ValueError, match="3 x 1 x 8000000 window slots"):
        nahm_sum(quad, 8_000_000)
    assert seen == [(0,), (1,), (2,)]
    seen.clear()
    monkeypatch.setattr(products, "MAX_WINDOW", 500)
    with pytest.raises(ValueError, match="6 x 1 x 100 window slots"):
        nahm_sum(quad, 100)
    full = [prefix for prefix, _, _ in real(quad, 100)]
    assert seen == full[:6] == [(x,) for x in range(6)] and len(full) > 6
    # the first row, of n = 0, is refused before the walk lists it: on rank
    # one it is the whole lattice, 2*10^9 points at order 4*10^18
    seen.clear()
    monkeypatch.setattr(products, "MAX_WINDOW", 99)
    with pytest.raises(ValueError, match="1 x 1 x 100 window slots"):
        nahm_sum(RR, 100)
    assert seen == []


def test_integer_keys_on_a_lattice_of_halves_and_thirds():
    # halves in A and thirds in b: W > 1, and E(n) = S'/W reduces to a
    # lattice of its own, on which the sum keys its exponents
    quad = quadruple([[1, F(1, 2)], [1, F(3, 2)]], [F(1, 3), F(-2, 3)], F(1, 5), [1, 2])
    W = quad._squares[0]
    assert W > 6
    for n, e in enumerate_lattice(quad, 12):
        assert e == sum(quad.A[i][j] * quad.d[j] * n[i] * n[j] for i in range(2)
                        for j in range(2)) / 2 + n[0] * quad.b[0] + n[1] * quad.b[1]
    for mask in (None, (1, None), (None, 0)):
        got = nahm_sum(quad, 12, mask)
        want = nahm_naive(quad.A, quad.b, quad.c, quad.d, 12, box=14, mask=mask)
        assert {F(k, got.den): F(v) for k, v in got.coeffs.items()} == want, mask
        assert lcm(W, 5) % got.den == 0


def test_int64_and_python_int_walks_meet_at_2_to_62(monkeypatch):
    # W = 2^56, so W (order - c) reaches 2^62 at order 64: below it the walk
    # runs on int64, from there on Python ints; both give the sum of RR
    quad = quadruple([[2, 1], [1, 2 ** 55]], [0, 0], 0, [1, 1])
    assert quad._squares[0] == 2 ** 56
    seen, real = [], nahm._rows

    def spy(q, *args):
        for row in real(q, *args):
            seen.append((q, row[2].dtype.name))
            yield row

    monkeypatch.setattr(nahm, "_rows", spy)
    for order, ints in ((63, "int64"), (64, "int64"), (65, "object"), (67, "object")):
        seen.clear()
        assert nahm_sum(quad, order) == nahm_sum(RR, order)
        assert nahm_sum(quad, order, (1, None)) == nahm_sum(RR, order, (1,))
        assert list(enumerate_lattice(quad, order)) == [
            ((*n, 0), e) for n, e in enumerate_lattice(RR, order)]
        assert {dtype for q, dtype in seen if q == quad} == {ints}
    # past 2^62 a window too large is refused as below it, not by an OverflowError
    with pytest.raises(ValueError, match="1 x 1 x 100000000000000000002 window slots"):
        nahm_sum(quadruple([[2]], [F(1, 10 ** 20)], 0, [1]), 3)


# -- the level-by-level kernel -------------------------------------------------

ETA24 = (pf(1, 1, 1, None, -24),)               # 1 / (q; q)_inf^24
THETA = SingleSum(F(1), F(0), F(0), ())         # sum of q^(n^2)
# (q; q^2)_n / (-q; q)_n: a numerator rung and 1/(1 + q^e), both with signs
SIGNED = SingleSum(F(1), F(0), F(0), (sf(1, 1, 2, 0, 1), sf(-1, 1, 1, 0, 1, -1)))


def _runs(monkeypatch) -> list:
    """The dtype of every kernel run from here on."""
    seen, real = [], nahm._horner

    def spy(plan, ladders, den, shape, dtype):
        seen.append(np.dtype(dtype).name)
        return real(plan, ladders, den, shape, dtype)

    monkeypatch.setattr(nahm, "_horner", spy)
    return seen


@pytest.mark.parametrize("order,runs", [
    (24, ["float64"]),                       # below 2^53 the float run is exact
    (26, ["float64", "int64"]),              # below 2^63 the residues are
    (45, ["float64", "int64"]),              # nearest in class past 2^63
    (200, ["float64", "object"]),            # past what the shadow can place
])
def test_each_exact_path_matches_product_times_naive_body(monkeypatch, order, runs):
    # below the order, 1/(q; q)_order^24 streamed as a ladder of the sum is ETA24
    seen = _runs(monkeypatch)
    got = single_sum(SingleSum(F(1), F(0), F(0), (sf(1, 1, 1, order, 0, -24),)), order)
    assert seen == runs
    body = {int(e): int(v) for e, v in naive_single_sum(THETA, order).items()}
    want = product(ETA24, order) * QSeries(body, 1, order)
    assert eq_to_order(got, want, order) is None
    assert eq_to_order(combo((1, 0, ETA24, THETA)).build(order), want, order) is None
    assert (max(got.coeffs.values()) >= 2 ** 63) == (order >= 45)


def test_signed_ladders_take_the_residues(monkeypatch):
    seen = _runs(monkeypatch)
    got = single_sum(SIGNED, 60)
    assert seen == ["float64", "int64"]
    assert min(got.coeffs.values()) < 0
    assert {F(k, got.den): F(v) for k, v in got.coeffs.items()} == \
        naive_single_sum(SIGNED, 60)


@pytest.mark.parametrize("build", [
    lambda: nahm_sum(CAPPARELLI, 60, (1, None)),
    lambda: single_sum(SIGNED, 60),
    lambda: nahm_sum_param(RANK3[0], 12, 4, (1, 0, 2)).rows,
])
def test_declined_recovery_falls_back_to_python_ints(monkeypatch, build):
    want = build()
    monkeypatch.setattr(products, "exact_row", lambda *args: None)
    seen = _runs(monkeypatch)
    assert build() == want
    assert seen[-1] == "object"


def test_exact_row_signed_bound():
    # a signed run's residues hold while f (1 + adds 2^-51) stays below 2^63
    adds = 2 ** 10
    top = 2 ** 114 // (2 ** 51 + adds) - 1
    below = float(top)
    while int(below) > top:
        below = nextafter(below, 0)
    above = nextafter(float(top + 1), inf)
    residues = np.array([-7, 5], dtype=np.int64)
    assert exact_row(residues, np.array([below, 5.0]), adds, False) == [-7, 5]
    assert exact_row(residues, np.array([above, 5.0]), adds, False) is None
    # a sign-free run still places the residue by its nearest integer there
    assert exact_row(residues, np.array([above, 5.0]), adds) is not None


def test_unplaceable_shadow_skips_the_int64_run():
    # a signed run past 2^63: the shadow shows exact_row cannot place its
    # residues, so the int64 run is not made
    seen = []

    def run(dtype):
        seen.append(np.dtype(dtype).name)
        arr = np.ones(2, dtype)
        for _ in range(70):
            arr += arr
        arr[0] -= 3
        return arr, 70

    assert exact_run(run, nonneg=False) == [2 ** 70 - 3, 2 ** 70]
    assert seen == ["float64", "object"]


# -- parameters ----------------------------------------------------------------

def test_param_sum_cao_wang():
    quad = quadruple([[2, 1], [2, 2]], [-1, -1], 0, [1, 2])
    lhs = nahm_sum_param(quad, 25, 25, (1, 2))
    rhs = poch_param(-1, 0, 1, 25, 25)
    assert eq_to_order_param(lhs, rhs, 25) is None


def test_param_substitution_matches_shifted_quadruple():
    quad = quadruple([[2, 1], [2, 2]], [-1, -1], 0, [1, 2])
    # every point of grade n_0 + 2 n_1 > 30 lies above q^25, so none is discarded
    p = nahm_sum_param(quad, 25, 30, (1, 2))
    got = specialize(p, 1)
    shifted = quadruple([[2, 1], [2, 2]], [0, 1], 0, [1, 2])
    want = nahm_sum(shifted, got.order)
    assert eq_to_order(got, want, got.order) is None


def test_param_degree_zero_slice():
    quad = quadruple([[2, 1], [2, 2]], [-1, -1], 0, [1, 2])
    p = nahm_sum_param(quad, 12, 25, (1, 2))
    # u-degree 0 means n = (0, 0): the constant series 1
    assert p.rows[0].coeffs == {0: 1}


@pytest.mark.parametrize("order", [10, 0])
def test_negative_degree_cap_refused(order):
    quad = quadruple([[2, 1], [2, 2]], [-1, -1], 0, [1, 2])
    with pytest.raises(ValueError, match="u-degree cap must be nonnegative, not -1"):
        poch_param(1, 1, 2, order, -1)
    with pytest.raises(ValueError, match="u-degree cap must be nonnegative, not -1"):
        nahm_sum_param(quad, order, -1, (1, 2))


# -- duality -------------------------------------------------------------------

def test_dual_of_capparelli_data():
    quad = quadruple([[4, 2], [6, 4]], [0, 0], F(-1, 24), [1, 3])
    d = dual_quadruple(quad)
    assert d.A == ((F(1), F(-1, 2)), (F(-3, 2), F(1)))
    assert d.b == (0, 0)
    assert d.c == F(-1, 8)
    assert d.d == (1, 3)


def test_dual_is_involution_on_catalog():
    for fam in FAMILIES:
        for quad in fam.quadruples(c=F(1, 7)):
            assert dual_quadruple(dual_quadruple(quad)) == quad


def test_dual_generic_b_family():
    for a in (F(0), F(1), F(2), F(5, 3)):
        quad = quadruple([[2, 1], [2, 2]], [(a - 3) / 2, a], 0, [1, 2])
        d = dual_quadruple(quad)
        assert d.A == ((F(1), F(-1, 2)), (F(-1), F(1)))
        assert d.b == (F(-3, 2), (a + 3) / 2)


def test_dual_pairs_match_printed_data():
    for left, right in DUAL_PAIRS:
        assert len(left.bs) == len(right.bs)
        for b_left, b_right in zip(left.bs, right.bs):
            quad = quadruple(left.A, b_left, 0, left.d)
            dq = dual_quadruple(quad)
            assert dq.A == quadruple(right.A, b_right, 0, right.d).A
            assert dq.b == tuple(F(x) for x in b_right)
            assert dq.d == tuple(right.d)


def test_singular_matrix_raises():
    # a valid quadruple always has invertible A, so exercise the helper directly
    from nahm_forge.nahm import _mat_inv
    with pytest.raises(SingularMatrix):
        _mat_inv([[F(1), F(2)], [F(2), F(4)]])


@settings(max_examples=60, deadline=None)
@given(st.integers(-3, 3), st.integers(-3, 3), st.integers(1, 5),
       st.integers(1, 3), st.integers(1, 3),
       st.fractions(min_value=-2, max_value=2), st.fractions(min_value=-2, max_value=2),
       st.fractions(min_value=-1, max_value=1))
def test_dual_involution_random(p, r, s, d1, d2, b1, b2, c):
    # build A with A*diag(d) symmetric: pick symmetric S, set A = S*diag(d)^-1
    sym = [[F(s + abs(p) + abs(r) + 1), F(p)], [F(p), F(s + abs(p) + 1)]]
    # ensure positive definiteness by diagonal dominance above
    A = [[sym[i][j] / [d1, d2][j] for j in range(2)] for i in range(2)]
    quad = quadruple(A, [b1, b2], c, [d1, d2])
    assert dual_quadruple(dual_quadruple(quad)) == quad
