from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nahm_forge.errors import OrderTooLarge, ZeroLeadingTerm
from nahm_forge.series import (
    ParamSeries, QSeries, align, eq_to_order, eq_to_order_param,
)
from nahm_forge.products import (
    J, Jm, eta_quotient, jacobi_triple, pf, poch, poch_param, product,
)
from nahm_forge.nahm import enumerate_lattice, nahm_sum, nahm_sum_param, quadruple
from nahm_forge.recognizer import hunt
from nahm_forge.zlaurent import double_sum_ct

from _oracles import partitions_from_parts, partitions_gap2, ser_add, ser_mul


def qs(pairs, den=1, order=10):
    return QSeries({k: v for k, v in pairs}, den, order)


# -- the one exact-value gate ------------------------------------------------

RR = quadruple([[2]], [0], 0, [1])
_EXACT_INPUTS = [
    ("the order", lambda v: nahm_sum(RR, v)),
    ("the order", lambda v: nahm_sum_param(RR, v, 2, (1,))),
    ("the order", lambda v: list(enumerate_lattice(RR, v))),
    ("the order", lambda v: product((pf(1, 1, 1),), v)),
    ("the order", lambda v: poch(pf(1, 1, 1), v)),
    ("the order", lambda v: J(1, 5, v)),
    ("the order", lambda v: Jm(1, v)),
    ("the order", lambda v: eta_quotient({1: 1}, v)),
    ("the order", lambda v: jacobi_triple(1, 1, 3, v)),
    ("the order", lambda v: poch_param(-1, 0, 1, v, 2)),
    ("the order", lambda v: double_sum_ct(0, 0, v)),
    ("the order", lambda v: hunt([[2]], [1], [(0,)], v)),
    ("the order", lambda v: QSeries({}, 1, v)),
    ("an entry of A", lambda v: quadruple([[v]], [0], 0, [1])),
    ("an entry of b", lambda v: quadruple([[2]], [v], 0, [1])),
    ("c", lambda v: quadruple([[2]], [0], v, [1])),
    ("base a", lambda v: pf(1, v, 1)),
    ("step m", lambda v: pf(1, 1, v)),
]


@pytest.mark.parametrize("value, kind", [(0.1, "float"), (True, "bool")])
@pytest.mark.parametrize("what, call", _EXACT_INPUTS)
def test_exact_inputs_refuse_a_float_or_a_bool(what, call, value, kind):
    # 0.1 was once read as 3602879701896397/36028797018963968, and True as 1
    with pytest.raises(ValueError, match=f"^{what} must be .* not the {kind} {value!r}$"):
        call(value)


def test_a_bool_symmetrizer_entry_is_no_integer():
    # d keeps its own check (test_quadruple_validation); True was once read as 1
    with pytest.raises(ValueError, match="symmetrizer entries must be integers"):
        quadruple([[2]], [0], 0, [True])


# -- alignment ---------------------------------------------------------------

def test_align_example_lcm():
    s = QSeries.monomial(F(1, 2), 1, 10)
    t = QSeries.monomial(F(1, 3), 1, 10)
    a, b = align(s, t)
    assert a.den == b.den == 6
    assert a.coeffs == {3: 1}
    assert b.coeffs == {2: 1}


def test_align_identity_case():
    s = qs([(0, 1), (1, 1)])
    a, b = align(s, s)
    assert a is s and b is s


def test_align_min_order_rule():
    s = QSeries({0: 1, 1: 1}, 1, 10)
    t = QSeries({0: 1}, 4, 5)
    assert (s + t).order == 5
    assert (s + t).den == 4


# -- ring operations ---------------------------------------------------------

def test_add_cancels():
    s = qs([(0, 1), (1, 1)])
    t = qs([(0, 1), (1, -1)])
    assert (s + t).coeffs == {0: 2}


def test_mul_telescopes():
    geo = QSeries({k: 1 for k in range(10)}, 1, 10)
    one_minus_q = qs([(0, 1), (1, -1)])
    assert (one_minus_q * geo).coeffs == {0: 1}


def test_shift_half():
    s = qs([(0, 1), (1, 1)])
    t = s.shift(F(1, 2))
    assert t.den == 2 and t.coeffs == {1: 1, 3: 1}
    assert t.order == F(21, 2)


def test_invert_geometric():
    one_minus_q = QSeries({0: 1, 1: -1}, 1, 12)
    inv = one_minus_q.invert()
    assert inv.coeffs == {k: 1 for k in range(12)}


def test_invert_constant_two():
    two = QSeries.const(2, 8)
    assert two.invert().coeffs == {0: F(1, 2)}


def test_invert_shifts_leading_exponent():
    s = QSeries({1: 1, 2: -1}, 1, 12)   # q(1-q)
    inv = s.invert()
    assert inv.lead() == (F(-1), 1)
    assert inv.order == 12 - 2
    prod = s * inv
    assert eq_to_order(prod, QSeries.one(prod.order), prod.order) is None


def test_invert_zero_raises():
    with pytest.raises(ZeroLeadingTerm):
        QSeries.zero(5).invert()


# -- comparison --------------------------------------------------------------

def test_eq_to_order_equal():
    s = qs([(0, 1), (1, 1)])
    t = QSeries({0: 1, 1: 1, 5: 1}, 1, 10)
    assert eq_to_order(s, t, 5) is None


def test_eq_to_order_mismatch():
    s = qs([(0, 1), (1, 1)])
    t = qs([(0, 1), (1, 2)])
    m = eq_to_order(s, t, 5)
    assert (m.exponent, m.lhs, m.rhs) == (1, 1, 2)


def test_eq_to_order_rejects_large_order():
    with pytest.raises(OrderTooLarge):
        eq_to_order(qs([(0, 1)], order=3), qs([(0, 1)], order=10), 5)


def test_rr_identity_against_partition_oracles():
    # both sides frozen from partition-counting oracles
    lhs = nahm_sum(quadruple([[2]], [0], 0, [1]), 50)
    rhs = product((pf(1, 1, 5, None, -1), pf(1, 4, 5, None, -1)), 50)
    assert eq_to_order(lhs, rhs, 50) is None
    parts = tuple(p for p in range(1, 50) if p % 5 in (1, 4))
    for n in range(50):
        expected = partitions_from_parts(n, parts)
        assert lhs.coeff(n) == expected
        assert rhs.coeff(n) == expected
        assert partitions_gap2(n) == expected


# -- substitution and dissection ---------------------------------------------

def test_power_substitute():
    s = qs([(0, 1), (1, 2)])
    t = s.power_substitute(3)
    assert t.coeffs == {0: 1, 3: 2} and t.order == 30


def test_subst_neg_and_dissection():
    s = QSeries({0: 1, 1: 1, 2: 3, 3: 5}, 1, 10)
    t = s.subst_neg()
    assert t.coeffs == {0: 1, 1: -1, 2: 3, 3: -5}
    even = QSeries({k: v for k, v in s.coeffs.items() if k % 2 == 0}, 1, s.order)
    odd = QSeries({k: v for k, v in s.coeffs.items() if k % 2 == 1}, 1, s.order)
    assert t == even - odd and s == even + odd


# -- ParamSeries -------------------------------------------------------------

def ps(rows, deg, order=10):
    """ParamSeries from {exponent numerator: coefficient} dicts, one per u-power."""
    return ParamSeries.polynomial([QSeries(r, 1, order) for r in rows], deg)


def test_param_requires_nonnegative_powers():
    quad = quadruple([[2]], [0], 0, [1])
    with pytest.raises(ValueError):
        nahm_sum_param(quad, 5, 3, (-1,))


def test_param_rows_share_one_order_and_cap():
    with pytest.raises(ValueError):
        ParamSeries([QSeries.one(5), QSeries.one(6)])
    with pytest.raises(ValueError):
        ps([{0: 1}], 1) * ps([{0: 1}], 2)


def test_eq_to_order_param_least_exponent_then_lowest_power():
    s = ps([{3: 1}, {3: 1}, {1: 1}], 2)
    t = ps([{3: 2}, {3: 5}, {1: 1}], 2)
    m = eq_to_order_param(s, t, 10)
    assert (m.exponent, m.lhs, m.rhs) == (3, 1, 2)
    assert eq_to_order_param(s, s, 10) is None


# -- hypothesis: ring laws ----------------------------------------------------

coeffs_st = st.integers(min_value=-4, max_value=4)


@st.composite
def series_st(draw):
    den = draw(st.sampled_from([1, 1, 2, 3]))
    order = F(draw(st.integers(min_value=5, max_value=60)))
    n = draw(st.integers(min_value=0, max_value=6))
    ks = draw(st.lists(st.integers(min_value=-8, max_value=int(order) * den - 1),
                       min_size=n, max_size=n, unique=True))
    cs = draw(st.lists(coeffs_st, min_size=n, max_size=n))
    return QSeries({k: c for k, c in zip(ks, cs) if c}, den, order)


@settings(max_examples=120, deadline=None)
@given(series_st(), series_st())
def test_add_commutes(a, b):
    assert a + b == b + a


@settings(max_examples=120, deadline=None)
@given(series_st(), series_st())
def test_mul_commutes(a, b):
    assert a * b == b * a


@settings(max_examples=120, deadline=None)
@given(series_st(), series_st(), series_st())
def test_mul_associates_up_to_order(a, b, c):
    x = (a * b) * c
    y = a * (b * c)
    n = min(x.order, y.order)
    assert eq_to_order(x.truncate(n), y.truncate(n), n) is None


@settings(max_examples=120, deadline=None)
@given(series_st(), series_st(), series_st())
def test_distributivity_up_to_order(a, b, c):
    x = a * (b + c)
    y = a * b + a * c
    n = min(x.order, y.order)
    assert eq_to_order(x.truncate(n), y.truncate(n), n) is None


@settings(max_examples=100, deadline=None)
@given(series_st())
def test_invert_two_sided(s):
    if s.lead() is None:
        return
    inv = s.invert()
    left = s * inv
    right = inv * s
    n = min(left.order, right.order)
    if n <= 0:
        return
    assert eq_to_order(left.truncate(n), QSeries.one(n), n) is None
    assert eq_to_order(right.truncate(n), QSeries.one(n), n) is None


@st.composite
def param_series_st(draw):
    order = F(draw(st.integers(min_value=4, max_value=20)))
    rows = [{}, {}, {}]
    for _ in range(draw(st.integers(min_value=0, max_value=5))):
        k = draw(st.integers(min_value=-3, max_value=int(order) - 1))
        c = draw(coeffs_st)
        if c:
            rows[draw(st.integers(min_value=0, max_value=2))][k] = c
    return ps(rows, 2, order)


def _least(p):
    """Least exponent over every row of p, or its order if p is zero."""
    return min((e for row in p.rows for e, _ in row.items()), default=p.order)


@settings(max_examples=100, deadline=None)
@given(param_series_st(), param_series_st())
@example(ps([{}, {}, {0: 1}], 2), ps([{}, {3: 1}], 2))     # u^3 q^3 past the cap
@example(ps([{-1: 1}], 2), ps([{}, {3: 1}, {0: 1}], 2))    # a negative lead
def test_param_mul_is_the_row_convolution(p, r):
    got = p * r
    assert got.order == min(p.order + _least(r), r.order + _least(p))
    for c, row in enumerate(got.rows):
        want = {}
        for i in range(c + 1):
            want = ser_add(want, ser_mul(dict(p.rows[i].items()),
                                         dict(r.rows[c - i].items()), got.order))
        assert row.order == got.order
        assert {e: F(v) for e, v in row.items()} == want, c


# -- Euler's q-exponential identities -----------------------------------------

@pytest.mark.parametrize("r", [F(1), F(2), F(1, 2), F(3), F(5, 2)])
def test_euler_first_identity(r):
    # sum_n q^(r n) / (q;q)_n = 1 / (q^r; q)_inf
    order = F(60)
    total = QSeries.zero(order)
    n = 0
    while r * n < order:
        term = product((pf(1, 1, 1, n, -1),), order - r * n).shift(r * n)
        total = total + term
        n += 1
    rhs = product((pf(1, r, 1, None, -1),), order)
    assert eq_to_order(total, rhs, order) is None


@pytest.mark.parametrize("r", [F(1), F(2), F(1, 2), F(3), F(5, 2)])
def test_euler_second_identity(r):
    # sum_n q^(n(n-1)/2 + r n) / (q;q)_n = (-q^r; q)_inf
    order = F(60)
    total = QSeries.zero(order)
    n = 0
    while F(n * (n - 1), 2) + r * n < order:
        e = F(n * (n - 1), 2) + r * n
        term = product((pf(1, 1, 1, n, -1),), order - e).shift(e)
        total = total + term
        n += 1
    rhs = product((pf(-1, r, 1),), order)
    assert eq_to_order(total, rhs, order) is None
