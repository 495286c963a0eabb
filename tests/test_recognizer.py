from dataclasses import replace
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nahm_forge.errors import NotIntegralLattice, ZeroLeadingTerm
from nahm_forge.series import QSeries, eq_to_order
from nahm_forge.products import pf, poch, product, eta_quotient
from nahm_forge.nahm import nahm_sum, quadruple
from nahm_forge.recognizer import (
    ExponentProfile, extract_profile, hunt,
    normalize_and_profile, with_period,
)

from _oracles import peel_naive


def test_rr_profile_mod5():
    s = product((pf(1, 1, 5, None, -1), pf(1, 4, 5, None, -1)), 61)
    prof = extract_profile(s, 60)
    assert prof.delta == 0 and prof.const == 1
    assert prof.is_integral()
    for n, a_n in enumerate(prof.a, start=1):
        assert a_n == (-1 if n % 5 in (1, 4) else 0)
    assert with_period(prof).period == 5


def test_distinct_odd_profile():
    # (-q; q^2)_inf: a_n = -1 for n odd, +1 for n = 2 mod 4, 0 for n = 0 mod 4
    s = poch(pf(-1, 1, 2), 61)
    prof = extract_profile(s, 60)
    for n, a_n in enumerate(prof.a, start=1):
        if n % 2 == 1:
            assert a_n == -1
        elif n % 4 == 2:
            assert a_n == 1
        else:
            assert a_n == 0
    # cross-check against the eta-quotient form (q^2)^2 / ((q)(q^4))
    alt = eta_quotient({2: 2, 1: -1, 4: -1}, 61)
    assert eq_to_order(s, alt, 61) is None
    assert with_period(prof).period == 4


def test_constant_series_profile():
    s = QSeries.const(2, 20)
    prof = extract_profile(s, 15)
    assert prof.delta == 0 and prof.const == 2
    assert all(a == 0 for a in prof.a)


def test_profile_requires_nonzero():
    with pytest.raises(ZeroLeadingTerm):
        extract_profile(QSeries.zero(5), 3)


def test_profile_rejects_fractional_lattice():
    with pytest.raises(NotIntegralLattice):
        extract_profile(QSeries.monomial(F(1, 2), 1, 10), 5)


def test_normalize_and_profile_substitutes():
    s = poch(pf(-1, F(3, 2), 1), 30)   # (-q^(3/2); q)_inf, half-integer lattice
    prof = normalize_and_profile(s, 20)
    assert prof.substitution == 2
    rebuilt = prof.rebuild(min(F(21), prof.rebuild(21).order))
    target = s.power_substitute(2)
    n = min(rebuilt.order, F(21))
    assert eq_to_order(rebuilt.truncate(n), target.truncate(n), n) is None


PRODUCT_CORPUS = [
    (pf(1, 1, 5, None, -1), pf(1, 4, 5, None, -1)),
    (pf(-1, 1, 2),),
    (pf(-1, 2, 6), pf(-1, 3, 6), pf(-1, 4, 6), pf(-1, 6, 6)),
    (pf(1, 1, 1, None, -1),),
    (pf(1, 2, 7), pf(1, 5, 7), pf(1, 7, 7), pf(1, 1, 1, None, -2)),
]


def test_roundtrip_on_product_corpus():
    for factors in PRODUCT_CORPUS:
        s = product(factors, 121)
        prof = extract_profile(s, 120)
        rebuilt = prof.rebuild(121)
        assert eq_to_order(rebuilt, s, 121) is None, factors


# -- the peel against the literal peel of tests/_oracles.py -------------------

def test_peel_matches_naive_on_product_corpus():
    for factors in PRODUCT_CORPUS:
        s = product(factors, 121)
        assert extract_profile(s, 120).a == peel_naive(dict(s.items()), s.order, 120)


@pytest.mark.parametrize("b, const, integral", [
    ((F(-3, 2), F(0)), 1, True),   # family point a = 0, on the doubled lattice
    ((F(-1), F(-1)), 2, True),
    ((F(-1), F(-2)), 3, False),
    ((F(-1), F(1)), 2, False),     # family point a = 1: not integral
    ((F(-1, 2), F(2)), 1, True),   # family point a = 2: integral, unbounded
])
def test_peel_matches_naive_on_criterion7_points(b, const, integral):
    s = nahm_sum(quadruple(((2, 1), (2, 2)), b, 0, (1, 2)), 61).reduce()
    prof = normalize_and_profile(s, 60)
    s = s.power_substitute(s.den)
    assert (prof.const, prof.is_integral(), len(prof.a)) == (const, integral, 60)
    assert prof.a == peel_naive(dict(s.items()), s.order, 60)
    if b[1] == 2:
        assert not prof.is_bounded(10 ** 6)


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=-3, max_value=3),
       st.integers(min_value=-4, max_value=4).filter(bool),
       st.lists(st.integers(min_value=-4, max_value=4), max_size=14))
def test_peel_matches_naive_on_integer_series(delta, c0, body):
    coeffs = {delta + k: v for k, v in enumerate([c0] + body) if v}
    order = delta + len(body) + 1
    s = QSeries(coeffs, 1, order)
    prof = extract_profile(s, len(body) + 3)
    assert (prof.delta, prof.const) == (delta, c0)
    assert prof.a == peel_naive(coeffs, order, len(body) + 3)


# -- the early stop: with max_abs the peel ends at the first bad exponent ------

def assert_stops_at_first_bad_exponent(stopped, full, max_abs):
    """stopped.a is a prefix of full.a whose exponents all pass the bound but
    the last, and the last fails it unless the prefix is the whole peel."""
    a = stopped.a
    assert (stopped.delta, stopped.const) == (full.delta, full.const)
    assert a == full.a[:len(a)] and (a or not full.a)
    assert all(x.denominator == 1 and abs(x) <= max_abs for x in a[:-1])
    if len(a) < len(full.a):
        assert a[-1].denominator != 1 or abs(a[-1]) > max_abs


def test_stopped_peel_is_a_prefix_on_criterion7_points():
    A, d = ((2, 1), (2, 2)), (1, 2)
    grid = [(F(x, 2), F(y)) for x in range(-4, 5) for y in range(-2, 5)]
    short = 0
    for b in grid:
        s = nahm_sum(quadruple(A, b, 0, d), 121).reduce()
        stopped = normalize_and_profile(s, 120, 4)
        full = normalize_and_profile(s, 120)
        assert stopped.substitution == full.substitution
        assert_stops_at_first_bad_exponent(stopped, full, 4)
        short += len(stopped.a) < len(full.a)
    assert short == 52     # the 63 points less the 11 hits


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=-3, max_value=3),
       st.sampled_from((1, -1, 2, -2, 3)),
       st.lists(st.integers(min_value=-4, max_value=4), max_size=14),
       st.integers(min_value=0, max_value=3))
def test_stopped_peel_is_a_prefix_on_integer_series(delta, c0, body, max_abs):
    coeffs = {delta + k: v for k, v in enumerate([c0] + body) if v}
    s = QSeries(coeffs, 1, delta + len(body) + 1)
    assert_stops_at_first_bad_exponent(extract_profile(s, len(body) + 3, max_abs),
                                       extract_profile(s, len(body) + 3), max_abs)


def test_a_family_points_stop_at_their_reasons():
    # README, "Criterion 7 and the a-family": a = 1 is (2 + q)(-q^2; q)_inf,
    # whose unit-normalized profile starts at -1/2; a = 2 runs in q^(1/2)
    # and first passes the bound 4 at a_10 = 6
    A, d = ((2, 1), (2, 2)), (1, 2)
    a1 = normalize_and_profile(nahm_sum(quadruple(A, (-1, 1), 0, d), 121).reduce(), 120, 4)
    assert (a1.substitution, a1.const, a1.a) == (1, 2, (F(-1, 2),))
    a2 = normalize_and_profile(nahm_sum(quadruple(A, (F(-1, 2), 2), 0, d), 121).reduce(), 120, 4)
    assert (a2.substitution, len(a2.a), a2.a[-1]) == (2, 10, 6)
    assert a2.a[:9] == (-1, 1, -1, 1, -2, 2, -3, 2, -4)


exponent_st = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=-3, max_value=3),
       exponent_st.filter(bool),
       st.lists(exponent_st, min_size=1, max_size=10))
def test_rebuild_inverts_peel(delta, const, a):
    prof = ExponentProfile(F(delta), const, tuple(a))
    n = len(a) + 1
    assert extract_profile(prof.rebuild(delta + n), n - 1) == prof


def test_fractional_profile_kept_exact():
    # sqrt of the partition generating function has non-integer exponents
    half = QSeries({0: 1, 1: F(1, 2)}, 1, 30)
    prof = extract_profile(half, 20)
    assert not prof.is_integral()
    rebuilt = prof.rebuild(21)
    assert eq_to_order(rebuilt.truncate(21), half.truncate(21), 21) is None


def test_detect_period_offset():
    prof = ExponentProfile(F(0), F(1), tuple([7, 0, 0] + [-1, 1, 0, 0] * 6))
    out = with_period(prof)
    assert out.period == 4
    assert out.offset >= 1
    table = out.residue_table()
    assert len(table) == 4


def test_detect_period_rejects_disagreement():
    # a lone 5 at a_20 of a 41-term scan: only offsets past it can work, and
    # 20 is the longest preperiod allowed, half the scan
    a = [-1 if i % 2 == 0 else 0 for i in range(41)]
    out = with_period(ExponentProfile(F(0), F(1), tuple(a[:19] + [5] + a[20:])))
    assert (out.period, out.offset) == (2, 20)
    # at a_21, in the middle, the preperiod would pass half the scan
    late = ExponentProfile(F(0), F(1), tuple(a[:20] + [5] + a[21:]))
    assert with_period(late).period is None


def test_long_preperiod_tail_is_no_period():
    # a run of equal values at the end of the scan is no period 1
    prof = ExponentProfile(F(0), F(1), tuple([-1, 0, 2] * 30 + [-1] * 10))
    assert with_period(prof).period is None
    assert with_period(replace(prof, a=prof.a[:-10])).period == 3


def test_detect_period_none_for_growth():
    prof = ExponentProfile(F(0), F(1), tuple(n * n for n in range(1, 30)))
    assert with_period(prof).period is None


def test_hunt_finds_new_family():
    # the a-family product (1 + q^(a+1) + q^(a-1)) (-q^(a+3); q^2)_inf has a
    # bounded-periodic exponent sequence exactly when the trinomial factor is
    # a cyclotomic quotient, i.e. for a = 0 and a = 3 in this range
    A = ((2, 1), (2, 2))
    d = (1, 2)
    grid = [(F(a - 3, 2), F(a)) for a in range(4)]
    hits = hunt(A, d, grid, order=40)
    assert [h.b for h in hits] == [(F(-3, 2), F(0)), (F(0), F(3))]
    for a, h in zip((0, 3), hits):
        # rebuilt profile equals the product form, expressed on the lattice
        # the peel ran on (doubled for a = 0, original for a = 3)
        sub = h.profile.substitution
        rebuilt = h.profile.rebuild(70)
        tri = QSeries({0: 1}, 1, 90)
        tri = tri + QSeries.monomial(F(a + 1, 2) * sub, 1, 90) + \
            QSeries.monomial(F(a - 1, 2) * sub, 1, 90)
        target = tri * poch(pf(-1, F(a + 3, 2) * sub, sub), 90)
        n = min(rebuilt.order, target.order)
        assert n >= 35
        assert eq_to_order(rebuilt.truncate(n), target.truncate(n), n) is None


def test_hunt_nonproduct_family_points_verify_but_do_not_hit():
    # a = 1 gives (2 + q^2)(-q^4; q^2)_inf: the q^2 coefficient of the
    # unit-normalized series is 1/2, so no integral exponent profile exists
    quad = quadruple([[2, 1], [2, 2]], [F(-1), F(1)], 0, [1, 2])
    lhs = nahm_sum(quad, 30).power_substitute(2)
    tri = QSeries({0: 1}, 1, 62) + QSeries.monomial(2, 1, 62) + QSeries.monomial(0, 1, 62)
    rhs = (tri * poch(pf(-1, 4, 2), 62)).truncate(60)
    n = min(lhs.order, rhs.order)
    assert eq_to_order(lhs.truncate(n), rhs.truncate(n), n) is None
    prof = normalize_and_profile(nahm_sum(quad, 40).reduce(), 30)
    assert not prof.is_integral()


def test_hunt_dual_family_hits():
    A = ((1, F(-1, 2)), (-1, 1))
    d = (1, 2)
    grid = [(F(-3, 2), F(a + 3, 2)) for a in range(3)]
    hits = hunt(A, d, grid, order=40)
    # only a = 0 yields a cyclotomic trinomial (1 + q + q^2)
    assert [h.b for h in hits] == [(F(-3, 2), F(3, 2))]
    h = hits[0]
    assert h.profile.const == 2
    assert h.profile.delta == -2
    rebuilt = h.profile.rebuild(70)
    tri = QSeries({0: 1}, 1, 80) + QSeries.monomial(1, 1, 80) + \
        QSeries.monomial(2, 1, 80)
    target = (tri * product((pf(-1, 2, 2), pf(-1, 3, 2)), 80))
    target = target.shift(-2).scale(2).truncate(70)
    n = min(rebuilt.order, target.order)
    assert eq_to_order(rebuilt.truncate(n), target.truncate(n), n) is None


def test_hunt_refuses_a_float_offset():
    with pytest.raises(ValueError, match="an entry of b must be .* float 0.1"):
        hunt([[2]], [1], [(0.1,)], 10)


def test_hunt_rejects_unbounded():
    A = ((2, 1), (2, 2))
    d = (1, 2)
    hits = hunt(A, d, [(10, 10)], order=40)
    assert hits == []


def reported_series(hit, order):
    """The series of the product form a hit reports: its preperiod values
    a_1..a_offset, then its residue table, rebuilt by the recurrence."""
    prof = hit.profile
    table = prof.residue_table()
    a = tuple(prof.a[n - 1] if n <= prof.offset else table[(n - 1) % prof.period]
              for n in range(1, len(prof.a) + 1))
    return replace(prof, a=a).rebuild(order)


def assert_reported_form_round_trips(A, d, hit, order):
    s = nahm_sum(quadruple(A, hit.b, 0, d), order).reduce()
    if hit.profile.substitution > 1:
        s = s.power_substitute(hit.profile.substitution)
    rebuilt = reported_series(hit, s.order)
    n = min(rebuilt.order, s.order)
    assert n - hit.profile.delta == len(hit.profile.a) + 1
    assert eq_to_order(rebuilt.truncate(n), s.truncate(n), n) is None, hit.b


def test_modulus_9_hits_report_their_true_periods():
    # the Andrews-Gordon identities for modulus 9 as rank-3 Nahm sums: with
    # b_i = (1,2,3), (0,1,2), (0,0,1), (0,0,0), the sum is the product over
    # n != 0, +-i (mod 9) of 1/(1 - q^n).  The preperiod bound keeps the
    # tails a_118..a_120 (i = 4) and a_114..a_120 (i = 2) from reading as
    # periods 1 and 2
    A, d = ((2, 2, 2), (2, 4, 4), (2, 4, 6)), (1, 1, 1)
    bs = [(1, 2, 3), (0, 1, 2), (0, 0, 1), (0, 0, 0)]
    hits = hunt(A, d, bs, 121)
    assert [h.b for h in hits] == [tuple(map(F, b)) for b in bs]
    assert [h.profile.period for h in hits] == [9, 9, 3, 9]
    for i, h in enumerate(hits, 1):
        assert h.profile.offset == 0
        table = h.profile.residue_table()
        assert [table[(n - 1) % h.profile.period] for n in range(1, 10)] == \
            [0 if n % 9 in (0, i, 9 - i) else -1 for n in range(1, 10)]
        assert_reported_form_round_trips(A, d, h, 121)


def test_criterion_7_hits_round_trip_their_reported_forms():
    # the 11 hits of the criterion-7 grid, with short preperiods
    A, d = ((2, 1), (2, 2)), (1, 2)
    grid = [(F(x, 2), F(y)) for x in range(-4, 5) for y in range(-2, 5)]
    hits = hunt(A, d, grid, order=121, max_n=120)
    assert len(hits) == 11
    assert {h.profile.period for h in hits} == {2, 4, 6}
    assert max(h.profile.offset for h in hits) == 6
    for h in hits:
        assert_reported_form_round_trips(A, d, h, 121)
