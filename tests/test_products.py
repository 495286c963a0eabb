import itertools
import math
import random
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nahm_forge import products, recognizer
from nahm_forge.errors import Divergent
from nahm_forge.series import QSeries, eq_to_order
from nahm_forge.products import (
    J, J_factors, Jm, PochFactor, eta_factors, eta_quotient, jacobi_triple,
    neg_base_pair, pf, poch, poch_param, product, rungs,
)
from nahm_forge.recognizer import exponent_product

from _naive import naive_factor, negative_size
from _oracles import (
    partition_count, partitions_distinct_from_parts, pentagonal_coeffs,
    poch_naive, poch_param_naive, ser_inv, ser_mul, specialize, triple_product_coeffs,
)


def test_poch_distinct_odd_parts():
    # (-q; q^2)_inf counts partitions into distinct odd parts
    s = poch(pf(-1, 1, 2), 9)
    odd = tuple(range(1, 9, 2))
    expected = {n: partitions_distinct_from_parts(n, odd) for n in range(9)}
    assert {k: v for k, v in expected.items() if v} == s.coeffs
    assert s.coeffs == {0: 1, 1: 1, 3: 1, 4: 1, 5: 1, 6: 1, 7: 1, 8: 2}


def test_poch_finite_literal():
    s = poch(pf(1, 1, 1, 2), 10)
    assert s.coeffs == {0: 1, 1: -1, 2: -1, 3: 1}


def test_poch_minus_one_doubles():
    lhs = poch(pf(-1, 0, 1), 30)
    rhs = poch(pf(-1, 1, 1), 30).scale(2)
    assert lhs.coeff(0) == 2
    assert eq_to_order(lhs, rhs, 30) is None


def test_poch_divergent_cases():
    with pytest.raises(Divergent):
        poch(pf(1, 0, 1), 10)
    with pytest.raises(Divergent):
        poch(pf(1, -1, 1), 10)


def test_negative_exponent_finite_poch():
    # (q^-1; q)_2 = (1 - q^-1)(1 - 1) = 0
    assert poch(pf(1, -1, 1, 2), 5).is_zero()
    # (-q^-1; q^2)_2 = (1 + q^-1)(1 + q) = q^-1 + 2 + q
    s = poch(pf(-1, -1, 2, 2), 5)
    assert s.coeffs == {-1: 1, 0: 2, 1: 1}


def test_product_with_negative_finite_factor_in_any_position():
    # the oracle expands every factor 30 past the order, so that no factor's
    # negative exponents pull a term it truncated back below the order
    order, top = F(10), F(40)
    cases = [(pf(1, -3, 1, 2), (pf(1, 1, 1),)),
             (pf(-1, F(-5, 2), 1, 4, 2), (pf(1, F(1, 3), 1, None, -1),)),
             (pf(-1, -1, 2, 3), (pf(1, 1, 2, None, -1), pf(-1, 2, 3),
                                 pf(1, 1, 1, 3, -1)))]
    for neg, others in cases:
        for i in range(len(others) + 1):
            factors = (*others[:i], neg, *others[i:])
            want = {F(0): F(1)}
            for f in factors:
                want = ser_mul(want, naive_factor(f, top), top)
            got = product(factors, order)
            assert {F(k, got.den): F(v) for k, v in got.coeffs.items()} == \
                {e: v for e, v in want.items() if e < order}, factors


def test_naive_poch_keeps_a_zero_rung():
    # (-1; q)_3 = (1 + 1)(1 + q)(1 + q^2)
    assert poch_naive(-1, F(0), F(1), 3, F(10)) == {F(k): 2 for k in range(4)}


def test_J_against_bilateral_oracle():
    s = J(1, 5, 8)
    expect = triple_product_coeffs(F(1), 1, F(5), F(8))
    assert {F(k): F(v) for k, v in s.coeffs.items()} == expect
    assert s.coeffs == {0: 1, 1: -1, 4: -1, 7: 1}


def test_Jm_pentagonal():
    s = Jm(1, 40)
    assert s.coeffs == pentagonal_coeffs(40)


def test_J_2_4_by_direct_multiplication():
    s = J(2, 4, 12)
    naive = poch_naive(1, F(2), F(4), None, F(12))
    naive = ser_mul(naive, poch_naive(1, F(2), F(4), None, F(12)), F(12))
    naive = ser_mul(naive, poch_naive(1, F(4), F(4), None, F(12)), F(12))
    assert {F(k): F(v) for k, v in s.coeffs.items()} == naive
    assert s.coeff(0) == 1 and s.coeff(2) == -2 and s.coeff(4) == 0 and s.coeff(8) == 2


def test_jacobi_triple_matches_poch_specialization():
    lhs = jacobi_triple(2, 1, 5, 40)
    rhs = product((pf(1, 5, 5), pf(1, 2, 5), pf(1, 3, 5)), 40)
    assert eq_to_order(lhs, rhs, 40) is None


def test_jacobi_triple_vanishing():
    assert jacobi_triple(1, 1, 1, 30).is_zero()


def test_jacobi_triple_matches_J_12_28():
    lhs = jacobi_triple(12, 1, 28, 80)
    rhs = J(12, 28, 80)
    assert eq_to_order(lhs, rhs, 80) is None


def test_jacobi_triple_random_agreement():
    rng = random.Random(20240811)
    for _ in range(20):
        den = rng.choice([1, 1, 2])
        m = F(rng.randint(1, 12), den)
        zexp = F(rng.randint(1, max(1, int(m * den) - 1)), den)
        if not 0 < zexp < m:
            zexp = m / 2
        zsign = rng.choice([1, -1])
        lhs = jacobi_triple(zexp, zsign, m, 60)
        rhs = product((pf(1, m, m), pf(zsign, zexp, m), pf(zsign, m - zexp, m)), 60)
        assert eq_to_order(lhs, rhs, 60) is None, (zexp, zsign, m)


def test_J_symmetry():
    for a, m in [(1, 5), (2, 7), (3, 8)]:
        assert eq_to_order(J(a, m, 60), J(m - a, m, 60), 60) is None


def test_poch_power_inverse_cancels():
    f = pf(-1, 2, 3)
    s = product((f, pf(-1, 2, 3, None, -1)), 50)
    assert eq_to_order(s, QSeries.one(50), 50) is None


def test_euler_complement():
    # (-q; q)_inf (q; q^2)_inf = 1
    s = product((pf(-1, 1, 1), pf(1, 1, 2)), 80)
    assert eq_to_order(s, QSeries.one(80), 80) is None


def test_eta_quotient_partition_gf():
    s = eta_quotient({1: -1}, 12)
    assert [s.coeff(n) for n in range(5)] == [1, 1, 2, 3, 5]
    assert all(s.coeff(n) == partition_count(n) for n in range(12))


def test_eta_quotient_empty():
    s = eta_quotient({}, 10)
    assert s.coeffs == {0: 1}


def test_eta_quotient_by_factor_multiplication():
    s = eta_quotient({3: 2, 1: -1, 6: -1}, 40)
    step = poch_naive(1, F(3), F(3), None, F(40))
    naive = ser_mul(step, step, F(40))
    from _oracles import ser_inv
    naive = ser_mul(naive, ser_inv(poch_naive(1, F(1), F(1), None, F(40)), F(40)), F(40))
    naive = ser_mul(naive, ser_inv(poch_naive(1, F(6), F(6), None, F(40)), F(40)), F(40))
    assert {F(k): F(v) for k, v in s.coeffs.items()} == naive


def test_neg_base_pair_splits_even_odd_rungs():
    # (-q; -q^7)_inf == (-q; q^14)_inf (q^8; q^14)_inf
    a, b = neg_base_pair(-1, 1, 7)
    assert (a.sign, a.a, a.m) == (-1, 1, 14)
    assert (b.sign, b.a, b.m) == (1, 8, 14)
    direct = {F(0): F(1)}
    base = -1  # sign flag of -q^7: rung k multiplies by (1 + (-1)^k q^(1+7k))
    for k in range(6):
        sgn = -1 if k % 2 == 0 else 1
        direct = ser_mul(direct, {F(0): F(1), F(1 + 7 * k): F(-sgn)}, F(40))
    got = product((a, b), 40)
    assert {F(k): F(v) for k, v in got.coeffs.items()} == direct


def test_poch_param_matches_specialization():
    # (-u; q)_inf: its u^k row starts at q^(k(k-1)/2), so cap 20 discards none
    p = poch_param(-1, 0, 1, 20, 20)
    for a in (1, 2, 3):
        got = specialize(p, a)
        assert got.order == 20
        assert eq_to_order(got, poch(pf(-1, a, 1), 20), 20) is None


def test_poch_param_matches_literal_binomials():
    # every row against the binomials multiplied out one by one
    grid = itertools.product((1, -1), (0, 1, F(1, 2), 3), (1, 2, F(3, 2)),
                             (0, 1, 3, 6), (0, 7, F(29, 2)))
    for sign, a, m, deg, order in grid:
        p = poch_param(sign, a, m, order, deg)
        got = {(r, F(k, row.den)): v
               for r, row in enumerate(p.rows) for k, v in row.coeffs.items()}
        assert [row.order for row in p.rows] == [order] * (deg + 1)
        assert got == poch_param_naive(sign, 1, a, m, None, order, deg), \
            (sign, a, m, deg, order)


def test_poch_param_fixed_factors_go_into_every_row():
    # (-u q; q^2)_inf (-q; q)_inf row by row against the rows times the product
    plain = poch_param(-1, 1, 2, 20, 6)
    both = poch_param(-1, 1, 2, 20, 6, factors=(pf(-1, 1, 1),))
    extra = product((pf(-1, 1, 1),), 20)
    for r, row in zip(plain.rows, both.rows):
        assert eq_to_order(r * extra, row, 20) is None
    with pytest.raises(ValueError):
        poch_param(-1, 1, 2, 20, 6, factors=(pf(1, -1, 1, 2),))


# -- the plan: one rung map, theta series for the ladders reaching the top ----

def _naive_product(factors, order):
    """The product of naive_factor below order; each factor is expanded past
    the order by the negative rungs of the multiplied factors, which is all
    that the others can lower its terms by."""
    top = order + sum(negative_size(f) for f in factors if f.power > 0)
    if top <= 0:
        return {}
    out = {F(0): F(1)}
    for f in factors:
        out = ser_mul(out, naive_factor(f, top), top)
    return {e: v for e, v in out.items() if e < order}


def _integer_product(factors, order):
    """The same product with every exponent an integer multiple of 1/L, L
    the lcm of the denominators, multiplied one binomial 1 - s q^e at a time
    on a list.  A rung e < 0 is written -s q^e (1 - s q^-e) and a rung e = 0
    is the constant 1 - s, so every binomial left has e > 0 and constant
    term 1; the list then holds q^0..q^(n-1) exactly, n being the order less
    the shift that the negative rungs make."""
    L = math.lcm(F(order).denominator,
                 *(F(x).denominator for f in factors for x in (f.a, f.m)))
    ladders = [(f.sign, int(f.a * L), int(f.m * L), f.length, f.power) for f in factors]
    shift = sum(p * min(a + k * m, 0)
                for _, a, m, length, p in ladders if length for k in range(length))
    n = math.ceil(order * L) - shift
    if n <= 0:
        return {}
    const, c = F(1), [1] + [0] * (n - 1)
    for s, a, m, length, p in ladders:
        for k in itertools.count() if length is None else range(length):
            e = a + k * m
            if e >= n:
                break
            if e < 0:
                const, e = const * F(-s) ** p, -e
            if e == 0:
                const *= F(1 - s) ** p
            elif e < n:
                for _ in range(abs(p)):
                    if p > 0:                      # c *= 1 - s q^e
                        c[e:] = [x - s * y for x, y in zip(c[e:], c)]
                    else:                          # c /= 1 - s q^e, per residue class
                        for r in range(e):
                            c[r::e] = itertools.accumulate(
                                c[r::e], lambda acc, x: x + s * acc)
    return {F(i + shift, L): const * v for i, v in enumerate(c) if const * v}


def test_integer_oracle_matches_the_naive_product():
    cases = [
        ((pf(1, 1, 1),), 10),
        ((pf(-1, F(1, 2), F(3, 2), None, -2), pf(1, 2, 2, None, 1)), F(19, 2)),
        ((pf(1, F(-3, 2), 1, 4, 2), pf(-1, F(1, 2), 1, 3, -1)), 8),
        ((pf(-1, F(-5, 4), F(1, 2), 3, -2),), F(15, 2)),
        ((pf(1, 1, 5, None, -1), pf(1, 4, 5, None, -1), pf(-1, 0, 2, None, -1)), 12),
        ((pf(1, -1, 1, 3),), F(1, 2)),
    ]
    for factors, order in cases:
        assert _integer_product(factors, order) == _naive_product(factors, order), factors


def _as_dict(s: QSeries) -> dict:
    return {F(k, s.den): v for k, v in s.coeffs.items()}


@pytest.fixture
def recurrence_calls(monkeypatch):
    """The window sizes the recognizer's exponent_product is called with;
    product() never calls it."""
    calls, real = [], recognizer.exponent_product

    def spy(exps, n, integral=True):
        calls.append(n)
        return real(exps, n, integral)

    monkeypatch.setattr(recognizer, "exponent_product", spy)
    return calls


@pytest.fixture
def theta_calls(monkeypatch):
    """The window sizes that theta factors are applied on."""
    calls, real = [], products._thetas

    def spy(groups, powers):
        thetas = real(groups, powers)
        if thetas:
            calls.append(len(powers))
        return thetas

    monkeypatch.setattr(products, "_thetas", spy)
    return calls


@st.composite
def _factor_sets(draw):
    fracs = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    factors = []
    for _ in range(draw(st.integers(1, 4))):
        sign = draw(st.sampled_from((1, -1)))
        power = draw(st.integers(-6, 6))
        m = draw(fracs.filter(lambda x: x > 0))
        kind = draw(st.sampled_from(("infinite", "finite", "zero")))
        if kind == "infinite":
            factors.append(pf(sign, draw(fracs.filter(lambda x: x > 0)), m, None, power))
        elif kind == "zero":                     # (-1; q^m)_inf = 2 (-q^m; q^m)_inf
            factors.append(pf(-1, 0, m, None, abs(power) or 1))
        else:                                    # may have negative rungs
            a, length = draw(fracs), draw(st.integers(0, 4))
            if power < 0 and any(a + k * m == 0 for k in range(length)):
                power = -power                   # no division by a zero rung
            factors.append(pf(sign, a, m, length, power))
    return tuple(factors)


@st.composite
def _theta_sets(draw):
    """J pairs, eta quotients, sign -1 factors above their step, finite
    factors with negative rungs, and finite factors of either sign, with or
    without negative rungs, that run past the window top: the shapes the
    theta route takes apart."""
    steps = st.sampled_from((1, 2, 3, 4, 5, 6, 8, F(1, 2), F(3, 2)))
    powers = st.integers(-2, 2).filter(bool)
    factors = []
    for _ in range(draw(st.integers(1, 4))):
        m, power = draw(steps), draw(powers)
        kind = draw(st.sampled_from(("J", "eta", "negative", "finite", "top")))
        if kind == "J":                          # (q^r, q^(M-r); q^M), maybe J
            m = draw(st.integers(2, 8))
            r = draw(st.integers(1, m - 1))
            factors += [pf(1, r, m, None, power), pf(1, m - r, m, None, power)]
            if draw(st.booleans()):
                factors.append(pf(1, m, m, None, power))
        elif kind == "eta":
            factors.append(pf(1, m, m, None, power))
        elif kind == "negative":                 # (-q^a; q^m) with a > m
            factors.append(pf(-1, m * draw(st.integers(1, 3)) + draw(steps), m, None, power))
        else:                                    # rungs at m(j - k + 1/2), none at 0
            a, length = m * (F(1, 2) - draw(st.integers(0, 3))), draw(st.integers(1, 4))
            if kind == "top":                    # past 48 less the folded rungs' shift
                length = -(-(360 + 2 * abs(a)) // m) + draw(st.integers(0, 3))
            factors.append(pf(draw(st.sampled_from((1, -1))), a, m, length, power))
    return tuple(factors)


@settings(max_examples=80, deadline=None)
@given(_factor_sets(), st.fractions(min_value=0, max_value=12, max_denominator=2))
def test_planned_product_equals_pure_ladder(factors, order):
    s = product(factors, order)
    assert s.order == order
    assert _as_dict(s) == _naive_product(factors, order)


@settings(max_examples=40, deadline=None)
@given(_theta_sets(), st.fractions(min_value=30, max_value=48, max_denominator=2))
def test_theta_shaped_products_equal_the_naive_product(factors, order):
    s = product(factors, order)
    assert s.order == order
    assert _as_dict(s) == _integer_product(factors, order)


def test_infinite_products_take_theta_where_residues_pair(recurrence_calls, theta_calls):
    n = 40
    sets = [((1, 1, 1, 1),), ((1, 1, 1, 2),),                  # (q; q)^p
            ((-1, 2, 2, -1), (1, 3, 2, 1)),                    # (q^2; q^2)^2 / (q^4; q^4)
            ((-1, 2, 2, -1), (1, 3, 2, 2)),                    # and a rung 1 - q divided
            ((1, 1, 5, -1), (1, 4, 5, -1), (1, 5, 5, -1)),     # 1/J(1,5)
            ((1, 4, 4, 14), (1, 2, 2, -14)),                   # j1-four, on the grid of q^2
            ((1, 15, 1, 1),),                                  # from the lower half
            ((1, 2, 5, 1),), ((1, 1, 5, 1), (1, 2, 5, -1)),    # no residue pair
            ((1, 30, 1, 1),)]                                  # from the upper half
    routes = []
    for infinite in sets:
        factors = [pf(sign, a, m, None, power) for sign, a, m, power in infinite]
        before = len(theta_calls)
        assert _as_dict(product(factors, n)) == _naive_product(factors, n)
        routes.append("theta" if len(theta_calls) > before else "rungs")
    assert routes == ["theta"] * 7 + ["rungs"] * 3
    assert recurrence_calls == []


def test_finite_ladders_reaching_the_window_top_take_theta(recurrence_calls, theta_calls):
    # (q; q)_5 stays on rungs; (q; q)_39 at 40 slots is (q; q)_inf there
    for length, calls in ((5, []), (39, [40])):
        factors = (pf(1, 1, 1, length, -1),)
        assert _as_dict(product(factors, 40)) == _naive_product(factors, 40)
        assert theta_calls == calls
    assert recurrence_calls == []


def test_one_plus_rungs_off_the_theta_route_take_one_pass_each(monkeypatch):
    # (-q^300; q)_inf below q^400 starts in the upper half, so it is no theta
    # factor: each rung 1 + q^e is one slice add, not (1 - q^2e)/(1 - q^e)
    seen, real = [], products.rungs

    def spy(arr, sign, a, m, power, start=0, stop=None):
        adds = real(arr, sign, a, m, power, start, stop)
        seen.append((sign, a, power, adds))
        return adds

    monkeypatch.setattr(products, "rungs", spy)
    got = product((pf(-1, 300, 1),), 400)
    assert got.coeffs == {0: 1, **{e: 1 for e in range(300, 400)}}
    assert sorted(seen) == [(-1, e, 1, 1) for e in range(300, 400)]
    # folded, finite and upper-half ladders of 1 + q^e, multiplied and divided
    for factors in ((pf(-1, -3, 2, 5),), (pf(-1, 7, 3, 4, -2),),
                    (pf(-1, 25, 1, None, 2), pf(1, 1, 1, None, -1))):
        seen.clear()
        assert _as_dict(product(factors, 40)) == _naive_product(factors, 40)
        assert -1 in {sign for sign, *_ in seen}


def test_finite_inverse_euler_product_past_the_order_is_the_infinite_one():
    # 1/(q; q)_L = 1/(q; q)_inf below q^400 once L >= 399
    infinite = product((pf(1, 1, 1, None, -1),), 400)
    assert all(infinite.coeff(n) == partition_count(n) for n in range(0, 400, 57))
    for length in (399, 400, 1000):
        assert product((pf(1, 1, 1, length, -1),), 400).coeffs == infinite.coeffs
    assert product((pf(1, 1, 1, 398, -1),), 400).coeffs != infinite.coeffs


def test_planner_routes_of_registry_products(recurrence_calls, theta_calls):
    # 1/J(1,5) at order 400 takes the theta route, and so does j1-four's
    # (q^4;q^4)^14 / (q^2;q^2)^14, on the grid of q^2
    product((pf(1, 1, 5, None, -1), pf(1, 4, 5, None, -1), pf(1, 5, 5, None, -1)), 400)
    assert theta_calls == [400]
    product((pf(1, 4, 4, None, 14), pf(1, 2, 2, None, -14)), 400)
    assert theta_calls == [400, 200]
    assert recurrence_calls == []


def test_long_ladders_take_the_theta_route(theta_calls):
    # (-1; q)^2, 1/(q; q)^2 and 1/(q, q^4, q^7; q^8): one long ladder each,
    # a rung pass per entry on rungs, a few theta series here
    for factors in ((pf(-1, 0, 1, None, 2),), (pf(1, 1, 1, None, -2),),
                    (pf(1, 1, 8, None, -1), pf(1, 4, 8, None, -1), pf(1, 7, 8, None, -1))):
        assert _as_dict(product(factors, 40)) == _naive_product(factors, 40)
        theta_calls.clear()
        product(factors, 400)
        assert theta_calls == [400], factors


def test_zero_rung_folds_into_the_constant_on_the_theta_route(recurrence_calls, theta_calls):
    # (-1; q)_inf^p = 2^p (-q; q)_inf^p, next to (q; q)_inf^14
    for power in (1, 2, 3):
        factors = (pf(-1, 0, 1, None, power), pf(1, 1, 1, None, 14))
        assert _as_dict(product(factors, 30)) == _naive_product(factors, 30)
    assert theta_calls == [30] * 3 and recurrence_calls == []
    assert product((pf(1, 0, 1, 2),), 10).coeffs == {}      # (1; q)_2 = 0
    with pytest.raises(ValueError):                        # 1/(1 + 1) is no integer
        product((pf(-1, 0, 1, None, -1),), 10)


def test_theta_term_lists():
    # J_(r,M) and (q^M; q^M) = J_(M,3M) against the public expansions and
    # the independent bilateral and pentagonal sums, at order 200
    for M in range(1, 13):
        for r in range(1, (M + 1) // 2):
            terms = products._triple_terms(r, 1, M, 200)
            assert len({e for e, _ in terms}) == len(terms)
            assert dict(terms) == jacobi_triple(r, 1, M, 200).coeffs
            assert {F(e): c for e, c in terms} == triple_product_coeffs(F(r), 1, F(M), F(200))
        eta = dict(products._triple_terms(M, 1, 3 * M, 200))
        assert eta == {M * e: c for e, c in pentagonal_coeffs(-(-200 // M)).items()}
        assert eta == poch(pf(1, M, M), 200).coeffs


def test_factor_length_per_index():
    assert pf(1, 1, 2, 3, -1, 2) == PochFactor(1, F(1), F(2), 3, -1, 2)
    assert pf(1, 1, 1).per_n == 0
    with pytest.raises(ValueError):
        pf(1, 1, 1, 2, 1, -1)
    with pytest.raises(ValueError):
        pf(1, 1, 1, None, 1, 1)


@pytest.mark.parametrize("args, field", [
    ((None, 0.5), "power"), ((None, True), "power"), ((None, F(2)), "power"),
    ((2.5,), "length"), ((True,), "length"), (("3",), "length"),
    ((3, 1, 1.0), "per_n"), ((3, 1, False), "per_n"),
])
def test_factor_refuses_a_non_int_power_length_or_per_n(args, field):
    with pytest.raises(ValueError, match=f"^{field} must be an int"):
        pf(1, 1, 1, *args)


def test_factor_refuses_a_float_step_or_base():
    # 10/3 as a float is a binary fraction that would need ~10^16 slots
    with pytest.raises(ValueError, match="base a .* float 3.333"):
        product([pf(1, 10 / 3, 5)], 10)
    with pytest.raises(ValueError, match="step m .* float 0.5"):
        PochFactor(1, 1, 0.5)
    for bad in (lambda: J_factors(0.5, 3), lambda: neg_base_pair(1, 1, 2.0),
                lambda: eta_factors({1.5: 1})):
        with pytest.raises(ValueError, match="float"):
            bad()
    assert pf(1, "1/3", F(2, 3)) == pf(1, F(1, 3), "2/3") == PochFactor(1, F(1, 3), F(2, 3))
    assert product([pf(1, "10/3", 5)], 10) == product([pf(1, F(10, 3), 5)], 10)


def test_triple_and_param_products_refuse_a_float():
    with pytest.raises(ValueError, match="zexp must be .* float 0.5"):
        jacobi_triple(0.5, 1, 3, 10)
    with pytest.raises(ValueError, match="^m must be .* float 3.0"):
        jacobi_triple(1, 1, 3.0, 10)
    with pytest.raises(ValueError, match="base a .* float 0.1"):
        poch_param(1, 0.1, 1, 10, 2)
    with pytest.raises(ValueError, match="step m .* float 2.0"):
        poch_param(1, 1, 2.0, 10, 2)
    assert jacobi_triple("1/2", 1, 3, 10) == jacobi_triple(F(1, 2), 1, 3, 10)
    assert poch_param(1, "1/3", 1, 10, 2).rows == poch_param(1, F(1, 3), 1, 10, 2).rows


def test_eta_factors_sorted_nonzero_and_positive():
    exps = {3: 2, 1: -1, 6: -1, 2: 0}
    assert eta_factors(exps) == (pf(1, 1, 1, None, -1), pf(1, 3, 3, None, 2),
                                 pf(1, 6, 6, None, -1))
    with pytest.raises(ValueError):
        eta_factors({0: 1})


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("power", [-2, -1, 1, 2])
def test_rungs_on_object_arrays_match_naive(sign, power):
    n = 40

    def run(*ladders):
        arr = np.zeros(n, object)
        arr[0] = 1
        for ladder in ladders:
            rungs(arr, sign, *ladder)
        return {F(i): v for i, v in enumerate(arr.tolist()) if v}

    # (a, m, start, stop): the infinite product, a slice, one past the top
    for a, m, start, stop in [(0, 1, 1, None), (2, 3, 0, None), (1, 2, 2, 6),
                              (2, 5, 1, 30)]:
        length = None if stop is None else stop - start
        base = poch_naive(sign, a + start * m, m, length, F(n))
        want = {F(0): F(1)}
        for _ in range(abs(power)):
            want = ser_mul(want, base, F(n))
        assert run((a, m, power, start, stop)) == \
            (ser_inv(want, F(n)) if power < 0 else want)
    # product()'s fold of (s q^-5; q^2)_4: the rungs q^-5, q^-3, q^-1 leave
    # (-s)^3 q^-9 (s q; q^2)_3, and the rung q^1 stays
    whole = poch_naive(sign, -5, 2, 4, F(n + 9))
    folded = {e + 9: -sign * v for e, v in whole.items() if e + 9 < n}
    want = {F(0): F(1)}
    for _ in range(abs(power)):
        want = ser_mul(want, folded, F(n))
    assert run((1, 2, power, 0, 3), (-5, 2, power, 3, 4)) == \
        (ser_inv(want, F(n)) if power < 0 else want)


def test_product_refuses_an_oversized_window(monkeypatch):
    # a plain infinite factor: one slot per exponent below the order
    with pytest.raises(ValueError, match="16777217 window slots"):
        poch(pf(1, 1, 1), 2 ** 24 + 1)
    monkeypatch.setattr(products, "MAX_WINDOW", 20)
    assert poch(pf(1, 1, 1), 20).order == 20
    with pytest.raises(ValueError, match="21 window slots"):
        poch(pf(1, 1, 1), 21)
    # (q^-3; q)_2 folds out q^-5, which widens the window by 5 slots
    factors = (pf(1, 1, 1), pf(1, -3, 1, 2))
    assert product(factors, 15).order == 15
    with pytest.raises(ValueError, match="21 window slots"):
        product(factors, 16)


def test_exponent_product_euler_and_square_root():
    assert dict(enumerate(exponent_product({e: 1 for e in range(1, 40)}, 40))) \
        == {k: pentagonal_coeffs(40).get(k, 0) for k in range(40)}
    half = exponent_product({1: F(1, 2)}, 12, integral=False)
    assert ser_mul(dict(enumerate(half)), dict(enumerate(half)), F(12)) == {0: 1, 1: -1}
    assert exponent_product({}, 0) == [] and exponent_product({3: 5}, 1) == [1]
