import cmath
import math
import random
from fractions import Fraction as F

import numpy as np
import pytest

from nahm_forge.errors import TailTooLarge
from nahm_forge.series import QSeries, eq_to_order
from nahm_forge.products import J, pf, poch, product, jacobi_triple
from nahm_forge import modular as M

from _oracles import (eval_eta, eval_g, eval_h, eval_weber_f, eval_weber_f1,
                      eval_weber_f2, ladder_naive, theta_naive, theta_sum,
                      triple_naive)


def test_alpha_values():
    assert abs(M.alpha(1) - 0.23192) < 5e-6
    assert abs(M.alpha(2) - 0.41791) < 5e-6
    assert abs(M.alpha(3) - 0.52112) < 5e-6


def test_matrix_identities():
    assert M.wtw_deviation() < 1e-12
    assert M.double_inversion_deviation() < 1e-12
    p = M.matrix_p()
    assert np.max(np.abs(p @ p.conj().T - np.eye(3))) < 1e-14
    m = M.matrix_m()
    assert np.max(np.abs(m - m.T)) == 0.0
    # M is sqrt(1/2) times an orthogonal matrix
    assert np.max(np.abs(m @ m - 0.5 * np.eye(3))) < 1e-14


def test_translation_diag_squares_to_published_block():
    t = M.translation_diag()
    assert np.max(np.abs(t @ t - M.matrix_lambda4())) < 1e-14


def test_eta_inversion_law():
    for tau in (1j, 1 + 2j):
        lhs = eval_eta(-1 / tau)
        rhs = cmath.sqrt(-1j * tau) * eval_eta(tau)
        assert abs(lhs - rhs) < 1e-10


def test_eta_translation_law():
    tau = 0.3 + 0.8j
    assert abs(eval_eta(tau + 1) - cmath.exp(1j * cmath.pi / 12) * eval_eta(tau)) < 1e-12


def test_weber_inversion_laws():
    tau = 2j
    assert abs(eval_weber_f(-1 / tau) - eval_weber_f(tau)) < 1e-10
    assert abs(eval_weber_f1(-1 / tau) - math.sqrt(2) * eval_weber_f2(tau)) < 1e-10
    assert abs(eval_weber_f2(-1 / tau) - eval_weber_f1(tau) / math.sqrt(2)) < 1e-10


def test_weber_translation_laws():
    tau = 1j
    e = cmath.exp(-1j * cmath.pi / 24)
    assert abs(eval_weber_f(tau + 1) - e * eval_weber_f1(tau)) < 1e-10
    assert abs(eval_weber_f1(tau + 1) - e * eval_weber_f(tau)) < 1e-10
    assert abs(eval_weber_f2(tau + 1) -
               cmath.exp(1j * cmath.pi / 12) * eval_weber_f2(tau)) < 1e-10


def test_theta_g_h_relation():
    tau = 2j
    lhs = eval_g(1, 7, tau)
    rhs = eval_h(2, 28, tau) - eval_h(26, 28, tau)
    assert abs(lhs - rhs) < 1e-12


def test_theta_symmetries_random():
    rng = random.Random(11)
    for _ in range(8):
        j = rng.randint(1, 9)
        m = F(rng.randint(2, 9), rng.choice([1, 2]))
        tau = rng.uniform(-0.4, 0.4) + 1j * rng.uniform(0.6, 1.4)
        assert abs(eval_h(j, m, tau) - eval_h(-j, m, tau)) < 1e-12
        assert abs(eval_h(j, m, tau) - eval_h(2 * m + j, m, tau)) < 1e-12
        assert abs(eval_h(j, m, 2 * tau) - eval_h(2 * j, 2 * m, tau)) < 1e-12
        assert abs(eval_g(j, m, 2 * tau) - eval_g(2 * j, 2 * m, tau)) < 1e-12


def test_eval_series_constant():
    value, tail = M.eval_series_at(QSeries.const(2, 10), 1j)
    assert value == 2
    assert tail < 1e-5


def test_eval_series_euler_product():
    s = product((pf(1, 1, 1),), 50)
    value, tail = M.eval_series_at(s, 1j)
    # direct partial-product oracle
    q = cmath.exp(-2 * cmath.pi)
    direct = 1.0
    for k in range(1, 200):
        direct *= (1 - q ** k)
    assert abs(value - direct) < 1e-14
    assert abs(value - 0.998129) < 1e-6
    assert tail < 1e-100


def test_eval_series_J_two_paths():
    tau = 0.3 + 0.8j
    s = J(1, 5, 70)
    value, tail = M.eval_series_at(s, tau)
    direct = 1.0 + 0j
    for a in (1, 4, 5):
        x = M.qpow(tau, a)
        step = M.qpow(tau, 5)
        for _ in range(60):
            direct *= (1 - x)
            x *= step
    assert abs(value - direct) < 1e-12
    assert tail < 1e-12


def test_component_ordering():
    # the fourth slot is the odd-parity sum with no offsets
    sigma, b, pre = M._COMPONENT_DATA[3]
    assert (sigma, b, pre) == (1, (0, 0), F(-3, 56))


def test_v_closed_forms_exact_to_order_40():
    # each component series equals its eta-Weber-theta product side exactly
    rhs_data = (
        ((1, 1, 2), 16, 28), ((1, 1, 2), 20, 28), ((1, 1, 2), 24, 28),
        ((-1, 2, 2), 6, 7), ((-1, 2, 2), 4, 7), ((-1, 2, 2), 5, 7),
    )
    expected_pre = (F(-3, 56), F(29, 56), F(93, 56), F(25, 56), F(1, 56), F(9, 56))
    for idx in range(6):
        pre, body = M.component_series_v(idx, 44)
        assert pre == expected_pre[idx]
        (sg, a, m), zexp, tm = rhs_data[idx]
        prod = poch(pf(sg, a, m), 42) * jacobi_triple(zexp, 1, tm, 42) * \
            poch(pf(1, 2, 2), 42).invert()
        n = min(body.order, prod.order, F(40))
        assert eq_to_order(body.truncate(n), prod.truncate(n), n) is None, idx


# The second vector's closed forms f_w(2 tau) g_(j,7)(sc tau) / eta(2 tau) in
# Weber functions, as (w, j, sc); the product route reads PRODUCT_FORMS instead.
V_WEBER_FORMS = ((1, 1, 2), (1, 3, 2), (1, 5, 2), (2, 5, 0.5), (2, 1, 0.5), (2, 3, 0.5))


def test_v_products_match_weber_closed_forms():
    weber = {1: eval_weber_f1, 2: eval_weber_f2}
    for tau in M.TAU_DEFAULT:
        vals, _ = M._eval_products("v", tau, 1e-16)
        for idx, (w, j, sc) in enumerate(V_WEBER_FORMS):
            want = weber[w](2 * tau) * eval_g(j, 7, sc * tau) / eval_eta(2 * tau)
            assert abs(vals[idx] - want) < 1e-12, (tau, idx)


def test_check_transformation_all_relations_all_points():
    for tau in M.TAU_DEFAULT:
        for rel in M.relations():
            rep = M.check_transformation(rel, tau, tol=1e-9)
            assert rep.passed, (rel, tau, rep)
            assert rep.tail_bound < 1e-12
            if rel.endswith("-routes"):
                # the exact-series and product routes agree far inside 1e-9
                assert rep.max_dev < 1e-10, (rel, tau, rep)


def test_check_transformation_examples():
    rep = M.check_transformation("conj1.1", 1j, tol=1e-9)
    assert rep.passed and rep.max_dev < 1e-10
    rep = M.check_transformation("v-inversion", 0.2 + 1j, tol=1e-9)
    assert rep.passed and rep.max_dev < 1e-9
    rep = M.check_transformation("u-translation-double", 2j, tol=1e-9)
    assert rep.passed and rep.max_dev < 1e-12


def test_check_transformation_rejects_vacuous_tolerance():
    with pytest.raises(TailTooLarge):
        M.check_transformation("conj1.1", 1j, tol=1e-14)


def test_check_transformation_rejects_lower_half_plane():
    with pytest.raises(ValueError):
        M.check_transformation("conj1.1", -1j, tol=1e-9)


def test_series_route_deviation_shrinks_with_order():
    # nome chosen large enough that the truncation error stays visible
    tau = 0.1 + 0.18j
    pvals, _ = M._eval_products("u", tau, 1e-17)
    devs = []
    for order in (10, 16, 24):
        svals, _ = M._eval_vec_series(M.component_series_u, tau, order)
        devs.append(float(np.max(np.abs(svals - pvals))))
    assert devs[0] > devs[1] > devs[2]


def test_json_report_shape():
    rep = M.check_transformation("conj1.1", 1j, tol=1e-9)
    d = rep.to_json()
    assert set(d) == {"theorem", "tau", "max_dev", "tail_bound", "pass"}
    assert d["pass"] is True


# The numeric terms against literal per-term oracles: the default points,
# small-Im mapped points, tau + 2, and parameters with denominators 2 and 3.
ORACLE_POINTS = (M.TAU_DEFAULT
                 + ((0.5 + 0.5j) / (4 * (0.5 + 0.5j) + 1), -1 / (4 * (0.5 + 0.5j)),
                    -1 / (4 * 2j))
                 + tuple(tau + 2 for tau in M.TAU_DEFAULT))
THETA_CASES = ((1, 7, True), (5, 7, True), (3, 7, False), (F(1, 2), F(5, 2), False),
               (F(2, 3), F(7, 3), True), (F(5, 3), F(1, 2), True), (11, 1, False), (7, 7, False),
               (101, 1, False))
TRIPLE_CASES = tuple(row[2] for rows in M.PRODUCT_FORMS.values() for row in rows) + (
    (F(5, 2), F(1, 3), -1, 1), (F(7, 3), F(-1, 2), 1, -1))
LADDER_CASES = ((1, 2, 2), (-1, 1, 2), (-1, 2, 2), (1, 1, 2), (1, F(1, 2), 1),
                (-1, F(1, 3), F(5, 2)), (1, F(2, 3), F(3, 2)))


def _close(got, err, want, size):
    return abs(got - want) <= err + 1e-13 * max(1.0, size)


@pytest.mark.parametrize("tau", ORACLE_POINTS)
def test_numeric_terms_match_naive_oracles(tau):
    for eps in (1e-15, 1e-17):
        for j, m, alternating in THETA_CASES:
            got, err = theta_sum(tau, j, m, eps, alternating)
            assert _close(got, err, *theta_naive(tau, j, m, alternating)), (j, m)
        for case in TRIPLE_CASES:
            got, err = M._theta_triple(tau, *case, eps)
            assert _close(got, err, *triple_naive(tau, *case)), case
        for sign, a, m in LADDER_CASES:
            got, rel = M._ladder(tau, sign, float(a), float(m), eps)
            assert _close(got, abs(got) * rel, *ladder_naive(tau, sign, a, m)), (sign, a, m)


def test_eval_series_rejects_large_nome():
    # |q| >= 0.9 used to spin in the tail loop; just below it the loop ends
    with pytest.raises(TailTooLarge):
        M.eval_series_at(QSeries.const(2, 10), 0.016j)
    with pytest.raises(TailTooLarge):
        M.check_transformation("u-routes", 0.1 + 0.001j)
    tau = 1j * math.log(1 / 0.8999) / (2 * math.pi)
    value, tail = M.eval_series_at(QSeries.const(2, 10), tau)
    assert value == 2 and math.isfinite(tail)


@pytest.mark.parametrize("call", [
    lambda eps: eval_h(1, 7, 1j, eps=eps),
    lambda eps: eval_g(1, 7, 1j, eps=eps),
    lambda eps: eval_eta(1j, eps=eps),
    lambda eps: M.check_transformation("conj1.1", 1j, eps=eps),
    lambda eps: M.check_transformation("u-routes", 1j, eps=eps),
])
def test_rejects_nonpositive_or_nonfinite_eps(call):
    for eps in (0, 0.0, -1e-16, math.nan, math.inf):
        with pytest.raises(ValueError):
            call(eps)


def test_rejects_nonfinite_tau():
    for tau in (complex(0, math.nan), complex(0, math.inf), complex(math.nan, 1),
                complex(math.inf, 1)):
        with pytest.raises(ValueError):
            M.check_transformation("conj1.1", tau)
        with pytest.raises(ValueError):
            eval_eta(tau)


def test_check_transformation_rejects_nonfinite_tol():
    # inf used to pass vacuously with max_dev 0; nan ended in a ladder error
    for tol in (math.inf, math.nan):
        with pytest.raises(ValueError, match="tol"):
            M.check_transformation("conj1.1", 1j, tol=tol)


def test_theta_rejects_nonpositive_m():
    # the series diverge there; this used to end in ZeroDivisionError or
    # OverflowError from deep inside the term loop
    for m in (0, -1, F(-1, 2)):
        with pytest.raises(ValueError):
            eval_h(1, m, 1j)
