import dataclasses
import hashlib
import json
import multiprocessing
import random
from fractions import Fraction as F

import pytest

from nahm_forge.errors import UnknownId
from nahm_forge.series import QSeries, eq_to_order, eq_to_order_param
from nahm_forge.products import pf, product
from nahm_forge.nahm import nahm_sum, quadruple
from nahm_forge import products, registry as R
from nahm_forge.candidates import FAMILIES
from nahm_forge.recognizer import normalize_and_profile, with_period

from _naive import naive_factor, naive_side, naive_single_sum
from _oracles import (
    nahm_param_naive, poch_naive, poch_param_naive, ser_add, ser_inv, ser_mul,
)


def test_registry_shape():
    recs = R.registry()
    assert len(recs) >= 70
    ids = [r.id for r in recs]
    assert len(set(ids)) == len(ids)
    assert sum(1 for r in recs if r.status != "conjecture") >= 60
    for rid in ("capparelli", "conj-KR-1", "rr-1", "thm-new-exam1-param",
                "v-closed-1", "exam4-1a", "j1-four"):
        assert rid in ids
    for k in range(1, 7):
        assert f"thm-parity-r{k}" in ids
    assert R.get("capparelli").status == "known"
    assert R.get("conj-KR-1").status == "conjecture"


def test_unknown_id():
    with pytest.raises(UnknownId):
        R.get("no-such-identity")
    with pytest.raises(UnknownId):
        R.verify("no-such-identity", 10)


def test_verify_refuses_an_order_below_one():
    # an order below 1 compares nothing, so it is no pass
    for order in (0, -5):
        with pytest.raises(ValueError, match="at least 1"):
            R.verify("rr-1", order)
    seq = R.verify_all(0, param_order=-5)
    assert len(seq) == len(R.registry())
    assert all(r.result == "error" and r.error.startswith("ValueError") for r in seq)


def test_verify_capparelli():
    rep = R.verify("capparelli", 60)
    assert rep.result == "pass"
    assert rep.first_mismatch is None


def test_verify_param_record():
    rep = R.verify("thm-new-exam1-param", 60)
    assert rep.result == "pass"


def test_param_records_pass_at_order_800():
    # a window of 27 prefix rows x 800 slots was once refused at 801 u-grades,
    # though the points below q^800 reach far fewer of them
    for rid in [r.id for r in R.registry() if r.params]:
        assert R.verify(rid, 800).result == "pass", rid


def test_conjectures_report_conjecture_pass():
    rep = R.verify("conj-KR-1", 60)
    assert rep.result == "conjecture_pass"


def test_perturbed_rhs_detected_at_injected_exponent():
    rec = R.get("rr-1")
    lhs = rec.lhs(F(50))
    rhs = rec.rhs(F(50)) + QSeries.monomial(7, 1, 50)
    m = eq_to_order(lhs, rhs, 50)
    assert m is not None and m.exponent == 7


def _with_factor(side, term, index, factor):
    """The ComboSide with factor `index` of term `term` replaced."""
    factors = list(side.terms[term].factors)
    factors[index] = factor
    return _with_term(side, term, factors=tuple(factors))


def _with_term(side, term, **change):
    t = dataclasses.replace(side.terms[term], **change)
    return R.ComboSide(side.terms[:term] + (t,) + side.terms[term + 1:])


# one change to one side of a record, per shape of identity: (id, side,
# change); the deep ones agree below q^60 and differ below q^400
PERTURBED = {
    "nahm-vs-product-coefficient":
        ("rr-1", "rhs", lambda s: _with_term(s, 0, coeff=F(2))),
    "nahm-vs-product-rung":
        ("rr-1", "rhs", lambda s: _with_factor(s, 0, 1, pf(1, 9, 5, None, -1))),
    "nahm-vs-product-deep":
        ("rr-1", "rhs", lambda s: _with_factor(s, 0, 1, pf(1, 4, 5, 30, -1))),
    "nahm-vs-two-terms-coefficient":
        ("exam4-1a", "rhs", lambda s: _with_term(s, 1, coeff=F(-3))),
    "nahm-vs-two-terms-shift":
        ("exam4-1a", "rhs", lambda s: _with_term(s, 1, shift=F(2))),
    "nahm-vs-two-sums":
        ("exam4-1-split", "rhs",
         lambda s: _with_term(s, 1, body=dataclasses.replace(s.terms[1].body, e1=F(3)))),
    "product-vs-product-rhs":
        ("j1-four", "rhs", lambda s: _with_factor(s, 1, 1, pf(1, 8, 8, None, 3))),
    "product-vs-product-lhs":
        ("j1-four", "lhs", lambda s: _with_factor(s, 0, 0, pf(1, 1, 1, None, -3))),
    "single-sum-vs-product":
        ("msz-254", "lhs",
         lambda s: dataclasses.replace(s, factors=(R.sf(-1, 2, 1, 1, 1), s.factors[1]))),
    "closure-vs-product-deep":
        ("v-closed-1", "rhs",
         lambda s: _with_factor(s, 0, len(s.terms[0].factors) - 1, pf(1, 2, 2, 40, -1))),
}


@pytest.mark.parametrize("case", sorted(PERTURBED))
def test_perturbed_record_reports_the_first_mismatch_of_its_sides(case, monkeypatch):
    # verify compares the sides cross-multiplied by their divisors and
    # rebuilds them only on a mismatch: the report is that of the sides
    rid, side, change = PERTURBED[case]
    rec = R.get(rid)
    data = change(getattr(rec, side + "_data"))
    rec = dataclasses.replace(rec, **{side: data.build, side + "_data": data})
    monkeypatch.setitem(R._BY_ID, rid, rec)
    for n in (60, 400):
        want = eq_to_order(rec.lhs(F(n)), rec.rhs(F(n)), n)
        rep = R.verify(rid, n)
        assert rep.first_mismatch == want, (case, n)
        assert (rep.result == "fail") == (want is not None)
    assert want is not None
    assert (eq_to_order(rec.lhs(F(60)), rec.rhs(F(60)), 60) is None) == case.endswith("deep")


def test_passing_records_never_divide(monkeypatch):
    # verify cross-multiplies, so no record without a parameter runs the
    # division sweep; product() still divides through the same step
    calls, real = [], products._divide

    def spy(window, divisor):
        calls.append(divisor)
        return real(window, divisor)

    monkeypatch.setattr(products, "_divide", spy)
    monkeypatch.setattr(R, "_divide", spy)
    for rec in R.registry():
        if not rec.params:
            assert R.verify(rec.id, 200).result in ("pass", "conjecture_pass"), rec.id
    assert calls == []
    factors = (pf(1, 1, 5, None, -1), pf(1, 4, 5, None, -1))
    got = product(factors, 120)
    assert len(calls) == 1 and calls[0]
    want = naive_side(R._prods(*factors), 120)
    assert {F(k, got.den): F(v) for k, v in got.coeffs.items()} == want


def test_combo_sides_equal_the_sum_of_their_terms():
    # one walk over the lcm of the terms' divisors, against the terms built
    # one by one, on grids of halves and thirds, shifted against each other
    rng = random.Random(7)
    for _ in range(40):
        terms = []
        for _ in range(rng.randint(1, 3)):
            m = rng.choice((F(1), F(2), F(3), F(1, 2), F(3, 2), F(2, 3)))
            power = rng.choice((-2, -1, 1, 2))
            factors = [pf(1, m, m, None, rng.choice((-2, -1, 1, 2)))]
            if rng.random() < 0.5:
                factors += [pf(1, m / 3, m, None, power), pf(1, 2 * m / 3, m, None, power)]
            if rng.random() < 0.3:
                factors.append(pf(-1, m, 2 * m, 4, -power))
            shift = rng.choice((0, F(1, 2), 1, F(4, 3)))
            terms.append((rng.choice((-2, -1, 1, 3)), shift, factors))
        order = F(rng.randint(20, 60), rng.choice((1, 2)))
        want = QSeries.zero(order)
        for coeff, shift, factors in terms:
            want = want + product(factors, order - shift).shift(shift).scale(coeff)
        assert R.combo(*terms).build(order) == want, terms


def test_combo_grid_refused_past_max_window(monkeypatch):
    # terms on the grids of q^(1/2) and q^(1/3) fit 20 and 30 slots below
    # q^10, their common grid of q^(1/6) needs 60: refused before allocation
    side = R.combo((1, 0, (pf(1, F(1, 2), F(1, 2)),)), (1, 0, (pf(1, F(1, 3), F(1, 3)),)))
    monkeypatch.setattr(products, "MAX_WINDOW", 40)
    with pytest.raises(ValueError, match="the terms need 60 window slots"):
        side.build(10)
    monkeypatch.setattr(products, "MAX_WINDOW", 60)
    assert side.build(10) == product(side.terms[0].factors, 10) + product(side.terms[1].factors, 10)


def test_all_records_pass_at_order_40():
    for rep in R.verify_all(40):
        assert rep.result in ("pass", "conjecture_pass"), rep


def test_verify_all_status_filter_and_jobs_deterministic():
    seq = R.verify_all(25, status_filter="conjecture")
    par = R.verify_all(25, status_filter="conjecture", jobs=2)
    assert [r.id for r in seq] == [r.id for r in par]
    assert all(r.status == "conjecture" for r in seq)
    assert [r.result for r in seq] == [r.result for r in par]


def test_report_json_schema():
    rep = R.verify("rr-1", 30)
    d = rep.to_json()
    assert set(d) == {"id", "status", "order", "result", "first_mismatch", "ms"}
    json.dumps(d)
    assert d["first_mismatch"] is None


def test_three_way_agreement_family4_and_6():
    for base in ("exam4-1", "exam4-2", "exam4-3"):
        a = R.get(base + "a").rhs(F(100))
        b = R.get(base + "b").rhs(F(100))
        s = R.get(base + "-split").rhs(F(100))
        assert eq_to_order(a, b, 100) is None
        assert eq_to_order(a, s, 100) is None
    a = R.get("exam6-a").rhs(F(100))
    b = R.get("exam6-b").rhs(F(100))
    assert eq_to_order(a, b, 100) is None


def test_dissection_substitution_reproduces_split():
    # substitute the inverse-fourth/inverse-square splits into the two-term
    # modulus-28 expression and extract even/odd parts: the result must be
    # exactly the two terms of the modulus-56 dissection
    N = F(101)
    from nahm_forge.registry import Jf, Jmf
    cx = product((*Jmf(2, 6), *Jmf(28, 3), *Jmf(4, -2),
                  *Jf(4, 28, -1), *Jf(6, 28, -1), *Jf(8, 28, -1)), N)
    cy = product((*Jmf(4, 2), *Jf(4, 28), *Jf(5, 14),
                  *Jmf(2, -1), *Jmf(28, -1)), N)
    j1_four = R.get("j1-four").rhs(N)
    j1_square = R.get("j1-square").rhs(N)
    substituted = cx * j1_four - (cy * j1_square).shift(1).scale(2)
    direct = R.get("exam4-1a").rhs(N)
    n = min(substituted.order, direct.order)
    assert eq_to_order(substituted.truncate(n), direct.truncate(n), n) is None
    # even/odd split against the printed dissection terms
    bside = R.get("exam4-1b").rhs_data
    term1 = product(bside.terms[0].factors, N)
    term2 = product(bside.terms[1].factors, N - 1).shift(1).scale(2)
    n = min(substituted.order, F(100))
    substituted = substituted.reduce()
    assert substituted.den == 1
    for term, parity in ((term1, 0), (term2, 1)):
        part = QSeries({k: v for k, v in substituted.coeffs.items() if k % 2 == parity},
                       1, substituted.order)
        assert eq_to_order(part.truncate(n), term.truncate(n), n) is None


def test_parity_records_sum_to_unrestricted():
    for (even_id, odd_id, b) in (("thm-parity-r1", "thm-parity-r2", (0, 0)),
                                 ("thm-parity-r3", "thm-parity-r4", (0, 1)),
                                 ("thm-parity-r5", "thm-parity-r6", (1, 1))):
        f0 = R.get(even_id).lhs(F(30))
        f1 = R.get(odd_id).lhs(F(30))
        whole = nahm_sum(quadruple(((1, F(1, 2)), (1, 1)), b, 0, (1, 2)), 30)
        assert eq_to_order(f0 + f1, whole, 30) is None


def test_v_closed_records_pass_to_order_40():
    for k in range(1, 7):
        rep = R.verify(f"v-closed-{k}", 40)
        assert rep.result == "pass", rep


def test_naive_recomputation_sample():
    # independent brute-force recomputation of both sides at order 20 for a
    # seeded random sample of data-backed records
    rng = random.Random(20250810)
    backed = [r for r in R.registry() if r.lhs_data is not None]
    assert len(backed) >= 20
    sample = rng.sample(backed, 20)
    for rec in sample:
        want_l = naive_side(rec.lhs_data, 20)
        want_r = naive_side(rec.rhs_data, 20)
        assert want_l == want_r, f"naive sides disagree for {rec.id}"
        got = rec.lhs(F(20))
        got_map = {F(k, got.den): F(v) for k, v in got.coeffs.items()}
        assert got_map == want_l, f"pipeline deviates from oracle for {rec.id}"


@pytest.mark.parametrize("rid", ["thm-new-exam1-param", "thm-new-exam2-param"])
@pytest.mark.parametrize("order", [60, 30])
def test_new_exam_param_sides_agree_at_degree_zero(rid, order):
    # each right side's trinomial has a u-row above the cap 0, which is dropped
    rec = R.get(rid)
    lhs, rhs = rec.lhs(order, 0), rec.rhs(order, 0)
    assert lhs.deg == rhs.deg == 0
    assert eq_to_order_param(lhs, rhs, F(order)) is None


def test_single_sum_window_starts_at_least_exponent():
    # e(n) = n^2 - 3n dips to -2 at n = 1, 2, below e(0) = 0
    spec = R.SingleSum(F(1), F(-3), F(0), ())
    got = R.single_sum(spec, F(12))
    want = {F(-2): 2, F(0): 2, F(4): 1, F(10): 1}
    assert naive_single_sum(spec, 12) == want
    assert {F(k, got.den): F(v) for k, v in got.coeffs.items()} == want


def test_single_sum_cutoff_is_complete():
    # push one Slater-type sum far enough that the cutoff logic matters
    rec = R.get("slater-31")
    got = rec.lhs(F(80))
    want = naive_side(rec.lhs_data, 80)
    assert {F(k, got.den): F(v) for k, v in got.coeffs.items()} == want


def test_single_sum_needs_integer_factor_lattice():
    with pytest.raises(ValueError):
        R.single_sum(R.SingleSum(F(1), F(0), F(0), (R.sf(1, F(1, 2), 1, 0, 1, -1),)), 10)
    with pytest.raises(ValueError):
        R.combo((1, 0, (pf(1, 1, F(3, 2)),), R.SingleSum(F(1), F(0), F(0), ()))).build(10)


def test_every_non_lattice_data_side_against_naive():
    # every product and single-sum side given as data, at order 20
    for rec in R.registry():
        for data, build in ((rec.lhs_data, rec.lhs), (rec.rhs_data, rec.rhs)):
            if data is None or isinstance(data, R.NahmSide):
                continue
            got = build(F(20))
            want = naive_side(data, 20)
            assert {F(k, got.den): F(v) for k, v in got.coeffs.items()} == want, rec.id


def test_naive_side_expands_past_negative_rungs():
    # (q^-3; q)_2 lowers the terms of (q; q)_inf by up to 5, so the oracle
    # must expand (q; q)_inf past the order to keep q^7 and q^9
    side = R.combo((1, 0, (pf(1, 1, 1), pf(1, -3, 1, 2))))
    got = product((pf(1, 1, 1), pf(1, -3, 1, 2)), 10)
    assert naive_side(side, 10) == {e: F(v) for e, v in got.items()}


# the printed offsets that no record carries, as (family, b): (substitution
# q -> q^k of the peel, period, the residues 1..period whose exponent is -1,
# or None where the profile has exponents +1 as well)
CANDIDATE_GAPS = {
    (9, (F(-1, 2), 0)): (1, 5, {1, 4}),      # 1/(q, q^4; q^5)_inf
    (9, (F(1, 2), 2)): (1, 5, {2, 3}),       # 1/(q^2, q^3; q^5)_inf
    (11, (-1, 1)): (4, 20, None),
    (11, (F(-1, 2), 0)): (4, 20, None),
    (11, (0, 1)): (4, 20, None),
    (13, (F(-1, 2), 0)): (1, 8, {1, 4, 7}),  # 1/(q, q^4, q^7; q^8)_inf
    (13, (F(3, 2), 4)): (1, 8, {3, 4, 5}),   # 1/(q^3, q^4, q^5; q^8)_inf
}


def test_printed_candidates_are_records_or_peeled_gaps():
    # each printed offset b of a family is a record's side (A, k b, 0, k d)
    # up to q -> q^k, k in {1, 2, 4}, or one of the gaps, whose peel at
    # order 200 is integral, bounded by 1 and periodic
    quads = {side.quad for rec in R.registry() for side in (rec.lhs_data, rec.rhs_data)
             if isinstance(side, R.NahmSide) and side.mask is None}
    covered, gaps = 0, {}
    for fam in FAMILIES:
        for b in fam.bs:
            if any(quadruple(fam.A, [k * x for x in b], 0, [k * x for x in fam.d])
                   in quads for k in (1, 2, 4)):
                covered += 1
                continue
            prof = with_period(normalize_and_profile(
                nahm_sum(quadruple(fam.A, b, 0, fam.d), 200), 190))
            assert len(prof.a) == 190 and prof.is_integral() and prof.is_bounded(1)
            table = prof.residue_table()
            minus = {r for r, x in enumerate(table, 1) if x == -1}
            gaps[fam.index, b] = (prof.substitution, prof.period,
                                  minus if set(table) <= {0, -1} else None)
    assert covered == 31
    assert gaps == CANDIDATE_GAPS


@pytest.mark.parametrize("deg", [0, 2, 30])
def test_lebesgue_lhs_against_literal_sum(deg):
    # sum_n q^(n(n+1)/2) (u;q)_n/(q;q)_n term by term, u kept formal
    order = F(30)
    rows = {}
    n = 0
    while n * (n + 1) // 2 < order:
        e = F(n * (n + 1), 2)
        poch = poch_param_naive(1, 1, 0, 1, n, order - e, deg)
        inv = ser_inv(poch_naive(1, F(1), F(1), n, order - e), order - e)
        for r in range(deg + 1):
            row = {x + e: v for (p, x), v in poch.items() if p == r}
            rows[r] = ser_add(rows.get(r, {}), ser_mul(row, inv, order))
        n += 1
    lhs = R.get("lebesgue-param").lhs(order, deg)
    for r, row in enumerate(lhs.rows):
        assert row.order == order
        assert {e: F(v) for e, v in row.items()} == rows.get(r, {}), r


def _umul(x: dict, y: dict, order, deg: int) -> dict:
    """The product of two maps (u-power, exponent) -> coefficient, below
    order and up to u-degree deg."""
    out = {}
    for (i, e), v in x.items():
        for (j, f), w in y.items():
            if i + j <= deg and e + f < order:
                out[i + j, e + f] = out.get((i + j, e + f), 0) + v * w
    return {k: v for k, v in out.items() if v}


A1, A2 = [[2, 1], [2, 2]], [[1, F(-1, 2)], [-1, 1]]
# per record: the left side as (A, b, d, weights, sign of u), the right side
# as (sign, a, m) of (sign u q^a; q^m)_inf, its fixed factors and the
# polynomial in u multiplying it, as (u-power, exponent) -> coefficient
PARAM_SIDES = {
    "lebesgue-param": (([[1, 1], [1, 2]], [F(1, 2), 0], [1, 1], (0, 1), -1),
                       ((1, 1, 2), (pf(-1, 1, 1),), {(0, 0): 1})),
    "cao-wang-param": ((A1, [-1, -1], [1, 2], (1, 2), 1), ((-1, 0, 1), (), {(0, 0): 1})),
    "thm-new-exam1-param": ((A1, [-3, 0], [2, 4], (1, 2), 1),
                            ((-1, 3, 2), (), {(0, 0): 1, (1, 1): 1, (1, -1): 1})),
    "li-wang-param": ((A2, [-1, 0], [2, 4], (0, 1), 1),
                      ((-1, 0, 2), (pf(-1, 0, 2),), {(0, 0): 1})),
    "thm-new-exam2-param": ((A2, [-3, 3], [2, 4], (0, 1), 1),
                            ((-1, 3, 2), (pf(-1, 2, 2),),
                             {(0, -2): 2, (0, 0): 2, (1, -1): 2})),
}


@pytest.mark.parametrize("rid", sorted(PARAM_SIDES))
def test_param_sides_against_naive(rid):
    # both sides at order 20 and u-degree 20, row by row: the left by a box
    # scan of the Nahm sum, the right by literal products
    order = deg = 20
    (A, b, d, weights, usign), ((sign, a, m), factors, poly) = PARAM_SIDES[rid]
    lhs = nahm_param_naive(A, b, 0, d, order, 20, weights, deg)
    want_l = {(k, e): v * usign ** k for e, row in lhs.items() for k, v in row.items()}
    top = order - min(e for _, e in poly)     # the product, exact below order
    rhs = poch_param_naive(sign, 1, a, m, None, top, deg)
    for f in factors:
        rhs = _umul(rhs, {(0, e): v for e, v in naive_factor(f, top).items()}, top, deg)
    want_r = _umul(rhs, {(k, F(e)): v for (k, e), v in poly.items()}, order, deg)
    assert want_l == want_r
    rec = R.get(rid)
    for side, want in ((rec.lhs(order, deg), want_l), (rec.rhs(order, deg), want_r)):
        assert side.deg == deg and all(row.order == order for row in side.rows)
        got = {(k, F(e, row.den)): F(v) for k, row in enumerate(side.rows)
               for e, v in row.coeffs.items()}
        assert got == want


def _side_fails(order, *deg):
    raise ZeroDivisionError("side failed")


@pytest.fixture
def bad_record(monkeypatch):
    """A conjectural record whose right side raises, added to the registry."""
    rec = R.IdentityRecord("bad-side", "conjecture", R.get("rr-1").lhs,
                           _side_fails, "test")
    monkeypatch.setattr(R, "_REGISTRY", [*R.registry(), rec])
    monkeypatch.setattr(R, "_BY_ID", {**R._BY_ID, rec.id: rec})
    return rec


def test_verify_all_reports_a_raising_record(bad_record):
    with pytest.raises(ZeroDivisionError):
        R.verify(bad_record.id, 20)            # verify itself still raises
    seq = R.verify_all(20, status_filter="conjecture")
    assert [r.id for r in seq][-1] == bad_record.id
    err = seq[-1]
    assert err.result == "error" and err.first_mismatch is None
    assert err.error == "ZeroDivisionError: side failed"
    assert err.to_json()["error"] == err.error
    assert all(r.result == "conjecture_pass" for r in seq[:-1])
    assert "error" not in seq[0].to_json()
    if multiprocessing.get_start_method() == "fork":   # workers see the record
        par = R.verify_all(20, status_filter="conjecture", jobs=2)
        assert [(r.id, r.result, r.error) for r in par] == \
            [(r.id, r.result, r.error) for r in seq]


def test_verify_all_cli_counts_errors_as_failures(bad_record, capsys):
    from nahm_forge.cli import main
    code = main(["verify-all", "--order", "20", "--status-filter", "conjecture"])
    out = capsys.readouterr().out
    assert code == 1
    assert "bad-side: error (order 20" in out and "ZeroDivisionError" in out
    assert "# 14 records, 1 failures" in out


# sha256 over both sides of every record: the 89 without a parameter at
# order 200, the 5 with one at order 60 and degree 60, row by row; each
# series as (den, order, sorted (key, coefficient) pairs).
PINNED_SIDES = "bf1ce0a1aacdce8080b289943a22aca23c5a06f7f497d066125a1d4ae45b8f3b"


def test_outputs_pinned():
    def canon(s):
        return (s.den, str(s.order), sorted((k, str(v)) for k, v in s.coeffs.items()))

    h = hashlib.sha256()
    for rec in R.registry():
        if rec.params:
            for s in (rec.lhs(60, 60), rec.rhs(60, 60)):
                h.update(repr((rec.id, [canon(r) for r in s.rows])).encode())
        else:
            for s in (rec.lhs(F(200)), rec.rhs(F(200))):
                h.update(repr((rec.id, canon(s))).encode())
    assert sum(1 for r in R.registry() if r.params) == 5
    assert h.hexdigest() == PINNED_SIDES
