from functools import partial

import numpy as np
import pytest

from nahm_forge import products, zlaurent
from nahm_forge.errors import WindowOverflow
from nahm_forge.series import QSeries, eq_to_order
from nahm_forge.nahm import nahm_sum, quadruple
from nahm_forge.products import exact_row, exact_run
from nahm_forge.zlaurent import _ct_shape, _ct_window, _ladder, double_sum_ct

from _oracles import pentagonal_coeffs


CASES = [(0, 0, (0, 0)), (-1, 2, (-1, 2)), (1, 0, (1, 0))]


def direct_sum(b, order):
    return nahm_sum(quadruple([[2, -1], [-2, 2]], b, 0, [1, 2]), order)


def full_width_ladder(u_exp, v_exp, n, w_cap, dtype):
    """The ladder on the full window, every rung on every row and each rung
    of 1/(q^u z; q)_inf as doubling passes prod_j (1 + z^(2^j) q^(2^j e)),
    2^j <= 2W, and its whole z^0 row: the reference for _ladder's Horner
    scheme on its cut window, and M.  Column k holds q^(k-M), with M the sum
    of -e over every add with e < 0, so nothing drops on the left."""
    rows, passes = 2 * w_cap + 1, [1 << j for j in range((2 * w_cap).bit_length())]
    reach = sum(range(-1 - v_exp, 0, -2)) + sum(range(1, 1 - u_exp)) * sum(passes)
    ncols = n + 2 * reach
    arr = np.zeros((rows, ncols), dtype=dtype)
    arr[w_cap, reach] = 1

    def add(dz, e):
        if abs(e) >= ncols:
            return
        dst, src = (arr[dz:], arr[:-dz]) if dz > 0 else (arr[:dz], arr[-dz:])
        if e >= 0:
            dst[:, e:] += src[:, :ncols - e]
        else:
            dst[:, :e] += src[:, -e:]

    for dz, e0 in ((1, 1), (-1, 1), (-1, 1 + v_exp)):
        for e in range(e0, ncols, 2):
            add(dz, e)
    for e in range(u_exp, ncols):
        for s in passes:
            add(s, s * e)
    return arr[w_cap], reach


def times_q2_eta(row, width):
    """The first `width` coefficients of row times (q^2; q^2)_inf, the eta
    factor from the pentagonal numbers at q -> q^2, in int64 (exact mod
    2^64, as the ladders are)."""
    row, out = np.asarray(row[:width]), np.zeros(width, dtype=np.int64)
    for e, c in pentagonal_coeffs((width + 1) // 2).items():
        out[2 * e:] += c * row[:width - 2 * e]
    return out


@pytest.mark.parametrize("order", [1, 5, 30, 60, 200, 300])
def test_cut_window_matches_full_width_ladder(order):
    # every (u, v) with u in -1..4 and u + v >= -2, so the WindowOverflow
    # domain edge is in: _ladder at the proven window against the oracle at
    # that window and at 1.5 times it.  The oracle multiplies
    # (-qz, -q/z; q^2)_inf out rung by rung, where _ladder places the theta
    # (-qz, -q/z, q^2; q^2)_inf = sum_k z^k q^(k^2), so its row times
    # (q^2; q^2)_inf is _ladder's.  The int64 runs are exact mod 2^64 in the
    # kept columns q^-L..q^(n-1), and the oracle's z^0 row holds nothing
    # further left
    for u in range(-1, 5):
        for v in range(-2 - u, 5):
            w = _ct_window(u, v, order)
            reach = _ct_shape(u, v, order, w)[2]
            row, _ = _ladder(u, v, order, w, np.int64)
            assert len(row) == order + reach
            for wide in (w, w * 3 // 2):
                full, left = full_width_ladder(u, v, order, wide, np.int64)
                assert row.tolist() == times_q2_eta(
                    full[left - reach:], order + reach).tolist(), (u, v, wide)
                assert not full[:left - reach].any(), (u, v, wide)


def test_horner_divides_once_per_row_with_no_negative_columns(monkeypatch):
    # 1/(q^u z; q)_inf is W divisions by rungs, one per row z^-W..z^-1, and
    # on u >= 0, v >= -1 the window starts at q^0
    powers = []

    def spy(arr, sign, a, m, power, *args):
        powers.append(power)
        return products.rungs(arr, sign, a, m, power, *args)

    monkeypatch.setattr(zlaurent, "rungs", spy)
    for u, v in [(0, -1), (3, 2), (-1, 2), (1, -2)]:
        w = _ct_window(u, v, 60)
        for dtype in (np.float64, np.int64, object):
            powers.clear()
            _ladder(u, v, 60, w, dtype)
            assert powers == [-1] * w, (u, v, dtype)
    w = _ct_window(0, 0, 60)
    assert _ct_shape(-1, 2, 60, w)[2] == w and _ct_shape(1, -2, 60, w)[2] == 1
    for u in range(5):
        for v in range(-1, 5):
            assert _ct_shape(u, v, 60, w) == (2 * w + 1, 60, 0), (u, v)


def test_ct_box_runs_float64_only_at_order_200(monkeypatch):
    # the row below q^200 stays under 2^52, so exact_run needs no int64 run
    dtypes = []

    def spy(*args):
        dtypes.append(args[-1])
        return _ladder(*args)

    monkeypatch.setattr(zlaurent, "_ladder", spy)
    for u, v in [(u, v) for u in range(4) for v in range(-1, 4)]:
        dtypes.clear()
        assert eq_to_order(double_sum_ct(u, v, 200), direct_sum((u, v), 200), 200) is None
        assert dtypes == [np.float64], (u, v)


def test_one_multiply_ladder_and_no_series_multiply(monkeypatch):
    # the theta is placed, not multiplied out: the adds are the rungs of
    # (-q^(1+v)/z; q^2)_inf in the window, the W shifts by q^u and the
    # Horner divisions, and the z^0 row is returned with no closing product
    assert not hasattr(zlaurent, "poch") and not hasattr(zlaurent, "pf")
    divisions = []

    def spy(*args):
        divisions.append(products.rungs(*args))
        return divisions[-1]

    monkeypatch.setattr(zlaurent, "rungs", spy)
    for u, v in [(0, -1), (3, 2), (-1, 2), (1, -2), (4, 4)]:
        w = _ct_window(u, v, 60)
        ncols = _ct_shape(u, v, 60, w)[1]
        divisions.clear()
        _, adds = _ladder(u, v, 60, w, np.float64)
        assert adds == len(range(1 + v, ncols, 2)) + w + sum(divisions), (u, v)
    monkeypatch.setattr(QSeries, "__mul__", lambda *args: pytest.fail("multiplied"))
    for u, v, b in CASES:
        assert eq_to_order(double_sum_ct(u, v, 60), direct_sum(b, 60), 60) is None


def test_window_is_proven_on_the_lattice():
    # W = max(i, |j - i|) over the points (i, j >= 0) with E(i, j) < n never
    # passes _ct_window, and the refusal box i <= W, j <= 2W at n = 1 holds
    # every E < 0; the scan's last 20 rows and columns stay empty, so it
    # holds every such point.  The figures at order 200 pin the bound
    i, j = np.mgrid[:120, :120]
    for u in range(-3, 5):
        for v in range(-4, 5):
            e = (j - i) ** 2 + j * j + v * j + u * i
            for n in (1, 5, 30, 200):
                inside = e < n
                assert not inside[-20:].any() and not inside[:, -20:].any()
                assert np.maximum(i, abs(j - i))[inside].max() <= \
                    _ct_window(u, v, n), (u, v, n)
            box = _ct_window(u, v, 1)
            assert not (e < 0)[box + 1:].any() and not (e < 0)[:, 2 * box + 1:].any()
    assert [_ct_window(u, v, 200) for u, v in [(0, -1), (-1, 2), (0, 0), (3, 3)]] \
        == [20, 20, 19, 16]


@pytest.mark.parametrize("u,v,b", CASES)
def test_ct_matches_nahm_sum(u, v, b):
    ct = double_sum_ct(u, v, 60)
    direct = nahm_sum(quadruple([[2, -1], [-2, 2]], b, 0, [1, 2]), 60)
    assert eq_to_order(ct, direct, 60) is None


@pytest.mark.parametrize("u,v,b", CASES)
def test_window_doubling_is_stable(u, v, b):
    # the z^0 row below q^40 is the same at twice _ct_window
    rows = []
    for w in (_ct_window(u, v, 40), 2 * _ct_window(u, v, 40)):
        reach = _ct_shape(u, v, 40, w)[2]
        row = exact_run(partial(_ladder, u, v, 40, w))
        assert not any(row[:reach])
        rows.append(row[reach:])
    assert rows[0] == rows[1]


@pytest.mark.parametrize("order", [0, -3])
def test_nonpositive_order_is_the_empty_series(order):
    ct = double_sum_ct(0, 0, order)
    assert ct == direct_sum((0, 0), order) and not ct.coeffs


@pytest.mark.parametrize("u,v", [(0, -1), (-1, 2)])
def test_ct_exact_past_int64(u, v):
    # the z^0 row passes 2^63 here (it peaks near 5e22 at order 600, where
    # order 300 stays under 2^53), and the float64 shadow's bound still
    # places every int64 residue
    w = _ct_window(u, v, 600)
    residues, adds = _ladder(u, v, 600, w, np.int64)
    shadow, _ = _ladder(u, v, 600, w, np.float64)
    row = exact_row(residues, shadow, adds)
    assert row is not None and max(row) > 2 ** 63
    assert eq_to_order(double_sum_ct(u, v, 600), direct_sum((u, v), 600),
                       600) is None


@pytest.mark.parametrize("u,v,b", CASES)
def test_object_ladder_matches_int64(u, v, b):
    w = _ct_window(u, v, 60)
    exact, adds = _ladder(u, v, 60, w, object)
    residues, adds64 = _ladder(u, v, 60, w, np.int64)
    assert adds == adds64
    assert exact.tolist() == residues.tolist() == \
        exact_run(partial(_ladder, u, v, 60, w))


def test_exact_row_bound():
    adds = 2 ** 10
    # the bound adds 2^-51 f reaches 2^62 exactly at f = 2^103
    below = 2.0 ** 103 - 2.0 ** 50
    x = int(below) + 2 ** 61 - 7
    residues = np.array([x % 2 ** 64, 5], dtype=np.uint64).view(np.int64)
    assert exact_row(residues, np.array([below, 5.0]), adds) == [x, 5]
    assert exact_row(residues, np.array([2.0 ** 103, 5.0]), adds) is None
    assert exact_row(residues, np.array([np.inf, 5.0]), adds) is None
    assert exact_row(residues, np.array([np.nan, 5.0]), adds) is None


@pytest.mark.parametrize("u,v,order", [(-1, 2, 60), (0, -1, 600)])
def test_declined_shadow_falls_back_to_python_ints(monkeypatch, u, v, order):
    # at order 600 the int64 residues wrap, so only Python ints are right
    calls = []

    def declined(residues, shadow, adds, nonneg=True):
        calls.append(adds)
        return None

    monkeypatch.setattr(products, "exact_row", declined)
    ct = double_sum_ct(u, v, order)
    assert calls
    assert eq_to_order(ct, direct_sum((u, v), order), order) is None


@pytest.mark.parametrize("u,v", [(-2, 0), (0, -2), (-1, -1)])
def test_window_overflow_outside_domain(monkeypatch, u, v):
    # decided from the lattice box, before any ladder is built
    monkeypatch.setattr(zlaurent, "_ladder", lambda *args: pytest.fail("allocated"))
    with pytest.raises(WindowOverflow):
        double_sum_ct(u, v, 60)


@pytest.mark.parametrize("order", [1, 5, 60])
def test_refusal_matches_the_ladder_row(order):
    # the box scan refuses exactly the offsets whose ladder row has content
    # left of q^0, the guard double_sum_ct keeps after the run
    for u in range(-3, 5):
        for v in range(-4, 5):
            w = _ct_window(u, v, order)
            reach = _ct_shape(u, v, order, w)[2]
            row = exact_run(partial(_ladder, u, v, order, w))
            try:
                double_sum_ct(u, v, order)
                refused = False
            except WindowOverflow:
                refused = True
            assert refused == any(row[:reach]), (u, v, order)


def test_oversized_window_refused_before_allocation(monkeypatch):
    # order 32,769 is the first whose (2W+1) x (n+2L) window passes the cap
    # at (u, v) = (0, 0): at 32,768 it is 511 x 32768 = 16,744,448 slots
    assert _ct_shape(0, 0, 32768, _ct_window(0, 0, 32768)) == (511, 32768, 0)
    monkeypatch.setattr(zlaurent, "_ladder", lambda *args: pytest.fail("allocated"))
    with pytest.raises(ValueError, match="513 x 32769 window slots"):
        double_sum_ct(0, 0, 32769)
    # at order 20 the window is 13 x 20 = 260 slots, at 21 it is 13 x 21
    monkeypatch.undo()
    monkeypatch.setattr(products, "MAX_WINDOW", 260)
    assert eq_to_order(double_sum_ct(0, 0, 20), direct_sum((0, 0), 20), 20) is None
    monkeypatch.setattr(zlaurent, "_ladder", lambda *args: pytest.fail("allocated"))
    with pytest.raises(ValueError, match="13 x 21 window slots"):
        double_sum_ct(0, 0, 21)
