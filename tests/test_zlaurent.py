from functools import partial

import numpy as np
import pytest

from nahm_forge import products, zlaurent
from nahm_forge.errors import WindowOverflow
from nahm_forge.series import eq_to_order
from nahm_forge.nahm import nahm_sum, quadruple
from nahm_forge.products import exact_row, exact_run
from nahm_forge.zlaurent import _ct_shape, _ct_window, _ladder, double_sum_ct


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


@pytest.mark.parametrize("order", [1, 5, 30, 60, 200, 300])
def test_cut_window_matches_full_width_ladder(order):
    # every (u, v) with u in -1..4 and u + v >= -2, so the WindowOverflow
    # domain edge is in; the small windows at the small orders only, where
    # they are cheap.  The int64 runs are exact mod 2^64 and both add the
    # same terms into the kept columns q^-L..q^(n-1), and the oracle's z^0
    # row holds nothing further left
    for u in range(-1, 5):
        for v in range(-2 - u, 5):
            for window in (None, 6, 12) if order <= 60 else (None,):
                w = _ct_window(order) if window is None else window
                reach = _ct_shape(u, v, order, w)[2]
                row, _ = _ladder(u, v, order, w, np.int64)
                full, left = full_width_ladder(u, v, order, w, np.int64)
                assert len(row) == order + reach
                assert row.tolist() == full[left - reach:left + order].tolist(), \
                    (u, v, window)
                assert not full[:left - reach].any(), (u, v, window)


def test_horner_divides_once_per_row_with_no_negative_columns(monkeypatch):
    # 1/(q^u z; q)_inf is W divisions by rungs, one per row z^-W..z^-1, and
    # on u >= 0, v >= -1 the window starts at q^0
    powers = []

    def spy(arr, sign, a, m, power, *args):
        powers.append(power)
        return products.rungs(arr, sign, a, m, power, *args)

    monkeypatch.setattr(zlaurent, "rungs", spy)
    w = _ct_window(60)
    for u, v in [(0, -1), (3, 2), (-1, 2), (1, -2)]:
        for dtype in (np.float64, np.int64, object):
            powers.clear()
            _ladder(u, v, 60, w, dtype)
            assert powers == [-1] * w, (u, v, dtype)
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


@pytest.mark.parametrize("u,v,b", CASES)
def test_ct_matches_nahm_sum(u, v, b):
    ct = double_sum_ct(u, v, 60)
    direct = nahm_sum(quadruple([[2, -1], [-2, 2]], b, 0, [1, 2]), 60)
    assert eq_to_order(ct, direct, 60) is None


@pytest.mark.parametrize("u,v,b", CASES)
def test_window_doubling_is_stable(u, v, b):
    # the z^0 row below q^40 is the same at W = 36, about twice _ct_window(40)
    rows = []
    for w in (_ct_window(40), 36):
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
    # the z^0 row passes 2^63 here, and the float64 shadow's bound still
    # places every int64 residue
    w = _ct_window(300)
    residues, adds = _ladder(u, v, 300, w, np.int64)
    shadow, _ = _ladder(u, v, 300, w, np.float64)
    row = exact_row(residues, shadow, adds)
    assert row is not None and max(row) > 2 ** 63
    assert eq_to_order(double_sum_ct(u, v, 300), direct_sum((u, v), 300),
                       300) is None


@pytest.mark.parametrize("u,v,b", CASES)
def test_object_ladder_matches_int64(u, v, b):
    w = _ct_window(60)
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


@pytest.mark.parametrize("u,v,order", [(-1, 2, 60), (0, -1, 300)])
def test_declined_shadow_falls_back_to_python_ints(monkeypatch, u, v, order):
    # at order 300 the int64 residues wrap, so only Python ints are right
    calls = []

    def declined(residues, shadow, adds, nonneg=True):
        calls.append(adds)
        return None

    monkeypatch.setattr(products, "exact_row", declined)
    ct = double_sum_ct(u, v, order)
    assert calls
    assert eq_to_order(ct, direct_sum((u, v), order), order) is None


@pytest.mark.parametrize("u,v", [(-2, 0), (0, -2), (-1, -1)])
def test_window_overflow_outside_domain(u, v):
    with pytest.raises(WindowOverflow):
        double_sum_ct(u, v, 60)


def test_oversized_window_refused_before_allocation(monkeypatch):
    # order 32,198 is the first whose (2W+1) x (n+2L) window passes the cap:
    # at 32,197 it is 521 x 32197 = 16,774,637 slots
    assert _ct_shape(0, 0, 32197, _ct_window(32197)) == (521, 32197, 0)
    monkeypatch.setattr(zlaurent, "_ladder", lambda *args: pytest.fail("allocated"))
    with pytest.raises(ValueError, match="523 x 32198 window slots"):
        double_sum_ct(0, 0, 32198)
    # at order 20 the window is 39 x 20 = 780 slots, at 21 it is 39 x 21
    monkeypatch.undo()
    monkeypatch.setattr(zlaurent, "MAX_WINDOW", 780)
    assert eq_to_order(double_sum_ct(0, 0, 20), direct_sum((0, 0), 20), 20) is None
    monkeypatch.setattr(zlaurent, "_ladder", lambda *args: pytest.fail("allocated"))
    with pytest.raises(ValueError, match="39 x 21 window slots"):
        double_sum_ct(0, 0, 21)
