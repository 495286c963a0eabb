"""The central charge of every candidate family from Nahm's equation: an
asymptotic check at q -> 1 in floats that shares no code with the exact
engine (Zagier, The dilogarithm function, 2007, part II; Vlasenko and
Zwegers, Nahm's conjecture: asymptotic computations and counterexamples,
2011)."""

import math
from fractions import Fraction as F

import pytest

from nahm_forge.candidates import DUAL_PAIRS, FAMILIES

from _oracles import central_charge, dilog, nahm_solution

CHARGES = {1: F(1, 2), 2: F(1), 3: F(9, 14), 4: F(6, 7), 5: F(1, 3), 6: F(1),
           7: F(4, 9), 8: F(8, 9), 9: F(2, 5), 10: F(11, 10), 11: F(3, 5),
           12: F(9, 10), 13: F(3, 8), 14: F(7, 8)}


def test_dilog_against_its_special_values():
    # Li_2(1/2) = pi^2/12 - log(2)^2/2 (Euler), and the reflection above 1/2
    assert dilog(0.0) == 0.0
    assert dilog(0.5) == pytest.approx(math.pi ** 2 / 12 - math.log(2) ** 2 / 2, abs=1e-15)
    assert dilog(1.0) == pytest.approx(math.pi ** 2 / 6, abs=1e-15)
    golden = (math.sqrt(5) - 1) / 2     # Li_2(phi^-1) = pi^2/10 - log(phi)^2
    assert dilog(golden) == pytest.approx(math.pi ** 2 / 10 - math.log(golden) ** 2, abs=1e-15)


@pytest.mark.parametrize("fam", FAMILIES, ids=lambda f: f"family-{f.index}")
def test_family_central_charge(fam):
    X = nahm_solution(fam.A, fam.d)
    assert all(0 < x < 1 for x in X)
    for i, x in enumerate(X):
        assert 1 - x == pytest.approx(math.prod(y ** float(a) for y, a in zip(X, fam.A[i])),
                                      abs=1e-14)
    assert abs(central_charge(fam.A, fam.d) - CHARGES[fam.index]) < 1e-12


@pytest.mark.parametrize("fam", FAMILIES, ids=lambda f: f"family-{f.index}")
def test_a_changed_entry_changes_the_charge(fam):
    # A[0][0] + 1 keeps A diag(d) symmetric and positive definite
    A = [list(row) for row in fam.A]
    A[0][0] += 1
    assert abs(central_charge(A, fam.d) - CHARGES[fam.index]) > 1e-6


@pytest.mark.parametrize("left, right", DUAL_PAIRS,
                         ids=lambda f: f"family-{f.index}")
def test_dual_pair_charges_sum_to_the_rank(left, right):
    # c(A) + c(A^-1) = sum_i 1/d_i, the symmetrizable form of Zagier's rule
    assert left.d == right.d
    total = central_charge(left.A, left.d) + central_charge(right.A, right.d)
    assert abs(total - sum(F(1, x) for x in left.d)) < 1e-12
