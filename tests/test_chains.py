from fractions import Fraction as F
from itertools import product
from math import prod

import pytest

from oracles import symmetry_group_back_substitution
from chloc import (
    SymmetryElement,
    chain_solve,
    grading_element,
    is_calabi_yau,
    is_symmetry,
    sector,
    selection_rule,
    symmetry_group,
    weight_sequence,
)


def brute_force_group(exponents):
    """Enumerate symmetry vectors over the grid of possible denominators."""
    n = len(exponents)
    # theta_j has denominator dividing a_j * a_{j+1} * ... * a_N
    grids = []
    for j in range(n):
        m = prod(exponents[j:])
        grids.append([F(p, m) for p in range(m)])
    out = []
    for theta in product(*grids):
        ok = all(
            (exponents[j] * theta[j] + theta[j + 1]) % 1 == 0 for j in range(n - 1)
        ) and (exponents[n - 1] * theta[n - 1]) % 1 == 0
        if ok:
            out.append(theta)
    return sorted(out)


def test_solve_single_variable():
    c = chain_solve([5])
    assert c.weights == (1,)
    assert c.degree == 5
    assert c.charges == (F(1, 5),)


def test_solve_examples():
    c = chain_solve([2, 2, 3])
    assert c.weights == (1, 1, 1) and c.degree == 3
    assert c.charges == (F(1, 3), F(1, 3), F(1, 3))
    c2 = chain_solve([3, 2])
    assert c2.weights == (1, 3) and c2.degree == 6
    assert c2.charges == (F(1, 6), F(1, 2))


def test_solve_rejects_bad_input():
    with pytest.raises(ValueError):
        chain_solve([3, 1])
    with pytest.raises(ValueError):
        chain_solve([0, 2])
    with pytest.raises(ValueError):
        chain_solve([])


def test_solve_rejects_exponents_that_are_not_int():
    # int() would read these as the (2, 3) and (2, 1, 2) chains
    for bad in ([2.7, 3.2], ["2", True, 2], [2, 3.0], [True, 2]):
        with pytest.raises(ValueError):
            chain_solve(bad)


def test_symmetry_element_rejects_floats():
    # Fraction(0.1) is 3602879701896397/36028797018963968, not 1/10
    with pytest.raises(TypeError):
        SymmetryElement((0.1,))
    with pytest.raises(TypeError):
        SymmetryElement((F(1, 2), 0.5))
    assert SymmetryElement(("1/10", 3)).theta == (F(1, 10), F(0))


def test_linear_system_and_primitivity_exhaustive():
    from math import gcd

    for n in range(1, 5):
        for a in product(range(1, 7), repeat=n):
            if a[-1] == 1:
                continue
            c = chain_solve(a)
            for j in range(n - 1):
                assert a[j] * c.weights[j] + c.weights[j + 1] == c.degree
            assert a[-1] * c.weights[-1] == c.degree
            assert gcd(*c.weights, c.degree) == 1
            # charge recursion
            assert c.charges[-1] == F(1, a[-1])
            for j in range(n - 1):
                assert c.charges[j] == (1 - c.charges[j + 1]) / a[j]
            assert all(0 < ch < 1 for ch in c.charges)


def test_calabi_yau():
    assert is_calabi_yau(chain_solve([2, 2, 3]))
    assert is_calabi_yau(chain_solve([3, 2, 2]))  # weights (1,1,2), degree 4
    assert not is_calabi_yau(chain_solve([3, 2]))
    c = chain_solve([3, 2, 2])
    assert sum(c.charges) == 1


def test_symmetry_group_single_variable():
    c = chain_solve([4])
    g = symmetry_group(c)
    assert [s.theta for s in g] == [(F(p, 4),) for p in range(4)]


def test_symmetry_group_order_and_brute_force():
    for a in [(2, 2, 3), (3, 2), (2, 4), (5, 3, 2), (4, 2)]:
        c = chain_solve(a)
        g = symmetry_group(c)
        assert len(g) == prod(a)
        assert [s.theta for s in g] == brute_force_group(a)


def test_symmetry_group_order_is_exponent_product():
    # chain analyze prints aut_order as prod(a) without building the group
    for n in (1, 2, 3):
        for a in product(range(1, 5), repeat=n):
            if a[-1] < 2:
                continue
            assert len(symmetry_group(chain_solve(a))) == prod(a), a


def test_symmetry_group_matches_back_substitution_oracle():
    # every chain with n <= 3 and exponents <= 6, and the Calabi-Yau chains
    # with n = 4: the same elements in the same order, Fraction entries
    count = 0
    for n in range(1, 5):
        for a in product(range(1, 7), repeat=n):
            if a[-1] == 1:
                continue
            c = chain_solve(a)
            if n == 4 and not is_calabi_yau(c):
                continue
            g = symmetry_group(c)
            assert g == symmetry_group_back_substitution(a), a
            assert all(type(t) is F for s in g for t in s.theta), a
            count += 1
    assert count == 5 + 30 + 180 + 14


def test_group_axioms():
    c = chain_solve([2, 3])
    g = symmetry_group(c)
    elems = set()
    for s in g:
        elems.add(s.theta)
    identity = SymmetryElement((F(0), F(0)))
    assert identity in g
    for s in g:
        assert s.inverse().theta in elems
        for s2 in g:
            assert (s * s2).theta in elems


def test_grading_element():
    c = chain_solve([2, 2, 3])
    j = grading_element(c)
    assert j.theta == (F(1, 3), F(1, 3), F(1, 3))
    assert is_symmetry(c, j)
    assert j in symmetry_group(c)
    assert j ** c.degree == SymmetryElement((F(0), F(0), F(0)))
    assert grading_element(chain_solve([7])).theta == (F(1, 7),)


def test_sectors():
    c = chain_solve([2, 2, 3])
    assert sector(c, 0).theta == (F(0), F(0), F(0))
    assert sector(c, 2).theta == (F(2, 3), F(2, 3), F(2, 3))
    s3 = sector(c, 3)
    assert s3.theta == (F(0), F(0), F(0))
    assert s3.is_broad
    assert sector(c, -1) == sector(c, c.degree - 1)


def test_narrow_broad():
    assert SymmetryElement((F(1, 3), F(1, 3), F(1, 3))).is_narrow
    assert SymmetryElement((F(0), F(0), F(0))).is_broad
    assert SymmetryElement((F(1, 2), F(0), F(1, 4))).is_broad


def test_selection_rule():
    c = chain_solve([2, 2, 3])
    j = grading_element(c)
    # three copies of the grading element fail at genus 0 here
    assert selection_rule(c, 0, 3, [j, j, j]) is False
    assert selection_rule(c, 0, 3, [j, j, j ** (c.degree - 1)]) is True
    assert selection_rule(c, 1, 1, [j]) is True
    with pytest.raises(ValueError):
        selection_rule(c, 0, 2, [j, j])
    with pytest.raises(ValueError):
        selection_rule(c, 0, 3, [j, j])


def test_weight_sequence():
    assert weight_sequence(chain_solve([2, 2, 3])) == (1, -2, 4, -12)
    assert weight_sequence(chain_solve([7])) == (1, -7)
    for a in [(2, 2, 3), (4, 3, 2), (6,)]:
        assert all(k != 0 for k in weight_sequence(chain_solve(a)))


def test_grading_power_periodicity():
    for a in [(2, 2, 3), (3, 2, 2), (5,), (1, 4)]:
        c = chain_solve(a)
        assert sector(c, c.degree).theta == tuple(F(0) for _ in a)
        assert sector(c, c.degree + 2) == sector(c, 2)
