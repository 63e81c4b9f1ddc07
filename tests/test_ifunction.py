from collections import Counter
from fractions import Fraction as F
from itertools import product
from math import floor

import pytest

from chloc import ifunction
from chloc.ifunction import _i_factored, _linear_form
from oracles import i_value_product, pf_cross_multiply
from chloc import (
    BivarPoly,
    RatFunc,
    b_range,
    big_i_factor,
    chain_solve,
    i_coefficient,
    is_calabi_yau,
    nonequivariant_limit,
    picard_fuchs_check,
    sector,
    weight_sequence,
)


def brute_b_range(chain, j, k):
    """Scan candidates frac, frac+1, ... instead of constructing the range."""
    top = chain.charges[j - 1] * k
    frac = top - floor(top)
    delta = -1 if (chain.n_variables - j) % 2 == 1 else 0
    out = []
    m = 0
    while frac + m < top:
        b = frac + m
        if b > delta and b >= 0:
            out.append(b)
        m += 1
    return tuple(out)


def apply_pf_operator(chain, series: dict[int, RatFunc]) -> dict[int, RatFunc]:
    """Literal application of the annihilating operator to a t-polynomial.

    Each first-order factor (A z t d/dt + B z + C q) sends t^k v to
    t^k ((A k + B) z + C q) v; the t^d prefactor shifts exponents.  This is
    an independent code path from the recurrence used by the library.
    """
    kw = weight_sequence(chain)
    first = dict(series)
    for j in range(1, chain.n_variables + 1):
        qj = chain.charges[j - 1]
        for c in range(chain.weights[j - 1]):
            first = {
                k: v * RatFunc.from_poly(BivarPoly.linear(qj * k + c, kw[j - 1]))
                for k, v in first.items()
            }
    first = {k + chain.degree: v for k, v in first.items()}
    second = dict(series)
    for c in range(1, chain.degree + 1):
        second = {
            k: v * RatFunc.from_poly(BivarPoly.linear(k - c, 0))
            for k, v in second.items()
        }
    out: dict[int, RatFunc] = {}
    for k, v in first.items():
        out[k] = out.get(k, RatFunc.zero()) + v
    for k, v in second.items():
        out[k] = out.get(k, RatFunc.zero()) - v
    return out


def test_b_range_matches_brute_force():
    for a in [(2, 2, 3), (3, 2, 2), (1, 4), (1, 2), (1, 6)]:
        chain = chain_solve(a)
        if not is_calabi_yau(chain):
            continue
        for j in range(1, chain.n_variables + 1):
            for k in range(1, 40):
                assert b_range(chain, j, k) == brute_b_range(chain, j, k)


def test_b_range_delta_convention():
    # b = 0 is admissible exactly when N - j is odd
    chain = chain_solve([2, 2, 3])
    assert b_range(chain, 2, 3) == (F(0),)  # N - j = 1, odd
    assert b_range(chain, 1, 3) == ()
    assert b_range(chain, 3, 3) == ()


def test_spot_values_223():
    chain = chain_solve([2, 2, 3])
    z, q = BivarPoly.z(), BivarPoly.q()
    i1 = i_coefficient(chain, 1)
    assert i1.value == RatFunc.from_poly(-1 * z)
    assert i1.sector == sector(chain, 1)
    assert not i1.is_broad
    i2 = i_coefficient(chain, 2)
    assert i2.value == RatFunc.from_scalar(-1)
    assert i2.sector == sector(chain, 2)
    i3 = i_coefficient(chain, 3)
    assert i3.value == RatFunc(q, z)
    assert i3.sector == sector(chain, 3)
    assert i3.is_broad


def test_rejects_non_cy_and_bad_k():
    with pytest.raises(ValueError):
        i_coefficient(chain_solve([3, 2]), 1)
    with pytest.raises(ValueError):
        i_coefficient(chain_solve([2, 2, 3]), 0)


def test_nonequivariant_limit():
    chain = chain_solve([2, 2, 3])
    assert nonequivariant_limit(i_coefficient(chain, 1)) == RatFunc.from_poly(
        -1 * BivarPoly.z()
    )
    assert nonequivariant_limit(i_coefficient(chain, 3)).is_zero
    for k in range(1, 31):
        ic = i_coefficient(chain, k)
        lim = nonequivariant_limit(ic)
        has_zero_b = any(F(0) in bs for bs in ic.b_sets)
        assert lim.is_zero == has_zero_b
        # order of vanishing at q = 0 counts the zero entries
        if not ic.value.is_zero:
            zero_count = sum(1 for bs in ic.b_sets for b in bs if b == 0)
            assert ic.value.q_valuation() == zero_count


def test_homogeneity_of_coefficients():
    chain = chain_solve([2, 2, 3])
    lam1, lam2 = F(2), F(-3, 2)
    for k in range(1, 12):
        v = i_coefficient(chain, k).value
        base = v.evaluate(5, 7)
        for lam in (lam1, lam2):
            scaled = v.evaluate(5 * lam, 7 * lam)
            deg = 1 + sum(len(bs) for bs in i_coefficient(chain, k).b_sets) - (k - 1)
            assert scaled == lam ** deg * base


def test_sector_labels():
    chain = chain_solve([3, 2, 2])
    for k in range(1, 20):
        ic = i_coefficient(chain, k)
        assert ic.sector == sector(chain, k)
        broad_expected = any((c * k) % 1 == 0 for c in chain.charges)
        assert ic.is_broad == broad_expected


def test_pf_operator_application_oracle():
    # literal operator application annihilates the series, independently of
    # the recurrence implemented in picard_fuchs_check
    for a in [(2, 2, 3), (3, 2, 2)]:
        chain = chain_solve(a)
        bound = 12
        series = {k: i_coefficient(chain, k).value for k in range(1, bound + 1)}
        image = apply_pf_operator(chain, series)
        for m in range(1, bound + 1):
            assert image.get(m, RatFunc.zero()).is_zero, (a, m)


def test_pf_check_passes():
    for a in [(2, 2, 3), (3, 2, 2)]:
        report = picard_fuchs_check(chain_solve(a), 33)
        assert report.all_ok
        assert len(report.items) == 33
        assert [i.m for i in report.items] == list(range(1, 34))


def test_pf_check_all_small_cy_chains():
    found = []
    for n in range(1, 4):
        for a in product(range(1, 7), repeat=n):
            if a[-1] == 1:
                continue
            chain = chain_solve(a)
            if is_calabi_yau(chain):
                found.append(a)
                assert picard_fuchs_check(chain, 30).all_ok, a
    # the Calabi-Yau chains in this window
    assert (2, 2, 3) in found and (3, 2, 2) in found
    assert all(a in found for a in [(1, k) for k in range(2, 7)])


def test_pf_rejects_non_cy():
    with pytest.raises(ValueError):
        picard_fuchs_check(chain_solve([3, 2]), 5)


def test_pf_operator_factor_counts():
    # the first product carries one factor per (variable, 0 <= c < weight),
    # the second one per 1 <= c <= degree; on a Calabi-Yau chain they agree
    for a in [(2, 2, 3), (3, 2, 2), (1, 4)]:
        chain = chain_solve(a)
        first = sum(chain.weights)
        second = chain.degree
        assert first == second


def test_big_i_factor_cases():
    z, q = BivarPoly.z(), BivarPoly.q()
    w = F(1, 2)
    assert big_i_factor(0, w, -2) == RatFunc.one()
    assert big_i_factor(1, w, -2) == RatFunc.from_poly(w * z - 2 * q)
    assert big_i_factor(-1, w, -2) == RatFunc(
        BivarPoly.constant(1), (w - 1) * z - 2 * q
    )
    assert big_i_factor(2, F(0), 1) == RatFunc.from_poly(q * (z + q))
    assert big_i_factor(-2, F(3), 1) == 1 / RatFunc.from_poly(
        (2 * z + q) * (z + q)
    )


def _cy_chains(max_n=4, max_a=6):
    for n in range(1, max_n + 1):
        for a in product(range(1, max_a + 1), repeat=n):
            if a[-1] != 1 and is_calabi_yau(chain_solve(a)):
                yield a


def test_factored_pf_check_agrees_with_cross_multiplication():
    # all 21 Calabi-Yau chains with n <= 4 and exponents <= 6, up to
    # t^(degree + 16): item by item against the RatFunc-product oracle, and
    # every printed I_k byte for byte against the multiplied-out value
    chains = list(_cy_chains())
    assert len(chains) == 21
    for a in chains:
        chain = chain_solve(a)
        k_max = chain.degree + 16
        report = picard_fuchs_check(chain, k_max)
        values = {}
        oracle = pf_cross_multiply(chain, k_max, values)
        assert [(i.m, i.ok, i.residual) for i in report.items] == oracle, a
        assert report.all_ok, a
        for k in range(1, k_max + 1):
            if k not in values:
                values[k] = i_value_product(chain, k)
            assert str(i_coefficient(chain, k).value) == str(values[k]), (a, k)


def test_perturbed_b_range_fails_both_checks(monkeypatch):
    chain = chain_solve([2, 2, 3])
    original = ifunction.b_range
    j0, k0 = 3, 7
    assert original(chain, j0, k0)

    def perturbed(chain_, j, k):
        bs = original(chain_, j, k)
        if (j, k) == (j0, k0):
            bs = bs[:-1] + (bs[-1] + 1,)
        return bs

    monkeypatch.setattr(ifunction, "b_range", perturbed)
    k_max = chain.degree + 16
    report = picard_fuchs_check(chain, k_max)
    oracle = pf_cross_multiply(chain, k_max)
    failed = [item.m for item in report.failures()]
    assert failed, "the perturbed I_k passed the factored check"
    assert failed == [m for m, ok, _ in oracle if not ok]
    for item in report.failures():
        assert isinstance(item.residual, RatFunc) and not item.residual.is_zero
    # I_7 is the left side at m = 7 + d and the right side at m = 7
    assert failed == [k0, k0 + chain.degree]


def test_perturbed_scalar_fails_factored_check(monkeypatch):
    # equal multisets of forms with different scalars are not equal
    chain = chain_solve([2, 2, 3])
    original = ifunction._i_factored

    def perturbed(chain_, k):
        (scalar, exps), b_sets = original(chain_, k)
        return (2 * scalar if k == 7 else scalar, exps), b_sets

    monkeypatch.setattr(ifunction, "_i_factored", perturbed)
    report = picard_fuchs_check(chain, chain.degree + 16)
    assert [item.m for item in report.failures()] == [7, 7 + chain.degree]
    for item in report.failures():
        assert isinstance(item.residual, RatFunc) and not item.residual.is_zero


def test_linear_form_normalization():
    # pure z: the b*z denominator factors share one key
    assert _linear_form(2, 0) == (2, (1, 0))
    assert _linear_form(1, 0) == (1, (1, 0))
    assert _linear_form(F(-5, 3), 0) == (F(-5, 3), (1, 0))
    # pure q (b = 0 admissible): -q and q share a key, opposite scalars
    assert _linear_form(0, -1) == (-1, (0, 1))
    assert _linear_form(0, 1) == (1, (0, 1))
    # mixed: primitive integers, first entry positive
    assert _linear_form(F(1, 2), -3) == (F(1, 2), (1, -6))
    assert _linear_form(-2, 4) == (-2, (1, -2))
    assert _linear_form(F(-3, 4), F(3, 2)) == (F(-3, 4), (1, -2))
    for a, b in [(F(7, 6), -2), (0, F(-9, 4)), (F(-4, 15), 0), (3, 6)]:
        s, (x, y) = _linear_form(a, b)
        assert s * BivarPoly.linear(x, y) == BivarPoly.linear(a, b)


def test_i_factored_spot_values_223():
    chain = chain_solve([2, 2, 3])
    # I_2 = -1: the z^0 is dropped; I_3 = q/z carries a pure-q form (b = 0)
    assert _i_factored(chain, 2)[0] == (F(-1), Counter())
    assert _i_factored(chain, 3)[0] == (F(1), Counter({(0, 1): 1, (1, 0): -1}))
