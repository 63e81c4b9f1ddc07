from collections import Counter
from fractions import Fraction as F
from itertools import product
from math import floor, perm, prod
from random import Random

import pytest

from chloc import ifunction
from chloc.ifunction import _expand, _i_raw, _linear_form, _normalized
from oracles import i_value_product, linear_product, pf_cross_multiply
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


def test_nonequivariant_limit_matches_substitution():
    # the two-term limit against q = 0 substituted into the expanded value,
    # on the 21 Calabi-Yau chains with at most 4 variables and exponents <= 6
    chains = [chain_solve(a) for n in range(1, 5) for a in product(range(1, 7), repeat=n)
              if a[-1] != 1 and is_calabi_yau(chain_solve(a))]
    assert len(chains) == 21
    vanishing = 0
    for chain in chains:
        for k in range(1, chain.degree + 17):
            ic = i_coefficient(chain, k)
            lim, expected = nonequivariant_limit(ic), ic.value.subs_q0()
            assert (lim.num, lim.den) == (expected.num, expected.den) and str(lim) == str(expected)
            vanishing += lim.is_zero
    assert vanishing


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


def test_levels_must_be_positive_ints():
    # a check up to t^0 would pass having checked nothing; a float or a bool
    # level would be truncated or fail inside range without naming itself
    chain = chain_solve([2, 2, 3])
    for k_max in (0, -3):
        with pytest.raises(ValueError, match="k_max"):
            picard_fuchs_check(chain, k_max)
    for bad in (True, 2.0, F(2), "2"):
        with pytest.raises(TypeError, match="k_max must be an int"):
            picard_fuchs_check(chain, bad)
        with pytest.raises(TypeError, match="k must be an int"):
            i_coefficient(chain, bad)
        with pytest.raises(TypeError, match="k must be an int"):
            b_range(chain, 1, bad)
        with pytest.raises(TypeError, match="j must be an int"):
            b_range(chain, bad, 2)
    assert len(picard_fuchs_check(chain, 1).items) == 1


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


def test_big_i_factor_rejects_inexact_arguments():
    # a float shift would enter as its binary value, a non-integer weight
    # would pass unnoticed
    with pytest.raises(TypeError, match="float"):
        big_i_factor(1, 0.1, 1)
    with pytest.raises(TypeError, match="weight must be an int"):
        big_i_factor(1, F(1, 2), 2.5)
    for bad in (True, F(2), 2.0):
        with pytest.raises(TypeError, match="weight must be an int"):
            big_i_factor(1, 0, bad)
        with pytest.raises(TypeError, match="level must be an int"):
            big_i_factor(bad, 0, 1)
    assert big_i_factor(1, 1, -1) == RatFunc.from_poly(BivarPoly.linear(1, -1))


def test_big_i_factor_zero_form():
    # weight 0 and omega + m = 0: a zero factor above, a zero denominator below
    assert big_i_factor(1, F(0), 0).is_zero
    assert big_i_factor(3, F(-2), 0).is_zero
    with pytest.raises(ZeroDivisionError):
        big_i_factor(-1, F(1), 0)
    with pytest.raises(ZeroDivisionError):
        big_i_factor(-3, F(2), 0)


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


def test_i_coefficient_is_in_canonical_form():
    # the expansion skips RatFunc's gcd; the full constructor changes nothing
    for a in _cy_chains():
        chain = chain_solve(a)
        for k in range(1, chain.degree + 17):
            v = i_coefficient(chain, k).value
            w = RatFunc(v.num, v.den)
            assert dict(v.num.items()) == dict(w.num.items()), (a, k)
            assert dict(v.den.items()) == dict(w.den.items()), (a, k)
            assert all(type(c) is F for _, c in [*v.num.items(), *v.den.items()]), (a, k)


def test_perturbed_rhs_scalar_fails_exactly_at_d_plus_3(monkeypatch):
    # (k + d - 1)!/(k - 1)! + 1 on the right side at k = 3 only
    monkeypatch.setattr(ifunction, "perm", lambda n, r: perm(n, r) + (1 if n - r == 2 else 0))
    chains = list(_cy_chains())
    assert len(chains) == 21
    for a in chains:
        chain = chain_solve(a)
        report = picard_fuchs_check(chain, chain.degree + 16)
        assert [item.m for item in report.failures()] == [chain.degree + 3], a
        assert not report.failures()[0].residual.is_zero, a


def test_perturbed_b_range_fails_both_checks(monkeypatch):
    # b + 1 for the last b of B_3(7), as numerator + degree: both the factored
    # check and the oracle (through b_range) read the perturbed numerators
    chain = chain_solve([2, 2, 3])
    original = ifunction._b_numerators
    j0, k0 = 3, 7
    assert original(chain, j0, k0)

    def perturbed(chain_, j, k):
        ns = list(original(chain_, j, k))
        if (j, k) == (j0, k0):
            ns[-1] += chain_.degree
        return ns

    monkeypatch.setattr(ifunction, "_b_numerators", perturbed)
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
    # equal raw forms with different scalars are not equal, raw or normalized:
    # D_7 halved doubles the scalar -1/D_7 of I_7
    chain = chain_solve([2, 2, 3])
    original = ifunction._i_raw

    def perturbed(chain_, k):
        denominator, nums = original(chain_, k)
        if k != 7:
            return denominator, nums
        assert denominator % 2 == 0
        return denominator // 2, nums

    monkeypatch.setattr(ifunction, "_i_raw", perturbed)
    report = picard_fuchs_check(chain, chain.degree + 16)
    assert [item.m for item in report.failures()] == [7, 7 + chain.degree]
    for item in report.failures():
        assert isinstance(item.residual, RatFunc) and not item.residual.is_zero


@pytest.mark.parametrize("rescale", [True, False])
def test_raw_mismatch_is_decided_on_normalized_forms(monkeypatch, rescale):
    # on (2, 2, 3), d = 3 and variables 1 and 3 have the forms n z + 3q and
    # n z + 12q; in I_7 the form n = 1 of variable 1 moves to variable 3 as
    # 4z + 12q = 4 (z + 3q).  With the scalar divided by 4, I_7 is the same
    # polynomial with other raw forms: the raw comparison fails at m = 7 and
    # m = 10 and the normalized one must pass them.  Without, both fail.
    # The scalar -1/D_7 divided by 4 is D_7 times 4; the moved form leaves
    # variable 1 a range and variable 3 a list.
    chain = chain_solve([2, 2, 3])
    assert weight_sequence(chain)[:3] == (1, -2, 4)
    original = ifunction._i_raw

    def moved(chain_, k):
        denominator, nums = original(chain_, k)
        if k != 7:
            return denominator, nums
        first, second, third = nums
        assert first[0] == 1 and type(first) is range
        return 4 * denominator if rescale else denominator, [first[1:], second, sorted([*third, 4])]

    normalized = []
    original_normalized = ifunction._normalized
    monkeypatch.setattr(ifunction, "_i_raw", moved)
    monkeypatch.setattr(ifunction, "_normalized",
                        lambda *args: normalized.append(1) or original_normalized(*args))
    report = picard_fuchs_check(chain, chain.degree + 16)
    assert len(normalized) == 4  # both sides of m = 7 and of m = 10
    if rescale:
        assert report.all_ok and all(item.residual is None for item in report.items)
    else:
        assert [item.m for item in report.failures()] == [7, 7 + chain.degree]
        assert all(not item.residual.is_zero for item in report.failures())


def test_pf_check_normalizes_no_form_on_true_chains(monkeypatch):
    # equal ranges and integer scalars decide every step; before raw forms
    # did, the 21 chains up to t^(degree + 16) normalized 9,072 forms, one
    # gcd (``_primitive``) each
    calls = []
    original = ifunction._primitive
    monkeypatch.setattr(ifunction, "_primitive", lambda x, y: calls.append(1) or original(x, y))
    chains = list(_cy_chains())
    assert len(chains) == 21
    for a in chains:
        chain = chain_solve(a)
        assert picard_fuchs_check(chain, chain.degree + 16).all_ok, a
    assert len(calls) == 0
    # i_coefficient expands the raw forms with no gcd; the normalizer itself
    # still takes one gcd per form
    chain = chain_solve([2, 2, 3])
    ic = i_coefficient(chain, 7)
    assert len(calls) == 0
    denominator, nums = _i_raw(chain, 7)
    _normalized(chain, F(-1, denominator), 2 - 7, nums)
    assert len(calls) == sum(map(len, ic.b_sets)) == 6


@pytest.mark.parametrize("wrong", ["stop", "step"])
def test_pf_fast_path_never_merges_an_unchecked_range(monkeypatch, wrong):
    # N_3(10) = range(1, 10, 3) of (2, 2, 3) patched to a range with the same
    # start and another stop or step.  A test of the start alone, (w_j k -
    # start) % d == 0, would merge range(1, 7, 3) with the operator's
    # range(10, 13, 3) into N_3(13) and pass m = 13.  The check must fail
    # exactly where the RatFunc-product oracle does, with the same residuals.
    chain = chain_solve([2, 2, 3])
    original = ifunction._b_numerators
    j0, k0 = 3, 10
    ns = original(chain, j0, k0)
    assert ns == range(1, 10, 3)
    bad = range(ns.start, ns[-1], ns.step) if wrong == "stop" else range(ns.start, ns.stop, 2 * ns.step)
    assert bad.start == ns.start and list(bad) != list(ns)
    monkeypatch.setattr(ifunction, "_b_numerators",
                        lambda chain_, j, k: bad if (j, k) == (j0, k0) else original(chain_, j, k))
    k_max = chain.degree + 16
    report = picard_fuchs_check(chain, k_max)
    oracle = pf_cross_multiply(chain, k_max)
    assert [(i.m, i.ok, i.residual) for i in report.items] == oracle
    assert [item.m for item in report.failures()] == [k0, k0 + chain.degree]


def test_layer_work_is_pinned(monkeypatch):
    """The I-function layer's work on the 21 Calabi-Yau chains up to
    t^(degree + 16), with i_coefficient at levels 1, degree + 1 and
    degree + 16: gcds of the normalizer (``_primitive``), expansions
    (``_expand``) and ``Fraction`` constructor calls inside
    picard_fuchs_check.  With the same wrappers, normalized I_k, sorted
    lists and ``Fraction`` scalars counted 690, 126 and 494."""
    counts = Counter()

    def counting(name, original):
        return lambda *args: counts.update([name]) or original(*args)

    monkeypatch.setattr(ifunction, "_primitive", counting("primitive", ifunction._primitive))
    monkeypatch.setattr(ifunction, "_expand", counting("expand", ifunction._expand))
    chains = [chain_solve(a) for a in _cy_chains()]
    assert len(chains) == 21
    for chain in chains:
        with monkeypatch.context() as patch:
            patch.setattr(ifunction, "Fraction", counting("fraction", F))
            assert picard_fuchs_check(chain, chain.degree + 16).all_ok
        for k in (1, chain.degree + 1, chain.degree + 16):
            i_coefficient(chain, k)
    assert (counts["primitive"], counts["expand"], counts["fraction"]) == (0, 63, 0)


def _expand_cases():
    """(forms, scalar, shift) for the Kronecker expansion: seeded forms with
    zero and negative entries, repeats, entries of 2^64 and more, products
    whose one coefficient reaches the bound prod(|a| + |b|) at the edge of a
    slot, and scalars with large denominators."""
    rng = Random(22)
    big = 2**64
    cases = [
        ([], F(1), 0),
        ([], F(-3, 7), 2),
        ([(0, 0), (1, 2)], F(1), 0),
        ([(1, 1)] * 9, F(1), 0),
        ([(2, -3), (2, -3), (0, 5), (-4, 0)], F(5, 3**40), 3),
        ([(big, -1), (-1, big + 7), (3 * big, big)], F(-1, 2**70 + 1), 1),
        ([(127, 0)], F(1), 0),
        ([(-127, 0)], F(1), 0),
        ([(0, -127)], F(1), 0),
        ([(7, 0), (0, -31), (151, 0)], F(1), 0),
        ([(128, 0)], F(1), 4),
        ([(2**63 - 1, 0)], F(-1, 3), 0),
    ]
    for _ in range(40):
        entries = [-big, -5, -1, 0, 0, 1, 2, 7, big + 1]
        n = rng.randint(0, 8)
        forms = [(rng.choice(entries), rng.choice(entries)) for _ in range(n)]
        forms += forms[: rng.randint(0, n)]
        cases.append((forms, F(rng.randint(-9, 9) or 1, rng.randint(1, 10**30)), rng.randint(0, 3)))
    return cases


def test_expand_matches_linear_form_product():
    for forms, scalar, shift in _expand_cases():
        got, expected = _expand(forms, scalar, shift), linear_product(forms, scalar, shift)
        assert dict(got.items()) == dict(expected.items()), (forms, scalar, shift)
        assert all(type(c) is F for _, c in got.items())
    # the slot edge: one coefficient of size exactly the bound, 2^(8s-1) - 1
    for forms in ([(127, 0)], [(-127, 0)], [(0, -127)], [(7, 0), (0, -31), (151, 0)]):
        bound = prod(abs(a) + abs(b) for a, b in forms)
        assert (bound + 1).bit_length() % 8 == 0
        assert [abs(c) for _, c in _expand(forms, F(1)).items()] == [bound]


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
    # I_2 = -1: no form and the z^0 is dropped
    denominator, nums = _i_raw(chain, 2)
    assert (denominator, nums) == (1, [range(0)] * 3)
    assert all(type(ns) is range for ns in nums)
    assert _normalized(chain, F(-1, denominator), 0, nums) == (F(-1), Counter())
    # I_3 = -1/6 (0 z - 6q)/z = q/z carries a pure-q form (b = 0)
    denominator, nums = _i_raw(chain, 3)
    assert (denominator, nums) == (6, [range(0), range(0, 3, 3), range(0)])
    assert _normalized(chain, F(-1, denominator), -1, nums) == (F(1), Counter({(0, 1): 1, (1, 0): -1}))
