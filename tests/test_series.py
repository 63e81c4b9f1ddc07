from fractions import Fraction as F
from math import factorial, gcd
from random import Random

import pytest

from chloc import NotConvergentError, QSeries, Ring, q_exponential
from chloc.rings import mul_parts
from chloc.sampling import sample_chow, sample_ring
from chloc.series import compute_at_precision, scalar_exp, scalar_invert, scalar_series

from oracles import (
    chow_laurent_add,
    chow_laurent_exp,
    chow_laurent_mul,
    laurent_exp,
    laurent_inv,
    laurent_mul,
    laurent_pow,
    nilpotent_power_sum,
    poly_add,
    poly_mul,
    reciprocal_expm1,
    ser_add,
    ser_exp_x,
    ser_inv,
    ser_pow,
    ser_scale,
)


def _ring1(truncation=1):
    return Ring([("a", 1)], truncation)


def test_invert_pure_power():
    r = _ring1()
    s = QSeries.q_power(r, 1)
    inv = s.invert()
    assert inv == QSeries.q_power(r, -1)
    assert inv.is_exact


def test_invert_with_nilpotent_tail():
    # (q + a)^{-1} = q^{-1} - a q^{-2} once a^2 = 0
    r = _ring1(truncation=1)
    a = r.generator("a")
    s = QSeries(r, {1: r.one(), 0: a})
    inv = s.invert(q_max=1)
    assert inv == QSeries(r, {-1: r.one(), -2: -a})
    assert (s * inv) == QSeries.one(r)


def test_invert_two_sided_random():
    rng = Random(99)
    for _ in range(30):
        ring = sample_ring(rng)
        coeffs = {0: ring.one() + sample_chow(rng, ring, rng.randint(1, ring.truncation))}
        for e in range(1, rng.randint(1, 3) + 1):
            coeffs[e] = sample_chow(rng, ring, rng.randint(0, ring.truncation))
        shift = rng.randint(-2, 2)
        s = QSeries(ring, coeffs).shifted(shift)
        inv = s.invert(q_max=6)
        prod = s * inv
        assert prod == QSeries.one(ring)
        assert inv * s == QSeries.one(ring)


def test_invert_requires_scalar_part():
    r = _ring1()
    a = r.generator("a")
    with pytest.raises(ValueError):
        QSeries(r, {0: a}).invert()
    with pytest.raises(ZeroDivisionError):
        QSeries.zero(r).invert()


def test_exp_and_invert_reject_pole_below_its_order():
    # a at q^-2 has Chow degree 1 < 2: the fixed D + 1 padding cannot hold
    r = _ring1(truncation=3)
    a = r.generator("a")
    with pytest.raises(ValueError, match="Chow degree"):
        QSeries(r, {-2: a}, q_max=4).exp()
    with pytest.raises(ValueError, match="Chow degree"):
        QSeries(r, {0: r.one(), -2: a}, q_max=4).invert()
    # exact results need no padding
    assert QSeries(r, {-2: a}).exp() == QSeries(r, {0: r.one(), -2: a, -4: a * a / 2, -6: a**3 / 6})


def test_invert_at_low_order_keeps_pole_terms():
    # q^2 + a q = q^2 (1 + a/q); its inverse q^-2 - a q^-3 + a^2 q^-4 has
    # terms below q^-2, so an order below -2 is no reason to return zero
    r = _ring1(truncation=2)
    a = r.generator("a")
    s = QSeries(r, {2: r.one(), 1: a}, q_max=6)
    assert s.invert(-3) == QSeries(r, {-4: a * a, -3: -a}, q_max=-3)
    assert s.invert(-3).q_max == -3
    assert s.invert(-5) == QSeries(r, {}, q_max=-5)


def test_compute_at_precision_calls_once():
    r = _ring1()
    orders = []

    def fn(order):
        orders.append(order)
        return QSeries.from_scalars(r, {0: 1, 3: 2}, q_max=order - 2)

    out = compute_at_precision(fn, 4, 2)
    assert orders == [6]
    assert out.q_max == 4 and out.coefficient(3) == r.const(2)
    orders.clear()
    with pytest.raises(ArithmeticError):
        compute_at_precision(fn, 4, 1)  # reliable only to q^3
    assert orders == [5]


def test_limit_and_negative_part():
    r = _ring1()
    a = r.generator("a")
    s = QSeries.from_scalars(r, {0: 3, 1: 5})
    assert s.limit() == r.const(3)
    bad = QSeries(r, {-1: a, 0: r.one()})
    with pytest.raises(NotConvergentError) as exc:
        bad.limit()
    assert exc.value.terms == [(-1, a)]
    s2 = QSeries(r, {-1: a, -2: 2 * a})
    assert s2.negative_part() == [(-2, 2 * a), (-1, a)]
    assert QSeries.one(r).negative_part() == []


def test_equality_up_to_truncation():
    r = _ring1()
    a = QSeries.from_scalars(r, {0: 1, 1: 2, 5: 9}, q_max=5)
    b = QSeries.from_scalars(r, {0: 1, 1: 2}, q_max=3)
    assert a == b  # compared up to order 3
    c = QSeries.from_scalars(r, {0: 1, 1: 3}, q_max=3)
    assert a != c


def test_mul_truncation_tracking():
    r = _ring1()
    a = QSeries.from_scalars(r, {0: 1, 1: 1}, q_max=4)
    shiftdown = QSeries.q_power(r, -2)
    prod = a * shiftdown
    assert prod.q_max == 2  # knowledge moves with the shift
    assert prod.coefficient(-2) == r.one()


def test_exp_scalar_matches_oracle():
    r = _ring1()
    e = ser_exp_x(8)
    s = q_exponential(r, -1, 8)
    for n in range(9):
        assert s.coefficient(n).constant_term == e[n] * (-1) ** n


def test_exp_of_nilpotent_is_exact():
    r = _ring1(truncation=2)
    a = r.generator("a")
    s = QSeries(r, {-1: a})
    out = s.exp()
    assert out.is_exact
    assert out == QSeries(r, {0: r.one(), -1: a, -2: a * a * F(1, 2)})


def test_exp_rejects_scalar_at_nonpositive_exponent():
    r = _ring1()
    with pytest.raises(ValueError):
        QSeries.from_scalars(r, {0: 1}).exp()
    with pytest.raises(ValueError):
        QSeries.from_scalars(r, {-1: 1}).exp()


def test_exp_additive_random():
    rng = Random(5)
    for _ in range(15):
        ring = sample_ring(rng, max_truncation=3)
        x = QSeries(
            ring,
            {
                e: sample_chow(rng, ring, rng.randint(1, ring.truncation))
                for e in range(-1, 2)
            },
        )
        y = QSeries(
            ring,
            {
                e: sample_chow(rng, ring, rng.randint(1, ring.truncation))
                for e in range(0, 2)
            },
        )
        target = 8
        lhs = (x + y).exp(target)
        rhs = x.exp(target) * y.exp(target)
        assert lhs.truncated(4) == rhs.truncated(4)


def test_reciprocal_expm1_via_invert():
    # 1/(e^q - 1) has the Bernoulli Laurent expansion.
    r = Ring([], 0)
    order = 9
    em1 = q_exponential(r, 1, order) - QSeries.one(r)
    inv = em1.invert(q_max=order - 2)
    expected = reciprocal_expm1(order)
    for e in range(-1, order - 2):
        assert inv.coefficient(e).constant_term == expected.get(e, F(0))


def test_str_roundtrippable_format():
    r = _ring1()
    a = r.generator("a")
    s = QSeries(r, {-1: a, 0: r.one()})
    assert str(s) == "(a)*q^-1 + (1)"
    assert str(QSeries.zero(r)) == "0"
    assert str(QSeries.from_scalars(r, {2: 3}, q_max=4)) == "(3)*q^2 + O(q^5)"


def test_product_matches_plain_double_loop():
    # Every output coefficient is one multiply-accumulate over its pairs;
    # the oracle multiplies each pair of coefficients apart and sums them.
    rng = Random(515)
    for _ in range(20):
        ring = sample_ring(rng)
        degrees, D = ring.degrees, ring.truncation

        def draw():
            coeffs = {
                e: sample_chow(rng, ring, rng.randint(0, D), max_terms=3)
                + sample_chow(rng, ring, rng.randint(0, D))
                + F(rng.choice([0, 0, 1, -2]), 3)
                for e in rng.sample(range(-3, 5), rng.randint(1, 5))
            }
            return {e: c for e, c in coeffs.items() if c}

        a, b = draw(), draw()
        q_max = rng.choice([None, rng.randint(0, 6)])
        if not a or not b:
            continue
        prod = QSeries(ring, a) * QSeries(ring, b, q_max)
        expected: dict = {}
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                if q_max is not None and e1 + e2 > q_max + min(a):
                    continue
                term = poly_mul(dict(c1.items()), dict(c2.items()), degrees, D)
                expected[e1 + e2] = poly_add(expected.get(e1 + e2, {}), term)
        got = {e: dict(prod.coefficient(e).items()) for e in prod.exponents()}
        assert got == {e: c for e, c in expected.items() if c}


# -- exp and invert against the power-sum oracle ----------------------------------------

_ORACLE_ORDER = 24  # scalar oracle series are exact well past every order compared


def _oracle_rings(rng):
    """Seeded rings, generator degrees (1, 2, 3), no generators, truncation 0."""
    rings = [sample_ring(rng, max_truncation=4) for _ in range(10)]
    return rings + [Ring([("a", 1), ("b", 2), ("c", 3)], 4), Ring([], 0), Ring([("a", 1)], 0)]


def _graded_nilpotent(rng, ring, exponents):
    """Nilpotent coefficients with poles: at q^e a sum of homogeneous parts
    of degrees >= max(1, -e), as the grading bound asks."""
    D = ring.truncation
    out = {}
    for e in exponents:
        if max(1, -e) > D:
            continue
        c = sum(
            (sample_chow(rng, ring, rng.randint(max(1, -e), D)) for _ in range(rng.randint(1, 2))),
            ring.zero(),
        )
        if c:
            out[e] = c
    return out


def _scalars(rng) -> dict[int, F]:
    """Nonzero rationals at up to two of the exponents 1, 2, 3."""
    picked = {e: F(rng.randint(-3, 3), rng.randint(1, 3)) for e in rng.sample(range(1, 4), 2)}
    return {e: c for e, c in list(picked.items())[: rng.randint(0, 2)] if c}


def _scalar_exp_list(a: dict[int, F]) -> list[F]:
    """exp of a scalar series at positive exponents, as the sum of powers."""
    base = [a.get(n, F(0)) for n in range(_ORACLE_ORDER + 1)]
    out = [F(0)] * (_ORACLE_ORDER + 1)
    for m in range(_ORACLE_ORDER + 1):
        term = ser_scale(F(1, factorial(m)), ser_pow(base, m, _ORACLE_ORDER), _ORACLE_ORDER)
        out = ser_add(out, term, _ORACLE_ORDER)
    return out


def _assert_exp_matches_oracle(ring, nil, scal, q_max, order):
    """exp of the nilpotent coefficients ``nil`` plus the scalars ``scal``,
    against the sum of powers times the scalar exp."""
    D = ring.truncation
    coeffs = {e: nil.get(e, ring.zero()) + scal.get(e, 0) for e in set(nil) | set(scal)}
    got = QSeries(ring, coeffs, q_max).exp(order)
    expected = nilpotent_power_sum(QSeries(ring, nil), None, lambda m: F(1, factorial(m)))
    if not scal and q_max is None:
        assert got.is_exact and got == expected
        return
    # the fixed D + 1 padding below a pole at q^-1 or lower
    pad = D + 1 if nil and min(nil) <= -1 else 0
    target = ring.q_max if order is None else order
    if q_max is not None:
        target = min(target, q_max - pad)
    assert got.q_max == target
    expected = expected * QSeries.from_scalars(ring, dict(enumerate(_scalar_exp_list(scal))))
    assert {e: got.coefficient(e) for e in got.exponents()} == {
        e: expected.coefficient(e) for e in expected.exponents() if e <= target
    }


def _assert_invert_matches_oracle(ring, c, k, u_nil, u_scal, q_max, order):
    """The inverse of s = c q^k (1 + u_scal + u_nil): 1/s = c^-1 q^-k S
    sum_m (-v)^m with S = 1/(1 + u_scal) from the scalar list oracle and
    v = S u_nil."""
    D = ring.truncation
    one_plus_u = QSeries(ring, u_nil) + QSeries.from_scalars(ring, {0: 1, **u_scal})
    coeffs = {e: one_plus_u.coefficient(e) * c for e in one_plus_u.exponents()}
    got = QSeries(ring, coeffs, q_max).shifted(k).invert(order)
    one_plus = [F(int(n == 0)) + u_scal.get(n, F(0)) for n in range(_ORACLE_ORDER + 1)]
    S = QSeries.from_scalars(ring, dict(enumerate(ser_inv(one_plus, _ORACLE_ORDER))))
    v = S * QSeries(ring, u_nil)
    expected = (S * nilpotent_power_sum(v, None, lambda m: (-1) ** m)).shifted(-k) * (1 / c)
    if not u_scal and q_max is None:
        assert got.is_exact and got == expected
        return
    pad = D + 1 if u_nil and min(u_nil) <= 0 else 0
    target = ring.q_max if order is None else order
    if q_max is not None:
        target = min(target, q_max - k - pad)
    assert got.q_max == target
    assert {e: got.coefficient(e) for e in got.exponents()} == {
        e: expected.coefficient(e) for e in expected.exponents() if e <= got.q_max
    }


def test_exp_matches_power_sum_oracle():
    rng = Random(1212)
    for ring in _oracle_rings(rng) * 3:
        D = ring.truncation
        nil = _graded_nilpotent(rng, ring, rng.sample(range(-D - 1, 4), rng.randint(0, D + 3)))
        scal = _scalars(rng)
        q_max = rng.choice([None, None, rng.randint(0, 8)])
        order = rng.choice([None, rng.randint(-2, 8)])
        _assert_exp_matches_oracle(ring, nil, scal, q_max, order)


def test_invert_matches_power_sum_oracle():
    rng = Random(1213)
    for ring in _oracle_rings(rng) * 3:
        D = ring.truncation
        c, k = rng.choice([F(1), F(-2), F(3, 5)]), rng.randint(-2, 2)
        u_nil = _graded_nilpotent(rng, ring, rng.sample(range(-D, 4), rng.randint(0, D + 3)))
        u_scal = _scalars(rng)
        q_max = rng.choice([None, None, rng.randint(0, 8)])
        order = rng.choice([None, rng.randint(-2, 8)])
        _assert_invert_matches_oracle(ring, c, k, u_nil, u_scal, q_max, order)


def _edge_nilpotent(rng, ring):
    """Nilpotent coefficients whose degree-j part has a term at exactly q^-j
    for every j = 1..D, the lowest exponent the grading bound allows, plus
    a few terms at q^0..q^3.  The Chow-degree-d part of exp or invert is cut
    at D - d orders above the target, which leaves no slack here."""
    D = ring.truncation
    extra = _graded_nilpotent(rng, ring, rng.sample(range(4), rng.randint(0, 3)))
    return {**{-j: sample_chow(rng, ring, j) for j in range(1, D + 1)}, **extra}


@pytest.mark.parametrize("D", range(1, 7))
def test_exp_and_invert_at_the_grading_bound(D):
    rng = Random(1214 + D)
    ring = Ring([("a", 1), ("b", 2)], D)
    for q_max, order in ((None, None), (None, 0), (2 * D, None), (D + 2, 1), (3, -1)):
        for scal in (_scalars(rng) or {1: F(1, 2)}, {}, {}):
            _assert_exp_matches_oracle(ring, _edge_nilpotent(rng, ring), scal, q_max, order)
            c, k = rng.choice([F(1), F(-2), F(3, 5)]), rng.randint(-2, 2)
            u_nil = _edge_nilpotent(rng, ring)
            _assert_invert_matches_oracle(ring, c, k, u_nil, scal, q_max, order)


# -- the integer scalar kernels against the Fraction oracles ------------------------------


def _row(rng, exponents) -> dict[int, F]:
    """Negative, non-integral and zero rationals at some of the exponents."""
    picked = rng.sample(exponents, rng.randint(0, min(5, len(exponents))))
    return {e: F(rng.randint(-9, 9), rng.choice([1, 1, 2, 3, 7])) for e in picked}


def _is_canonical(part) -> bool:
    """The reduced store: den > 0, no zero numerator or empty row, no common factor."""
    num, den = part
    values = [v for row in num.values() for v in row.values()]
    return den > 0 and all(num.values()) and all(values) and (not num or gcd(den, *values) == 1)


def _scalars_of(part) -> dict[int, F]:
    """A scalar series (the store on monomial index 0) as {exponent: Fraction}."""
    num, den = part
    assert all(row.keys() == {0} for row in num.values())
    return {e: F(row[0], den) for e, row in num.items()}


_TABLE = Ring([], 0)._mono  # scalar products: monomial index 0 only
_ONE = ({0: {0: 1}}, 1)


def _power(part, n, cutoff):
    out = _ONE
    for _ in range(n):
        out = mul_parts(_TABLE, out, part, cutoff)
    return out


def test_scalar_kernels_match_fraction_oracles():
    rng = Random(1313)
    zero = scalar_series([])
    for trial in range(300):
        a, b = _row(rng, range(-3, 7)), _row(rng, range(-3, 7))
        cutoff = 0 if trial % 5 == 0 else rng.randint(-2, 12)
        sa, sb = scalar_series(a.items()), scalar_series(b.items())
        a = {e: c for e, c in a.items() if c}
        assert _scalars_of(sa) == a and _is_canonical(sa)
        for cut in (cutoff, None):
            got = mul_parts(_TABLE, sa, sb, cut)
            assert _scalars_of(got) == laurent_mul(a, b, cut) and _is_canonical(got)
        n = rng.randint(0, 4)
        got = _power(sa, n, cutoff)
        assert _scalars_of(got) == laurent_pow(a, n, cutoff) and _is_canonical(got)
        positive = {e: c for e, c in a.items() if e > 0}
        got = scalar_exp(scalar_series(positive.items()), cutoff)
        assert _scalars_of(got) == laurent_exp(positive, max(cutoff, 0)) and _is_canonical(got)
        if a:  # a lowest exponent above 0 puts poles in the inverse
            got = scalar_invert(sa, cutoff)
            assert _scalars_of(got) == laurent_inv(a, cutoff) and _is_canonical(got)
    assert mul_parts(_TABLE, zero, scalar_series([(1, F(1, 2))]), 4) == zero
    assert _scalars_of(scalar_exp(zero, 5)) == {0: 1} and _scalars_of(_power(zero, 0, 3)) == {0: 1}
    assert _power(zero, 2, 3) == zero
    with pytest.raises(ZeroDivisionError):
        scalar_invert(zero, 3)
    with pytest.raises(ValueError):
        scalar_exp(scalar_series([(0, 1)]), 3)


# -- the one reduced store against per-coefficient Fraction oracles ------------------------


def _stored(s: QSeries) -> dict:
    """The series read from its store as {exponent: {exponent tuple: Fraction}},
    after checking that the store is reduced and ends at q_max."""
    part = s._num, s._den
    assert _is_canonical(part), part
    assert s.q_max is None or all(e <= s.q_max for e in s._num)
    exps = s.ring._mono.exps
    return {e: {exps[i]: F(v, s._den) for i, v in row.items()} for e, row in s._num.items()}


def _same_store(x: QSeries, y: QSeries) -> bool:
    return (x._num, x._den, x.q_max) == (y._num, y._den, y.q_max)


def _seeded_series(rng, ring, exact=None):
    """Rational nilpotent coefficients with poles as the grading bound
    allows, rational scalars at q^1..q^3, and an exact or finite order."""
    D = ring.truncation
    nil = _graded_nilpotent(rng, ring, rng.sample(range(-D, 4), rng.randint(0, D + 3)))
    scal = _scalars(rng)
    coeffs = {e: nil.get(e, ring.zero()) + scal.get(e, 0) for e in set(nil) | set(scal)}
    exact = rng.random() < 0.4 if exact is None else exact
    return QSeries(ring, coeffs, None if exact else rng.randint(-1, 8))


def _min_order(*series):
    return min((x.q_max for x in series if x.q_max is not None), default=None)


def _product_order(a: QSeries, b: QSeries):
    """min(a.q_max + ord(b), b.q_max + ord(a)) over the finite orders, where
    a zero series known to q^n has order n + 1; no factor here is an exact zero."""
    bounds = [x.q_max + min(y.exponents() or [y.q_max + 1])
              for x, y in ((a, b), (b, a)) if x.q_max is not None]
    return min(bounds, default=None)


def test_store_is_reduced_and_matches_fraction_oracles():
    rng = Random(2323)
    for ring in _oracle_rings(rng) * 4:
        degrees, D = ring.degrees, ring.truncation
        a, b = _seeded_series(rng, ring), _seeded_series(rng, ring)
        fa, fb = _stored(a), _stored(b)
        # sums and differences: one merge, cut at the smaller order
        q = _min_order(a, b)
        got = a + b
        assert got.q_max == q and _stored(got) == chow_laurent_add(fa, fb, q)
        neg_b = {e: {m: -v for m, v in c.items()} for e, c in fb.items()}
        got = a - b
        assert got.q_max == q and _stored(got) == chow_laurent_add(fa, neg_b, q)
        # products by an int, a Fraction, a class and a series
        c = sample_chow(rng, ring, rng.randint(0, D)) + rng.choice([0, 1, F(-3, 4)])
        for factor in (rng.choice([-3, 2, 6]), F(rng.choice([-5, 1, 7]), rng.choice([2, 9])), c):
            scalar = isinstance(factor, (int, F))
            as_map = {0: {(0,) * ring.ngens: F(factor)} if scalar else dict(factor.items())}
            got = a * factor
            if not a.is_zero and as_map[0]:
                assert got.q_max == a.q_max
                expected = chow_laurent_mul(fa, as_map, degrees, D, a.q_max)
                assert _stored(got) == expected and _stored(factor * a) == expected
        if not a.is_zero and not b.is_zero:
            got = a * b
            q = _product_order(a, b)
            assert got.q_max == q and _stored(got) == chow_laurent_mul(fa, fb, degrees, D, q)
        assert (a * 0).is_zero and (a * 0).is_exact and _stored(a * ring.zero()) == {}
        # truncation and shifts
        n, k = rng.randint(-2, 6), rng.randint(-3, 3)
        got = a.truncated(n)
        assert _stored(got) == {e: c for e, c in fa.items() if e <= got.q_max}
        got = a.shifted(k)
        assert _stored(got) == {e + k: c for e, c in fa.items()}
        # exp, against the scalar exp times the nilpotent power sum
        order = rng.choice([None, rng.randint(-1, 8)])
        got = a.exp(order)
        assert _stored(got) == chow_laurent_exp(fa, degrees, D, got.q_max)
        # invert: s * s^-1 = 1 up to the product's order, for s = c q^k (1 + a)
        s = (a * rng.choice([1, -2, F(3, 5)]) + rng.choice([1, F(-1, 3)])).shifted(k)
        if not any(s.coefficient(e).constant_term for e in s.exponents()):
            continue
        inv = s.invert(order)
        q = _product_order(s, inv)
        product = chow_laurent_mul(_stored(s), _stored(inv), degrees, D, q)
        assert product == ({0: {(0,) * ring.ngens: F(1)}} if q is None or q >= 0 else {})


def test_equal_values_have_equal_stores():
    rng = Random(2424)
    for ring in _oracle_rings(rng) * 4:
        a, b = _seeded_series(rng, ring), _seeded_series(rng, ring)
        q = _min_order(a, b)
        routes = [
            ((a + b) - b, a if q is None else a.truncated(q)),
            (a * 6 * F(1, 6), a),
            (a * F(2, 3) + a * F(1, 3), a),
            (a.shifted(3).shifted(-3), a),
            (QSeries(ring, {e: a.coefficient(e) for e in a.exponents()}, a.q_max), a),
            (-(-a), a),
            (a - a, QSeries(ring, {}, a.q_max)),
        ]
        if not a.is_zero and not b.is_zero:
            routes.append((a * b, b * a))
            routes.append(((a * b).truncated(2), (a.truncated(9) * b).truncated(2)))
        if a.q_max is not None:
            low = a.q_max - 1
            routes.append((a.truncated(low), (a + QSeries(ring, {}, low)).truncated(low)))
        half = _seeded_series(rng, ring) * F(1, 2)
        routes.append(((half + half).exp(4), half.exp(4) * half.exp(4)))
        for x, y in routes:
            _stored(x), _stored(y)
            assert x == y
            q = _min_order(x, y)
            assert _same_store(*((x, y) if q is None else (x.truncated(q), y.truncated(q))))
        if not a.is_zero:  # equal numerators over another denominator
            assert a * F(1, a._den + 1) != a and a != a * F(a._den + 1, a._den + 2)


def test_constructor_rejects_bad_orders_and_coefficients():
    r = _ring1()
    with pytest.raises(TypeError, match="q_max must be an int, not float"):
        QSeries(r, {0: r.one()}, 1.5)
    with pytest.raises(TypeError, match="q_max must be an int, not bool"):
        QSeries(r, {0: r.one()}, True)
    with pytest.raises(TypeError, match=r"the coefficient of q\^0 must be a ChowElement, not int"):
        QSeries(r, {0: 1})
    with pytest.raises(TypeError, match=r"the coefficient of q\^-2 must be a ChowElement"):
        QSeries(r, {1: r.one(), -2: F(1, 2)})
    assert str(QSeries(r, {0: r.one(), 3: r.one()}, 2)) == "(1) + O(q^3)"
