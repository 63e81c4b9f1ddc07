from fractions import Fraction as F
from random import Random

import pytest

from chloc import NotConvergentError, QSeries, Ring, q_exponential
from chloc.sampling import sample_chow, sample_ring
from chloc.series import compute_at_precision

from oracles import poly_add, poly_mul, reciprocal_expm1, ser_exp_x


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
