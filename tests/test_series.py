from fractions import Fraction as F
from math import factorial
from random import Random

import pytest

from chloc import NotConvergentError, QSeries, Ring, q_exponential
from chloc.sampling import sample_chow, sample_ring
from chloc.series import compute_at_precision

from oracles import (
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


def test_exp_matches_power_sum_oracle():
    rng = Random(1212)
    for ring in _oracle_rings(rng) * 3:
        D = ring.truncation
        nil = _graded_nilpotent(rng, ring, rng.sample(range(-D - 1, 4), rng.randint(0, D + 3)))
        scal = _scalars(rng)
        coeffs = {e: nil.get(e, ring.zero()) + scal.get(e, 0) for e in set(nil) | set(scal)}
        q_max = rng.choice([None, None, rng.randint(0, 8)])
        order = rng.choice([None, rng.randint(-2, 8)])
        got = QSeries(ring, coeffs, q_max).exp(order)
        expected = nilpotent_power_sum(QSeries(ring, nil), None, lambda m: F(1, factorial(m)))
        if not scal and q_max is None:
            assert got.is_exact and got == expected
            continue
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


def test_invert_matches_power_sum_oracle():
    # s = c q^k (1 + u_scal + u_nil); 1/s = c^-1 q^-k S sum_m (-v)^m with
    # S = 1/(1 + u_scal) from the scalar list oracle and v = S u_nil
    rng = Random(1213)
    for ring in _oracle_rings(rng) * 3:
        D = ring.truncation
        c, k = rng.choice([F(1), F(-2), F(3, 5)]), rng.randint(-2, 2)
        u_nil = _graded_nilpotent(rng, ring, rng.sample(range(-D, 4), rng.randint(0, D + 3)))
        u_scal = _scalars(rng)
        one_plus_u = QSeries(ring, u_nil) + QSeries.from_scalars(ring, {0: 1, **u_scal})
        q_max = rng.choice([None, None, rng.randint(0, 8)])
        coeffs = {e: one_plus_u.coefficient(e) * c for e in one_plus_u.exponents()}
        s = QSeries(ring, coeffs, q_max).shifted(k)
        order = rng.choice([None, rng.randint(-2, 8)])
        got = s.invert(order)
        one_plus = [F(int(n == 0)) + u_scal.get(n, F(0)) for n in range(_ORACLE_ORDER + 1)]
        inv_scal = ser_inv(one_plus, _ORACLE_ORDER)
        S = QSeries.from_scalars(ring, dict(enumerate(inv_scal)))
        v = S * QSeries(ring, u_nil)
        expected = (S * nilpotent_power_sum(v, None, lambda m: (-1) ** m)).shifted(-k) * (1 / c)
        if not u_scal and q_max is None:
            assert got.is_exact and got == expected
            continue
        pad = D + 1 if u_nil and min(u_nil) <= 0 else 0
        target = ring.q_max if order is None else order
        if q_max is not None:
            target = min(target, q_max - k - pad)
        assert got.q_max == target
        assert {e: got.coefficient(e) for e in got.exponents()} == {
            e: expected.coefficient(e) for e in expected.exponents() if e <= got.q_max
        }
