from fractions import Fraction as F
from random import Random

import pytest

from chloc import ParseError, Ring, parse_class_expr
from chloc.sampling import sample_chow, sample_ring


def _ring():
    return Ring([("a", 1), ("b", 2)], 3)


def test_basic_expression():
    r = _ring()
    a, b = r.gens()
    assert parse_class_expr("3/2*a^2 + b", r) == a * a * F(3, 2) + b


def test_truncation_is_silent():
    r = Ring([("a", 1)], 2)
    assert parse_class_expr("a*a*a", r).is_zero
    assert parse_class_expr("a^5 + 2", r) == r.const(2)


def test_parenthesized_power():
    r = _ring()
    a, b = r.gens()
    assert parse_class_expr("(a+b)^2", r) == a * a + 2 * (a * b)  # b^2 truncates


def test_unary_minus_and_subtraction():
    r = _ring()
    a, b = r.gens()
    assert parse_class_expr("-a + b", r) == b - a
    assert parse_class_expr("1 - 3/2*a", r) == r.one() - a * F(3, 2)
    assert parse_class_expr("--a", r) == a
    assert parse_class_expr("2*-3", r) == r.const(-6)


def test_whitespace_insignificant():
    r = _ring()
    assert parse_class_expr(" 3/2 * a ^ 2+b ", r) == parse_class_expr("3/2*a^2+b", r)


def test_rational_literals():
    r = Ring([], 0)
    assert parse_class_expr("7/3", r) == r.const(F(7, 3))
    assert parse_class_expr("4", r) == r.const(4)


def test_syntax_error_position():
    r = _ring()
    with pytest.raises(ParseError) as exc:
        parse_class_expr("a + ", r)
    assert exc.value.position == 4
    with pytest.raises(ParseError) as exc:
        parse_class_expr("a $ b", r)
    assert exc.value.position == 2
    with pytest.raises(ParseError):
        parse_class_expr("(a + b", r)
    with pytest.raises(ParseError):
        parse_class_expr("a^b", r)
    with pytest.raises(ParseError):
        parse_class_expr("", r)
    with pytest.raises(ParseError):
        parse_class_expr("a b", r)


def test_unknown_generator():
    r = _ring()
    with pytest.raises(ParseError) as exc:
        parse_class_expr("a + zz", r)
    assert "zz" in str(exc.value)
    assert exc.value.position == 4


def test_zero_denominator():
    r = _ring()
    with pytest.raises(ParseError):
        parse_class_expr("1/0", r)


def test_roundtrip_canonical_forms():
    rng = Random(808)
    for _ in range(80):
        ring = sample_ring(rng)
        x = ring.zero()
        for d in range(0, ring.truncation + 1):
            x = x + sample_chow(rng, ring, d)
        assert parse_class_expr(str(x), ring) == x
    r = _ring()
    assert parse_class_expr(str(r.zero()), r) == r.zero()


def test_printed_form_parses_back_to_itself():
    # A unary minus binds looser than '^': -x^2 is -(x^2), as printed.
    r = Ring([("a", 1), ("b", 1), ("x", 1)], 4)
    a, b, x = r.gens()
    assert parse_class_expr("-x^2", r) == -(x * x)
    assert parse_class_expr("-a^2*b", r) == -(a * a * b)
    assert parse_class_expr("(-x)^2", r) == x * x
    fixed = [-(x * x), -(a**4), -(a * a * b), -(x * x) + a * 2, r.const(-4) - x * x]
    rng = Random(2024)
    seeded = []
    for _ in range(200):
        ring = sample_ring(rng, max_truncation=5)
        monos = [m for d in range(1, ring.truncation + 1) for m in ring.monomials(d)]
        picked = rng.sample(monos, rng.randint(1, min(3, len(monos))))
        coeffs = [-1, 1, -2, F(-1, 3)]
        seeded.append(ring.element({m: rng.choice(coeffs) for m in picked}))
    for c in fixed + seeded:
        assert str(parse_class_expr(str(c), c.ring)) == str(c)
