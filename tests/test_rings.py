import sys
import threading
import time
from fractions import Fraction as F
from math import comb
from random import Random

import pytest

from chloc import ChowElement, QSeries, Ring
from chloc.sampling import sample_chow, sample_ring

from oracles import poly_add, poly_exp, poly_inverse, poly_mul, poly_scale, poly_trunc


def test_truncation_rule():
    r = Ring([("a", 1), ("b", 2)], 3)
    a, b = r.gens()
    assert (a * a * b).is_zero  # degree 4 > 3
    assert not (a * b).is_zero


def test_rational_ring():
    r = Ring([], 0)
    assert r.one() + r.const(F(1, 2)) == r.const(F(3, 2))
    assert str(r.const(F(-3, 2))) == "-3/2"


def test_floats_are_rejected():
    # exact arithmetic only: a float keeps its binary value, so every entry
    # point refuses it, as ChowElement * 0.1 does
    r = Ring([("a", 1)], 2)
    for build in (
        lambda: r.const(0.1),
        lambda: r.element({(1,): 0.5}),
        lambda: QSeries.from_scalars(r, {0: 1, 1: 0.25}),
        lambda: r.generator("a") * 0.1,
    ):
        with pytest.raises(TypeError):
            build()
    assert r.const(True) == r.one() and r.element({(1,): F(1, 2)}) == r.generator("a") / 2


def _int_entry_points():
    """(argument name, call) for each entry point that takes an integer."""
    from chloc import (
        KClass, LocInput, crosscheck_factors, equivariant_euler, euler_identity_check,
        hirzebruch_class, line_bundle, localization_product, q_exponential, todd_twist_ratio,
    )

    r = Ring([("a", 1)], 2)
    a = r.generator("a")
    x, s = line_bundle(a), QSeries(r, {0: a, 1: r.one()}, q_max=4)
    t = q_exponential(r, -1, 6)
    return {
        "euler weight": ("weight", lambda w: equivariant_euler(x, w)),
        "kclass rank": ("rank", lambda w: KClass(r, w)),
        "ring truncation": ("truncation", lambda w: Ring([("a", 1)], w)),
        "ring degree": ("degree of a", lambda w: Ring([("a", w)], 2)),
        "ring q_max": ("q_max", lambda w: Ring([("a", 1)], 2, w)),
        "element exponent": ("exponent", lambda w: r.element({(w,): 1})),
        "series exponent": ("exponent", lambda w: QSeries(r, {w: a})),
        "series order": ("q_max", lambda w: QSeries(r, {0: a}, w)),
        "series shift": ("k", lambda w: s.shifted(w)),
        "series truncation": ("q_max", lambda w: s.truncated(w)),
        "exp order": ("q_max", lambda w: s.exp(w)),
        "invert order": ("q_max", lambda w: (s + 1).invert(w)),
        "q_exponential order": ("q_max", lambda w: q_exponential(r, 1, w)),
        "hirzebruch order": ("q_max", lambda w: hirzebruch_class(t, x, w)),
        "twist weight": ("weight", lambda w: todd_twist_ratio(x, w, 3)),
        "twist order": ("q_max", lambda w: todd_twist_ratio(x, 1, w)),
        "identity weight": ("weight", lambda w: euler_identity_check(x, w, 3)),
        "identity order": ("q_max", lambda w: euler_identity_check(x, 1, w)),
        "localization weight": ("weight", lambda w: localization_product(x, 1, [(x, w)], [], [])),
        "localization order": ("q_max", lambda w: localization_product(x, 1, [], [], [], w)),
        "crosscheck weight": ("weight", lambda w: crosscheck_factors(r, [(x, w)], 3)),
        "crosscheck order": ("q_max", lambda w: crosscheck_factors(r, [(x, 1)], w)),
        "hodge weight": ("hodge_weight", lambda w: LocInput(r, x, w, ())),
        "pushed weight": ("weight", lambda w: LocInput(r, x, 1, ((x, w),))),
    }


@pytest.mark.parametrize("entry", sorted(_int_entry_points()))
@pytest.mark.parametrize("value", [1.5, 2.0, True, "3"])
def test_integer_arguments_are_checked_not_coerced(entry, value):
    # a float, a bool or a string is refused by name, never truncated to an int
    name, call = _int_entry_points()[entry]
    with pytest.raises(TypeError, match=f"{name} must be an int, not {type(value).__name__}"):
        call(value)
    call(2)


def test_basis_of_univariate():
    r = Ring([("a", 1)], 2)
    a = r.generator("a")
    assert sorted(map(str, [r.one(), a, a * a])) == sorted(["1", "a", "a^2"])
    assert (a ** 3).is_zero


def test_constructor_errors():
    with pytest.raises(ValueError):
        Ring([("a", 1), ("a", 2)], 3)
    with pytest.raises(ValueError):
        Ring([("a", 0)], 3)
    with pytest.raises(ValueError):
        Ring([("a", -1)], 3)
    with pytest.raises(ValueError):
        Ring([("2bad", 1)], 3)


def test_ring_mismatch():
    r1 = Ring([("a", 1)], 2)
    r2 = Ring([("a", 1)], 3)
    with pytest.raises(ValueError):
        r1.generator("a") + r2.generator("a")


def test_ring_axioms_random():
    rng = Random(20240823)
    for _ in range(60):
        ring = sample_ring(rng)
        deg = rng.randint(0, ring.truncation)
        x = sample_chow(rng, ring, deg) + ring.const(rng.randint(-2, 2))
        y = sample_chow(rng, ring, rng.randint(0, ring.truncation))
        z = sample_chow(rng, ring, rng.randint(0, ring.truncation))
        assert (x + y) + z == x + (y + z)
        assert x * y == y * x
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z


def test_truncation_consistency_random():
    rng = Random(11)
    for _ in range(40):
        ring = sample_ring(rng)
        x = sample_chow(rng, ring, rng.randint(0, ring.truncation))
        y = sample_chow(rng, ring, rng.randint(0, ring.truncation))
        p = x * y
        assert all(
            ring.monomial_degree(m) <= ring.truncation for m, _ in p.items()
        )


def test_exp_examples():
    r = Ring([("a", 1), ("b", 2)], 2)
    a, b = r.gens()
    assert r.zero().exp() == r.one()
    r1 = Ring([("a", 1)], 2)
    a1 = r1.generator("a")
    assert a1.exp() == r1.one() + a1 + a1 * a1 * F(1, 2)
    # hand expansion of exp(a + b) at D = 2
    assert (a + b).exp() == r.one() + a + b + a * a * F(1, 2)
    with pytest.raises(ValueError):
        (r.one() + a).exp()


def test_exp_is_homomorphism():
    rng = Random(7)
    for _ in range(25):
        ring = sample_ring(rng)
        x = sample_chow(rng, ring, rng.randint(1, ring.truncation))
        y = sample_chow(rng, ring, rng.randint(1, ring.truncation))
        assert (x + y).exp() == x.exp() * y.exp()


def test_inverse():
    r = Ring([("a", 1)], 3)
    a = r.generator("a")
    x = r.one() + a + 2 * a * a
    assert x * x.inverse() == r.one()
    with pytest.raises(ValueError):
        a.inverse()


def test_power_by_repeated_squaring(monkeypatch):
    # (1+x)^n in (x:1; D=3) is sum_j comb(n, j) x^j, in O(log n) products
    r = Ring([("x", 1)], 3)
    x = r.generator("x")
    n = 2**16
    products = [0]
    mul = ChowElement.__mul__

    def counting(self, other):
        products[0] += 1
        return mul(self, other)

    base = 1 + x
    monkeypatch.setattr(ChowElement, "__mul__", counting)
    got = base**n
    monkeypatch.undo()
    assert got == r.element({(j,): comb(n, j) for j in range(4)})
    assert products[0] <= 34
    assert x**0 == r.one() and x**3 == x * x * x and x**4 == 0 and (2 * r.one()) ** 5 == 32


def test_homogeneous_parts():
    r = Ring([("a", 1), ("b", 2)], 3)
    a, b = r.gens()
    x = r.const(5) + 2 * a + b + a * b
    assert x.constant_term == 5
    assert x.max_degree() == 3
    assert x.is_homogeneous(1) is False
    assert (2 * a).is_homogeneous(1)


def test_monomials_enumeration():
    r = Ring([("a", 1), ("b", 2)], 4)
    assert r.monomials(2) == [(0, 1), (2, 0)]
    assert r.monomials(0) == [(0, 0)]
    assert r.monomials(5) == []


# -- the integer kernel against the plain {exponent tuple: Fraction} oracle -----

# (degrees, truncation): the rational ring, truncation 0, a generator above D,
# and mixed degrees
KERNEL_SHAPES = [((), 0), ((1, 1), 0), ((1, 4), 3), ((1, 2, 3), 6)]


def _exponents(degrees, bound):
    """Every exponent vector of weighted degree <= bound."""
    out = [()]
    for g in degrees:
        out = [m + (e,) for m in out for e in range(bound // g + 1)]
    return [m for m in out if sum(e * g for e, g in zip(m, degrees)) <= bound]


def _random_terms(rng, degrees, truncation, dense):
    """Seeded terms with negative and non-integral coefficients, some of
    them above the truncation (the ring must drop those)."""
    monos = _exponents(degrees, truncation + 2)
    count = len(monos) if dense else rng.randint(1, min(3, len(monos)))
    return {
        m: F(rng.randint(-9, 9), rng.choice([1, 1, 2, 3, 4, 6, 7]))
        for m in rng.sample(monos, count)
    }


def test_kernel_matches_oracle():
    rng = Random(20261018)
    for degrees, D in KERNEL_SHAPES:
        ring = Ring([(f"g{i}", d) for i, d in enumerate(degrees)], D)
        for _ in range(12):
            dense_x, dense_y = rng.random() < 0.5, rng.random() < 0.5
            tx = _random_terms(rng, degrees, D, dense_x)
            ty = _random_terms(rng, degrees, D, dense_y)
            x, y = ring.element(tx), ring.element(ty)
            ox, oy = poly_trunc(tx, degrees, D), poly_trunc(ty, degrees, D)
            s = F(rng.randint(-5, 5), rng.randint(1, 5))
            assert dict(x.items()) == ox
            assert dict((x + y).items()) == poly_add(ox, oy)
            assert dict((x - y).items()) == poly_add(ox, poly_scale(-1, oy))
            assert dict((x * y).items()) == poly_mul(ox, oy, degrees, D)
            assert x * y == ring.element(poly_mul(ox, oy, degrees, D))
            assert x + y == ring.element(poly_add(ox, oy))
            assert dict((x * s).items()) == poly_scale(s, ox)
            assert dict((s * y + x).items()) == poly_add(poly_scale(s, oy), ox)
            nil = x - x.constant_term
            assert dict(nil.exp().items()) == poly_exp(dict(nil.items()), degrees, D)
            unit = nil + s if s else nil + 1
            assert dict(unit.inverse().items()) == poly_inverse(dict(unit.items()), degrees, D)
            assert x * y == y * x and (x * y) * x == x * (y * x)


def test_equal_rings_share_monomials():
    # Two equal Ring instances of a shape no other test uses, with the same
    # monomials created in opposite orders.
    gens = [("u", 1), ("v", 1), ("w", 3)]
    monos = [(1, 0, 0), (0, 1, 0), (2, 1, 0), (0, 0, 1), (1, 2, 0), (3, 0, 0)]
    r1, r2 = Ring(gens, 5), Ring(gens, 5)
    assert r1 is not r2 and r1 == r2
    x1 = r1.element({m: i + 1 for i, m in enumerate(monos)})
    y2 = r2.element({m: F(1, i + 2) for i, m in reversed(list(enumerate(monos)))})
    x2 = r2.element({m: i + 1 for i, m in reversed(list(enumerate(monos)))})
    y1 = r1.element({m: F(1, i + 2) for i, m in enumerate(monos)})
    assert x1 == x2 and y1 == y2 and x1 != y2
    assert dict(x1.items()) == dict(x2.items())
    assert x1 + y2 == x1 + y1 == x2 + y2
    assert x1 * y2 == x1 * y1 == x2 * y1
    assert dict((x2 * y1).items()) == dict((x1 * y1).items())
    assert str(x1 * y2) == str(x2 * y2)


def test_threads_share_a_fresh_shape():
    # Four threads build and multiply the same seeded elements in a ring
    # shape no other test uses; every miss in its table happens under
    # contention.
    degrees, D = (1, 1, 1, 2), 7
    gens = [(n, d) for n, d in zip("pqrs", degrees)]
    rng = Random(44)
    inputs = [_random_terms(rng, degrees, D, dense=False) for _ in range(6)]

    def work(ring):
        xs = [ring.element(t) for t in inputs]
        out = []
        for x in xs:
            for y in xs:
                p = x * y
                out.append((dict(p.items()), str(p), dict((p - p.constant_term).exp().items())))
        return out

    results: list = [None] * 4

    def run(slot):
        results[slot] = work(Ring(gens, D))

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    single = work(Ring(gens, D))
    assert results == [single] * 4
    ox = [poly_trunc(t, degrees, D) for t in inputs]
    assert [p for p, _, _ in single] == [poly_mul(a, b, degrees, D) for a in ox for b in ox]


def test_sparse_large_ring_touches_only_its_monomials():
    # 12 degree-1 generators at truncation 10 have 646,646 monomials; sparse
    # work must intern only the monomials it produces.
    degrees, D = (1,) * 12, 10
    ring = Ring([(f"x{i}", 1) for i in range(12)], D)
    table = ring._mono
    before = set(table.exps)

    def unit(*i):
        return tuple(int(j in i) for j in range(12))

    tx = {unit(0): F(1, 2), unit(1): 3, unit(2, 3): F(-2, 3)}
    ty = {unit(4, 5): 1, unit(6): F(5, 7), unit(7, 8, 9): -1}
    t0 = time.perf_counter()
    x, y = ring.element(tx), ring.element(ty)
    p, ex, ey = x * y, x.exp(), y.exp()
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    assert dict(p.items()) == poly_mul(tx, ty, degrees, D)
    assert dict(ex.items()) == poly_exp(tx, degrees, D)
    assert dict(ey.items()) == poly_exp(ty, degrees, D)
    produced = {(0,) * 12} | set(tx) | set(ty) | set(dict(p.items()))
    for t in (tx, ty):
        power = {(0,) * 12: F(1)}
        for _ in range(D):
            power = poly_mul(power, t, degrees, D)
            produced |= set(power)
    assert set(table.exps) - before == produced - before
    assert len(table.exps) < 1000
