from fractions import Fraction as F
from random import Random

import pytest

from chloc import (
    KClass,
    QSeries,
    Ring,
    bernoulli,
    crosscheck_factors,
    equivariant_euler,
    euler_identity_check,
    hirzebruch_class,
    hirzebruch_coefficient,
    line_bundle,
    localization_product,
    q_exponential,
    stirling2,
    sum_of_roots,
    todd,
    todd_twist_ratio,
)
from chloc.charclasses import (
    _argument,
    _exp_hirzebruch_table,
    _hirzebruch_table,
    _reciprocal_expm1,
    _todd_table,
    _twist_table,
)
from chloc.sampling import sample_kclass, sample_ring, sample_weight

from oracles import (
    bernoulli_oracle,
    poly_add,
    poly_scale,
    line_hirzebruch,
    line_todd,
    reciprocal_expm1,
    stirling_oracle,
)


def _line_ring(truncation):
    r = Ring([("x", 1)], truncation)
    return r, r.generator("x")


# -- Bernoulli / Stirling --------------------------------------------------------


def test_bernoulli_values():
    assert bernoulli(1) == F(-1, 2)
    assert bernoulli(2) == F(1, 6)
    assert bernoulli(3) == 0
    assert bernoulli(4) == F(-1, 30)
    for n in range(0, 16):
        assert bernoulli(n) == bernoulli_oracle(n)


def test_stirling_against_generating_function():
    for l in range(0, 13):
        for k in range(0, 13):
            assert stirling2(l, k) == stirling_oracle(l, k)


def test_stirling_spot_values():
    for l in range(0, 7):
        assert stirling2(l, l) == 1
    assert stirling2(3, 2) == 3
    assert stirling2(2, 5) == 0


# -- the s_l coefficients ------------------------------------------------------------


def test_s1_rational():
    for t in (F(-1), F(0), F(1, 2), F(3), F(-7, 5)):
        assert hirzebruch_coefficient(1, t) == F(-1, 2) - t / (1 - t)
    assert hirzebruch_coefficient(1, F(-1)) == 0


def test_s2_closed_form():
    for t in (F(-1), F(2, 3), F(5)):
        u = t / (1 - t)
        assert hirzebruch_coefficient(2, t) == F(1, 12) + u + u * u


def test_s1_formal_laurent():
    # s_1(exp(-q)) = -1/2 - 1/(exp(q) - 1)
    r = Ring([], 0)
    order = 8
    t = q_exponential(r, -1, order + 3)
    s1 = hirzebruch_coefficient(1, t)
    recip = reciprocal_expm1(order)
    for e in range(-1, order):
        expected = -recip.get(e, F(0)) - (F(1, 2) if e == 0 else 0)
        assert s1.coefficient(e).constant_term == expected
    # frozen leading terms: -1/q - q/12 + q^3/720 - ...
    assert s1.coefficient(-1).constant_term == -1
    assert s1.coefficient(0).constant_term == 0
    assert s1.coefficient(1).constant_term == F(-1, 12)
    assert s1.coefficient(3).constant_term == F(1, 720)


def test_s_l_rejects_t_equal_one():
    with pytest.raises(ValueError):
        hirzebruch_coefficient(1, F(1))
    with pytest.raises(ValueError):
        hirzebruch_class(F(1), KClass.trivial(Ring([], 0), 1))


# -- K-classes -----------------------------------------------------------------------


def test_kclass_addition_and_lines():
    r = Ring([("a", 1), ("b", 1)], 2)
    a, b = r.gens()
    la, lb = line_bundle(a), line_bundle(b)
    s = la + lb
    assert s.rank == 2
    assert s.chern_character(1) == a + b
    assert s.chern_character(2) == (a * a + b * b) * F(1, 2)
    z = la + (-la)
    assert z == KClass.zero(r)
    assert la + KClass.zero(r) == la


def test_line_bundle_examples():
    r, x = _line_ring(2)
    trivial = line_bundle(r.zero())
    assert trivial.rank == 1 and all(c.is_zero for c in trivial.ch)
    L = line_bundle(x)
    assert L.chern_character(1) == x
    assert L.chern_character(2) == x * x * F(1, 2)
    roots = sum_of_roots(r, [x, -x])
    assert roots.rank == 2
    assert roots.chern_character(1).is_zero
    assert roots.chern_character(2) == x * x
    with pytest.raises(ValueError):
        line_bundle(x * x)


def test_kclass_validation():
    r, x = _line_ring(2)
    with pytest.raises(ValueError):
        KClass(r, 1, [x * x])  # degree 2 in the Ch_1 slot


def test_dual():
    r, x = _line_ring(3)
    L = line_bundle(x)
    d = L.dual()
    assert d.chern_character(1) == -x
    assert d.chern_character(2) == x * x * F(1, 2)
    assert d.chern_character(3) == -(x * x * x) * F(1, 6)


# -- Todd ---------------------------------------------------------------------------


def test_todd_trivial():
    r, _ = _line_ring(2)
    assert todd(KClass.trivial(r, 5)) == r.one()


def test_todd_line_matches_oracle():
    for D in (1, 2, 3, 4, 6):
        r, x = _line_ring(D)
        expected = line_todd(D)
        value = todd(line_bundle(x))
        acc = r.zero()
        xp = r.one()
        for n, c in enumerate(expected):
            acc = acc + xp * c
            xp = xp * x
        assert value == acc


def test_todd_multiplicative():
    rng = Random(314)
    for _ in range(30):
        ring = sample_ring(rng)
        x = sample_kclass(rng, ring)
        y = sample_kclass(rng, ring)
        assert todd(x + y) == todd(x) * todd(y)


# -- Hirzebruch class -----------------------------------------------------------------


def test_hirzebruch_line_closed_form():
    # On a line bundle the class is x*(exp(x) - t)/(exp(x) - 1); at D = 1
    # this reads (1 - t) + (1 + t)/2 * x.
    for D in (1, 2, 3, 5):
        r, x = _line_ring(D)
        L = line_bundle(x)
        for t in (F(0), F(-1), F(1, 3), F(7, 2)):
            coeffs = line_hirzebruch(t, D)
            acc = r.zero()
            xp = r.one()
            for n, c in enumerate(coeffs):
                acc = acc + xp * c
                xp = xp * x
            assert hirzebruch_class(t, L) == acc
    r, x = _line_ring(1)
    assert hirzebruch_class(F(1, 3), line_bundle(x)) == r.const(F(2, 3)) + x * F(2, 3)


def test_hirzebruch_trivial_rank():
    r, _ = _line_ring(2)
    for rank in (-2, 0, 1, 3):
        assert hirzebruch_class(F(1, 2), KClass.trivial(r, rank)) == r.const(
            F(1, 2) ** rank
        )


def test_hirzebruch_at_zero_is_chern_todd():
    # c_0(L) = x * exp(x) / (exp(x) - 1)
    for D in (1, 2, 4):
        r, x = _line_ring(D)
        coeffs = line_hirzebruch(F(0), D)
        acc = r.zero()
        xp = r.one()
        for n, c in enumerate(coeffs):
            acc = acc + xp * c
            xp = xp * x
        assert hirzebruch_class(F(0), line_bundle(x)) == acc


def test_hirzebruch_multiplicative_rational():
    rng = Random(2718)
    for _ in range(30):
        ring = sample_ring(rng)
        x = sample_kclass(rng, ring)
        y = sample_kclass(rng, ring)
        t = F(rng.randint(-4, 4), rng.randint(1, 4))
        if t == 1:
            t = F(1, 2)
        assert hirzebruch_class(t, x + y) == hirzebruch_class(t, x) * hirzebruch_class(t, y)


def test_hirzebruch_multiplicative_formal():
    rng = Random(161803)
    for _ in range(8):
        ring = sample_ring(rng, max_truncation=3)
        x = sample_kclass(rng, ring, rank_min=-2, rank_max=2)
        y = sample_kclass(rng, ring, rank_min=-2, rank_max=2)
        w = sample_weight(rng)
        order = 12
        t = q_exponential(ring, -w, order)
        lhs = hirzebruch_class(t, x + y)
        rhs = hirzebruch_class(t, x) * hirzebruch_class(t, y)
        assert lhs.truncated(6) == rhs.truncated(6)


# -- equivariant Euler class ------------------------------------------------------------


def test_euler_line():
    r, x = _line_ring(2)
    assert equivariant_euler(line_bundle(x), 1) == QSeries(r, {1: r.one(), 0: x})


def test_euler_trivial_rank():
    r, _ = _line_ring(2)
    assert equivariant_euler(KClass.trivial(r, 3), 1) == QSeries.q_power(r, 3)
    assert equivariant_euler(KClass.trivial(r, 1), -2) == QSeries.q_power(r, 1, -2)


def test_euler_negated_line():
    r, x = _line_ring(1)
    got = equivariant_euler(-line_bundle(x), 1)
    assert got == QSeries(r, {-1: r.one(), -2: -x})


def test_euler_root_factorization():
    rng = Random(42)
    for _ in range(20):
        ring = sample_ring(rng)
        k = sample_weight(rng)
        nroots = rng.randint(0, 3)
        roots = [ring.element({m: F(rng.randint(-2, 2))}) for m in ring.monomials(1) for _ in ()]
        roots = []
        monos = ring.monomials(1)
        for _ in range(nroots):
            roots.append(ring.element({monos[rng.randrange(len(monos))]: rng.randint(-2, 2)}))
        v = sum_of_roots(ring, roots)
        expected = QSeries.one(ring)
        for a in roots:
            expected = expected * QSeries(ring, {1: ring.const(k), 0: a})
        assert equivariant_euler(v, k) == expected


def test_euler_multiplicative_exact():
    rng = Random(1003)
    for _ in range(40):
        ring = sample_ring(rng)
        x = sample_kclass(rng, ring)
        y = sample_kclass(rng, ring)
        k = sample_weight(rng)
        assert equivariant_euler(x + y, k) == equivariant_euler(x, k) * equivariant_euler(y, k)


def test_euler_inverse_law():
    rng = Random(77)
    for _ in range(20):
        ring = sample_ring(rng)
        x = sample_kclass(rng, ring)
        k = sample_weight(rng)
        e, e_inv = equivariant_euler(x, k), equivariant_euler(-x, k)
        # exact: no truncation order on the classes or their product
        assert e.is_exact and e_inv.is_exact
        assert e * e_inv == QSeries.one(ring) == e_inv * e


def test_euler_rank_law():
    rng = Random(4242)
    for _ in range(20):
        ring = sample_ring(rng)
        x = sample_kclass(rng, ring)
        k = sample_weight(rng)
        e = equivariant_euler(x, k)
        # the scalar-part leading exponent is the virtual rank
        lead = min(
            ex for ex, c in zip(e.exponents(), (e.coefficient(i) for i in e.exponents()))
            if c.constant_term
        )
        assert lead == x.rank
        assert e.coefficient(x.rank).constant_term == F(k) ** x.rank


def test_euler_rejects_zero_weight():
    r, x = _line_ring(1)
    with pytest.raises(ValueError):
        equivariant_euler(line_bundle(x), 0)


def test_euler_dual_law():
    rng = Random(55)
    for _ in range(25):
        ring = sample_ring(rng)
        x = sample_kclass(rng, ring)
        k = sample_weight(rng)
        lhs = equivariant_euler(x.dual(), k)
        rhs = equivariant_euler(x, -k) * F((-1) ** (x.rank % 2))
        assert lhs == rhs


# -- Todd twist ratio ---------------------------------------------------------------------


def test_twist_rank_zero():
    r, _ = _line_ring(2)
    assert todd_twist_ratio(KClass.zero(r), 1, 8) == QSeries.one(r)


def test_twist_trivial_line_is_todd_series():
    r, _ = _line_ring(2)
    order = 8
    got = todd_twist_ratio(KClass.trivial(r, 1), 1, order)
    expected = line_todd(order)
    for n in range(order + 1):
        assert got.coefficient(n).constant_term == expected[n]
    # frozen: 1 + q/2 + q^2/12 + 0 - q^4/720
    assert got.coefficient(1).constant_term == F(1, 2)
    assert got.coefficient(2).constant_term == F(1, 12)
    assert got.coefficient(3).constant_term == 0
    assert got.coefficient(4).constant_term == F(-1, 720)


def test_twist_first_order_shape():
    # 1 + (rank * k / 2) q + higher q or higher Chow degree
    rng = Random(31)
    for _ in range(20):
        ring = sample_ring(rng)
        x = sample_kclass(rng, ring)
        k = sample_weight(rng)
        tw = todd_twist_ratio(x, k, 6)
        assert tw.coefficient(0) == ring.one()
        assert tw.coefficient(1).constant_term == F(x.rank * k, 2)
        assert all(e >= 0 for e in tw.exponents())


# -- the comparison identity -----------------------------------------------------------------


def test_identity_line_bundles():
    for D in (1, 2, 3, 4):
        r, x = _line_ring(D)
        chk = euler_identity_check(line_bundle(x), 1)
        assert chk.equal, str(chk.difference)


def test_identity_mixed_class_negative_weight():
    r, x = _line_ring(3)
    cls = -line_bundle(x) + KClass.trivial(r, 1)
    chk = euler_identity_check(cls, -2, q_max=12)
    assert chk.equal, str(chk.difference)


def test_identity_zero_class():
    r, _ = _line_ring(2)
    chk = euler_identity_check(KClass.zero(r), 1)
    assert chk.equal
    assert chk.lhs == QSeries.one(r)
    assert chk.rhs == QSeries.one(r)


def test_identity_margin_stability():
    # the internal working order must not affect the reported coefficients
    rng = Random(9001)
    for _ in range(5):
        ring = sample_ring(rng, max_truncation=3)
        x = sample_kclass(rng, ring)
        k = sample_weight(rng)
        a = euler_identity_check(x, k, q_max=8)
        b = euler_identity_check(x, k, q_max=20)
        assert a.equal and b.equal
        assert a.rhs.truncated(8) == b.rhs.truncated(8)
    # the same for the localization product and the crosscheck's Hirzebruch
    # side, down to working orders below 1 (total rank 12, q_max 0)
    for rank in (-12, -7, 0, 7, 12):
        ring = sample_ring(rng, max_gens=2, max_truncation=3)
        x = sample_kclass(rng, ring)
        x = KClass(ring, rank, x.ch)
        k = sample_weight(rng)
        t = [(sample_kclass(rng, ring), sample_weight(rng))]

        def products(q):
            return {
                "identity": euler_identity_check(x, k, q_max=q).rhs,
                "localization": localization_product(x, -k, [], t, [], q_max=q).series,
                "crosscheck": crosscheck_factors(ring, [(x, k)], q_max=q).side_hirzebruch,
            }

        wide = products(12)
        for q in (0, 1, 3):
            for name, series in products(q).items():
                assert series.q_max == q, (name, rank, q)
                assert series == wide[name], (name, rank, q)


# -- the tables at t = exp(-kq) ---------------------------------------------------------

# (k, D) -> every order at which acceptance criteria 1 and 7 and the identity
# and localize benchmark workloads (seeds 1-3) build _exp_hirzebruch_table(k,
# D, order), recorded by wrapping that function while they ran.
_REACHED = {
    (-1, 1): (3, 4, 7, 8, 15, 17),
    (-1, 2): (8, 9, 10, 11, 13, 14, 16, 17, 18, 19, 20),
    (-1, 3): (5, 10, 11, 12, 13, 15, 16, 17, 18, 20, 21, 22),
    (-1, 4): (7, 8, 9, 11, 13, 14, 15, 16, 17, 18, 19, 20, 22, 23),
    (-1, 5): (18, 19, 20),
    (-1, 6): (17, 21, 22, 23),
    (1, 1): (1, 2, 3, 4, 6, 7, 10, 12, 13, 15, 16, 18, 19),
    (1, 2): (8, 9, 10, 13, 14, 16, 18),
    (1, 3): (5, 7, 10, 11, 12, 13, 17, 19),
    (1, 4): (7, 9, 10, 11, 12, 14, 15, 16, 17, 18, 21, 23),
    (1, 5): (20, 23),
    (1, 6): (17, 23),
    (-2, 1): (1, 3, 4, 7, 9, 10, 13, 16, 17),
    (-2, 2): (7, 8, 9, 10, 12, 13, 14, 15, 16, 17, 18, 19),
    (-2, 3): (5, 10, 12, 13, 14, 15, 16, 18, 19, 20, 21),
    (-2, 4): (10, 11, 13, 14, 15, 16, 17, 19, 22, 23),
    (-2, 5): (17, 18, 19, 21, 22),
    (-2, 6): (17, 18, 20, 22, 23),
    (2, 1): (1, 3, 4, 7, 8, 10, 12, 13, 14, 16, 18, 19),
    (2, 2): (7, 8, 9, 10, 11, 12, 13, 14, 15, 17, 18, 20),
    (2, 3): (5, 7, 9, 10, 11, 12, 14, 15, 16, 17, 22),
    (2, 4): (7, 10, 13, 14, 16, 18),
    (2, 5): (18, 19, 20, 21, 23),
    (2, 6): (19, 21, 23),
    (-3, 1): (1, 2, 3, 4, 5, 6, 7, 10, 14, 17, 18),
    (-3, 2): (7, 8, 10, 11, 13, 15, 16, 18, 19),
    (-3, 3): (10, 12, 13, 14, 16, 17, 18, 19, 22),
    (-3, 4): (7, 13, 14, 15, 17, 19, 21),
    (-3, 5): (16, 19, 20, 22, 23),
    (-3, 6): (18, 19, 21, 22, 23, 24),
    (3, 1): (1, 2, 4, 7, 8, 9, 10, 12, 13, 14, 16, 18),
    (3, 2): (6, 8, 9, 10, 11, 13, 14, 16, 17, 18, 19),
    (3, 3): (5, 7, 9, 10, 11, 12, 13, 14, 15, 18, 21),
    (3, 4): (9, 10, 11, 12, 13, 15, 16, 17, 18, 20),
    (3, 5): (17, 18, 19, 20, 22),
    (3, 6): (19, 21, 24),
}


def test_bernoulli_u_matches_reciprocal_expm1():
    # 1/(e^{kq} - 1) is 1/(e^x - 1) at x = kq
    order = 30
    recip = reciprocal_expm1(order)
    for k in (1, 2, 3, -1, -2, -3):
        expected = {e: c * F(k) ** e for e, c in recip.items() if e <= order}
        assert _reciprocal_expm1(k, order) == expected


def test_exp_hirzebruch_table_matches_stirling_form():
    # the Bernoulli-u table against the Stirling form at the series
    # t = exp(-kq), on every (k, D, order) the checks above reach
    scalars = Ring([], 0)
    for (k, D), orders in _REACHED.items():
        top = max(orders)
        t = q_exponential(scalars, -k, top + D + 1)
        reference, valid, _ = _hirzebruch_table(t, D)
        assert valid >= top
        for order in orders:
            table = _exp_hirzebruch_table(k, D, order)
            assert set(table) == set(range(D + 1))
            assert dict(table[0]) == {n: -v for n, v in _twist_table(k, D, order)[0].items()}
            for l in range(1, D + 1):
                expected = {e: v for e, v in reference[l].items() if e <= order}
                assert dict(table[l]) == expected, (k, D, order, l)


def test_cached_tables_are_read_only():
    for table in (_exp_hirzebruch_table(2, 3, 10), _todd_table(-1, 2, 6), _twist_table(3, 2, 6)):
        with pytest.raises(TypeError):
            table[1] = {}
        with pytest.raises(TypeError):
            table[1][1] = F(1)
        with pytest.raises(TypeError):
            del table[1]


def _seeded_products():
    rng = Random(2718)
    out = []
    for _ in range(4):
        ring = sample_ring(rng, max_truncation=3)
        x, y = sample_kclass(rng, ring), sample_kclass(rng, ring)
        k, j = sample_weight(rng), sample_weight(rng)
        out.append(euler_identity_check(x, k, q_max=10))
        out.append(crosscheck_factors(ring, [(x, k), (-y, j)], q_max=8))
        out.append(localization_product(x, k, [(y, j)], [(x, j), (y, -k)], [(x + y, k)], q_max=8))
    return out


def test_results_do_not_depend_on_the_table_caches():
    builders = (_exp_hirzebruch_table, _todd_table)
    for f in builders:
        f.cache_clear()
    cold = _seeded_products()
    hits = [f.cache_info().hits for f in builders]
    warm = _seeded_products()
    assert all(f.cache_info().hits > h for f, h in zip(builders, hits))
    assert warm == cold


def test_argument_matches_scaled_sums():
    # sum over (x, table) of phi_l[e] * Ch_l(x), Ch_0 = rank, each term
    # scaled and added apart on plain {exponent tuple: Fraction} maps
    rng = Random(1214)
    rings = [sample_ring(rng) for _ in range(12)]
    rings += [Ring([("a", 1), ("b", 2), ("c", 3)], 4), Ring([], 0), Ring([("a", 1)], 0)]
    for ring in rings * 2:
        D = ring.truncation
        terms = []
        for _ in range(rng.randint(1, 3)):
            table = {
                l: {e: F(rng.randint(-4, 4), rng.randint(1, 5))
                    for e in rng.sample(range(-D - 1, 6), 3)}
                for l in rng.sample(range(D + 1), rng.randint(0, D + 1))
            }
            terms.append((sample_kclass(rng, ring), table))
        q_max = rng.choice([None, rng.randint(-2, 4)])
        got = _argument(ring, terms, q_max)
        expected: dict = {}
        for x, table in terms:
            for l, phi in table.items():
                c = dict(x.chern_character(l).items()) if l else {(0,) * ring.ngens: F(x.rank)}
                for e, v in phi.items():
                    if q_max is None or e <= q_max:
                        expected[e] = poly_add(expected.get(e, {}), poly_scale(v, c))
        assert got.q_max == q_max
        assert {e: dict(got.coefficient(e).items()) for e in got.exponents()} == {
            e: c for e, c in expected.items() if c
        }
    other = Ring([("a", 1)], 3)
    with pytest.raises(ValueError, match="ring mismatch"):
        _argument(rings[0], [(KClass(other, 1), {0: {0: F(1)}})])
