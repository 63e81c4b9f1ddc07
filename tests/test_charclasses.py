import sys
from fractions import Fraction as F
from functools import partial
from math import factorial, log2
from pathlib import Path
from random import Random

import pytest

from chloc import (
    ChowElement,
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
from chloc import charclasses, cli
from chloc.charclasses import (
    _EULER,
    _HIRZEBRUCH,
    _TODD,
    _TWIST,
    _RowStore,
    _argument,
    _bernoulli_w,
    _euler_rows,
    _exp_hirzebruch_rows,
    _hirzebruch_table,
    _todd_rows,
)
from chloc.rings import reduce_part
from chloc.sampling import sample_kclass, sample_ring, sample_weight
from chloc.series import scalar_series

from oracles import (
    bernoulli_oracle,
    laurent_exp,
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


def test_hirzebruch_formal_at_low_order_agrees_with_a_deep_t():
    # with t known to a low order, every coefficient reported is the one a
    # deep t gives: pole terms of the argument above the order the rows are
    # reliable to still reach the lowest coefficients through products
    rng = Random(5555)
    r = Ring([("a", 1)], 4)
    a = r.generator("a")
    x = KClass(r, 0, [-2 * a, F(-4, 3) * a**2, -2 * a**3])
    low = hirzebruch_class(q_exponential(r, 3, 1), x)
    assert low.q_max == -4 and low.coefficient(-4) == F(110, 729) * a**4
    for _ in range(40):
        ring = sample_ring(rng, max_truncation=4)
        x = sample_kclass(rng, ring, rank_min=-2, rank_max=2)
        k = sample_weight(rng)
        deep = hirzebruch_class(q_exponential(ring, -k, 24), x)
        for order in range(1, ring.truncation + 3):
            low = hirzebruch_class(q_exponential(ring, -k, order), x)
            assert low.q_max < deep.q_max and low == deep, (ring, x, k, order)


def _power_by_loop(one, base, n):
    for _ in range(n):
        one = one * base
    return one


def test_hirzebruch_rank_factor_by_squaring_matches_the_loop(monkeypatch):
    # (1 - t)^rank by repeated squaring: the same coefficients and the same
    # reported order as multiplying the factor in once per unit of rank
    rng = Random(2026)
    cases = []
    for rank in range(-12, 13):
        ring = sample_ring(rng, max_truncation=3)
        x = sample_kclass(rng, ring, rank_min=rank, rank_max=rank)
        k = sample_weight(rng)
        for order in (1, 2, 5, 9):
            for q_max in (None, order - 3):
                cases.append((x, q_exponential(ring, -k, order), q_max))
    squared = [hirzebruch_class(t, x, q_max) for x, t, q_max in cases]
    monkeypatch.setattr(charclasses, "power", _power_by_loop)
    for (x, t, q_max), got in zip(cases, squared):
        want = hirzebruch_class(t, x, q_max)
        assert got.q_max == want.q_max and got == want, (x, t.q_max, q_max)


@pytest.mark.parametrize("rank", [20_000, -20_000])
def test_hirzebruch_rank_factor_takes_logarithmically_many_products(monkeypatch, rank):
    r, a = _line_ring(2)
    calls = [0]
    mul = QSeries.__mul__

    def counting(self, other):
        calls[0] += 1
        return mul(self, other)

    monkeypatch.setattr(QSeries, "__mul__", counting)
    x = KClass(r, rank, [a, r.zero()])
    hirzebruch_class(q_exponential(r, -1, 4), x)
    assert 0 < calls[0] <= 2 * log2(abs(rank)) + 2


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


def test_twist_checks_the_weight_and_keeps_a_low_order():
    # no early return below q^1: the weight is checked at every order, and an
    # order below 0 is reported as asked
    r, a = _line_ring(2)
    x = line_bundle(a)
    with pytest.raises(TypeError, match="weight must be an int, not float"):
        todd_twist_ratio(x, 1.5, 0)
    low = todd_twist_ratio(x, 2, -3)
    assert low.q_max == -3 and str(low) == "0 + O(q^-2)"
    assert str(todd_twist_ratio(x, 2, 0)) == "(1) + O(q^1)"


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


def test_warm_identity_check_builds_no_class_per_coefficient(monkeypatch):
    """Series stay in their one store through a warm euler_identity_check at
    q-order 14 on sums of two and three line bundles, the shapes of the
    identity benchmark's root cases: chloc.series reduces no coefficient as
    a class, and lhs - rhs adds no classes.  With one class per coefficient
    a seed-1 round of that workload made 130 such reduces in chloc.series
    and 63 class additions."""
    cases = []
    for D, roots, k in ((4, [(1, 2), (-2, 1)], 2), (3, [(1, -1), (2, 2), (-1, -2)], -3)):
        ring = Ring([("a", 1), ("b", 1)], D)
        a, b = ring.gens()
        cases.append((sum_of_roots(ring, [a * p + b * r for p, r in roots]), k))
    for x, k in cases:
        assert euler_identity_check(x, k, 14).equal
    calls = []
    of, add = ChowElement._of.__func__, ChowElement.__add__

    def counting_of(cls, ring, part):
        if sys._getframe(1).f_globals["__name__"] == "chloc.series":
            calls.append("series reduce")
        return of(cls, ring, part)

    def counting_add(self, other):
        calls.append("class add")
        return add(self, other)

    monkeypatch.setattr(ChowElement, "_of", classmethod(counting_of))
    monkeypatch.setattr(ChowElement, "__add__", counting_add)
    for x, k in cases:
        assert euler_identity_check(x, k, 14).equal
    assert calls == []


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


# -- the weight-1 row stores ----------------------------------------------------------

_BUILDERS = {
    "euler": _euler_rows,
    "todd": partial(_todd_rows, 0),
    "twist": partial(_todd_rows, 1),
    "hirzebruch": _exp_hirzebruch_rows,
}
_STORES = ("_EULER", "_TODD", "_TWIST", "_HIRZEBRUCH")


def _scalars_of(part) -> dict[int, F]:
    """A scalar row (the series store on monomial index 0) as {exponent: Fraction}."""
    num, den = part
    assert all(row.keys() == {0} for row in num.values())
    return {r: F(row[0], den) for r, row in num.items()}


def _scaled(rows, k, order):
    """The regraded rows q^l phi_l(kq) up to q^order as {exponent: Fraction}
    maps: k^(r-l) times each stored coefficient of row l at q^r."""
    return [{r: v * F(k) ** (r - l) for r, v in _scalars_of(psi).items() if r <= order}
            for l, psi in enumerate(rows)]


def test_scaled_rows_match_oracles():
    # the rows at weight k are the weight-1 rows with q -> kq, stored in the
    # regraded frame as power series psi_l = q^l phi_l
    scalars = Ring([], 0)
    for k in (-3, -2, -1, 2, 3, 5):
        for D in (1, 3, 6):
            stirling, valid, _ = _hirzebruch_table(q_exponential(scalars, -k, 14 + D + 1), D)
            assert valid >= 14
            for order in (0, 5, 14):
                euler = _scaled(_EULER(D), k, order)
                todd_rows = _scaled(_TODD(D, order), k, order)
                twist = _scaled(_TWIST(D, order), k, order)
                hirzebruch = _scaled(_HIRZEBRUCH(D, order), k, order)
                assert {len(rows) for rows in (euler, todd_rows, twist, hirzebruch)} == {D + 1}
                for rows in (euler, todd_rows, twist, hirzebruch):
                    assert all(r >= 0 for row in rows for r in row)
                # e_{kq}: phi_l = -(l-1)!/(-kq)^l, so q^l phi_l is a constant
                expected = [{0: F(-factorial(l - 1), (-k) ** l)} for l in range(1, D + 1)]
                assert euler == [{}] + expected
                # Td(L (x) O(kq)) = exp(sum_j phi_j(kq) y^j/j!) on a line of root
                # y is line_todd at y + kq: phi_0(kq) is the log of
                # line_todd(kq), and d/dq phi_j(kq) = k phi_{j+1}(kq), which
                # reads (q d/dq - j) psi_j = k psi_{j+1} on the regraded rows
                line = {n: c * F(k) ** n for n, c in enumerate(line_todd(order)) if c}
                assert laurent_exp(todd_rows[0], order) == line
                for j in range(D):
                    derivative = {r: (r - j) * c for r, c in todd_rows[j].items() if r != j}
                    next_row = {r: k * c for r, c in todd_rows[j + 1].items()}
                    assert derivative == next_row
                # the twist ratio drops the q^0 terms, at q^l once regraded
                assert twist == [{r: c for r, c in row.items() if r != l}
                                 for l, row in enumerate(todd_rows)]
                # the Stirling form at the series t = exp(-kq), and the rank row
                assert hirzebruch[0] == {n: -c for n, c in twist[0].items()}
                for l in range(1, D + 1):
                    expected = {e: v for e, v in _scalars_of(stirling[l]).items() if e <= order}
                    assert hirzebruch[l] == expected


def test_rows_extend_as_prefixes():
    # a row at a lower order is a prefix of the row at a higher order, and
    # row l does not depend on D: so one store serves every (D, order)
    for name, build in _BUILDERS.items():
        top = build(6, 14)
        for D in (1, 3, 6):
            for order in (0, 5, 14):
                rows = build(D, order)
                assert len(rows) == D + 1
                assert all(list(phi[0]) == sorted(phi[0]) for phi in rows)
                assert [_scalars_of(phi) for phi in rows] == _scaled(top[: D + 1], 1, order)
                for k in (-3, -2, -1, 2, 3, 5):
                    expected = _scaled(top[: D + 1], k, order)
                    assert _scaled(rows, k, order) == expected, (name, D, order, k)


# (k, D) -> every order at which acceptance criteria 1 and 7 and the identity
# and localize benchmark workloads (seeds 1-3) built the t = exp(-kq)
# Hirzebruch table per (k, D, order), recorded by wrapping its builder while
# they ran, before the tables became weight-free.
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


def test_bernoulli_w_matches_reciprocal_expm1():
    # kq/(e^{kq} - 1) is x/(e^x - 1) at x = kq: 1/(e^x - 1) shifted by one
    order = 30
    recip = reciprocal_expm1(order)
    for k in (1, 2, 3, 5, -1, -2, -3):
        expected = {e + 1: c * F(k) ** (e + 1) for e, c in recip.items() if e < order}
        assert _scaled([_bernoulli_w(order)], k, order) == [expected]


def test_exp_hirzebruch_table_matches_stirling_form():
    # the Bernoulli-w rows scaled to weight k against the Stirling form at
    # the series t = exp(-kq), on every (k, D, order) the checks above reach
    scalars = Ring([], 0)
    for (k, D), orders in _REACHED.items():
        top = max(orders)
        t = q_exponential(scalars, -k, top + D + 1)
        reference, valid, _ = _hirzebruch_table(t, D)
        assert valid >= top
        for order in orders:
            rows = _scaled(_HIRZEBRUCH(D, order), k, order)
            assert len(rows) == D + 1
            assert rows[0] == {n: -v for n, v in _scaled(_TWIST(D, order), k, order)[0].items()}
            for l in range(1, D + 1):
                expected = {e: v for e, v in _scalars_of(reference[l]).items() if e <= order}
                assert rows[l] == expected, (k, D, order, l)


def test_cached_tables_are_read_only():
    for rows in (_HIRZEBRUCH(3, 10), _TODD(2, 6), _TWIST(2, 6), _EULER(3)):
        with pytest.raises(TypeError):
            rows[1] = {}
        with pytest.raises(TypeError):
            rows[1][1] = F(1)
        with pytest.raises(TypeError):
            del rows[1]


def _empty_stores(monkeypatch, builds=None):
    """Put empty row stores in place of the module's; with ``builds``, count
    each kind's builds in it by store name."""
    for name in _STORES:
        build = getattr(charclasses, name).build
        if builds is not None:
            def build(D, order, name=name, inner=build):
                builds[name] = builds.get(name, 0) + 1
                return inner(D, order)
        monkeypatch.setattr(charclasses, name, _RowStore(build))


def test_results_do_not_depend_on_the_request_order(monkeypatch):
    # from empty stores, requests in ascending (D, order) rebuild each store
    # again and again, while in descending order the first build serves
    # every later request by prefixes
    rng = Random(2718)
    cases = []
    for D in (1, 2, 3, 4):
        ring = Ring([("a", 1), ("b", 2)], D)
        x, y = sample_kclass(rng, ring), sample_kclass(rng, ring)
        k, j = sample_weight(rng), sample_weight(rng)
        cases += [(D, q, ring, x, y, k, j) for q in (2, 6, 10)]

    def products(D, q, ring, x, y, k, j):
        return [str(r) for r in (
            euler_identity_check(x, k, q),
            crosscheck_factors(ring, [(x, k), (-y, j)], q),
            localization_product(x, k, [(y, j)], [(x, j), (y, -k)], [(x + y, k)], q),
            todd_twist_ratio(y, j, q),
            todd(x),
        )]

    results = []
    for descending in (False, True):
        _empty_stores(monkeypatch)
        ordered = sorted(cases, key=lambda case: case[:2], reverse=descending)
        results.append({case[:2]: products(*case) for case in ordered})
    assert results[0] == results[1]


def test_cold_identity_job_builds_each_kind_at_most_twice(monkeypatch, capsys):
    golden = Path(__file__).parent / "golden"
    builds = {}
    _empty_stores(monkeypatch, builds)
    assert cli.main(["classes", "identity", "--job", str(golden / "job_identity.json")]) == 0
    assert capsys.readouterr().out == (golden / "classes_identity.txt").read_text()
    assert set(builds) == {"_EULER", "_TWIST", "_HIRZEBRUCH"}
    assert max(builds.values()) <= 2, builds


def _argument_view(ring, q_max, scal, parts):
    """The argument's regraded coefficients as {exponent: {exponent tuple:
    Fraction}}, after checking that each part is homogeneous of its degree
    and within q_max."""
    got = {e: {(0,) * ring.ngens: v} for e, v in _scalars_of(scal).items()}
    for l, (num, den) in parts.items():
        for e, row in num.items():
            c = ChowElement._of(ring, reduce_part({0: row}, den))
            assert c and c.is_homogeneous(l) and (q_max is None or e <= q_max)
            got.setdefault(e, {}).update(c.items())
    return got


def test_argument_matches_scaled_sums():
    # sum over (x, k, rows) of k^(r-l) psi_l[r] * Ch_l(x), Ch_0 = rank, each
    # term scaled and added apart on plain {exponent tuple: Fraction} maps;
    # rows that start below q^l take a nonzero k, and k = 0 keeps the q^l
    # terms only
    rng = Random(1214)
    rings = [sample_ring(rng) for _ in range(12)]
    rings += [Ring([("a", 1), ("b", 2), ("c", 3)], 4), Ring([], 0), Ring([("a", 1)], 0)]
    for ring in rings * 2:
        D = ring.truncation
        terms = []
        for _ in range(rng.randint(1, 3)):
            k = rng.choice([-3, -2, -1, 0, 1, 2, 5])
            low = 0 if k == 0 else -D - 1
            rows = tuple(
                scalar_series(sorted({r: F(rng.randint(-4, 4), rng.randint(1, 5))
                                      for r in rng.sample(range(low + l, 6 + l), 3)}.items()))
                if rng.random() < 0.7 else ({}, 1)
                for l in range(rng.randint(0, D + 1))
            )
            terms.append((sample_kclass(rng, ring), k, rows))
        q_max = rng.choice([None, rng.randint(-2, 4)])
        got = _argument_view(ring, q_max, *_argument(ring, terms, q_max))
        expected: dict = {}
        for x, k, rows in terms:
            for l, phi in enumerate(rows):
                c = dict(x.chern_character(l).items()) if l else {(0,) * ring.ngens: F(x.rank)}
                for r, v in _scalars_of(phi).items():
                    if q_max is None or r <= q_max:
                        term = poly_scale(v * F(k) ** (r - l), c)
                        expected[r] = poly_add(expected.get(r, {}), term)
        assert got == {e: c for e, c in expected.items() if c}
    other = Ring([("a", 1)], 3)
    with pytest.raises(ValueError, match="ring mismatch"):
        _argument(rings[0], [(KClass(other, 1), 1, (scalar_series([(0, 1)]),))])
