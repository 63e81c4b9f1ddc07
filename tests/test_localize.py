import gc
import tracemalloc
from fractions import Fraction as F
from itertools import islice
from random import Random

import pytest

from chloc import (
    KClass,
    LocInput,
    QSeries,
    Ring,
    chain_solve,
    crosscheck_factors,
    chain_specialization,
    equivariant_euler,
    hirzebruch_class,
    hodge_product,
    line_bundle,
    localization_product,
    q_exponential,
    sum_of_roots,
    tautological_crosscheck,
    todd,
    todd_twist_ratio,
    weight_sequence,
)
from chloc.localize import _in_span, _row_reduce
from chloc.sampling import sample_kclass, sample_ring, sample_weight
from oracles import spans_contained


def _line_setup():
    r = Ring([("x", 1)], 1)
    return r, r.generator("x")


def test_hodge_product_rank_bookkeeping():
    r, x = _line_setup()
    L = line_bundle(x)
    inp = LocInput(ring=r, hodge=KClass.zero(r), hodge_weight=-3, pushed=((-L, 1),))
    res = hodge_product(inp)
    assert res.series == QSeries(r, {1: r.one(), 0: x})
    assert res.convergent
    assert res.limit == x
    assert res.relations == ()


def test_hodge_product_trivial_hodge():
    r, _ = _line_setup()
    inp = LocInput(
        ring=r,
        hodge=KClass.trivial(r, 1),
        hodge_weight=-2,
        pushed=((KClass.zero(r), 1),),
    )
    res = hodge_product(inp)
    assert res.series == QSeries.q_power(r, 1, 2)
    assert res.limit == r.zero()


def test_hodge_product_divergent_rig():
    r, x = _line_setup()
    L = line_bundle(x)
    inp = LocInput(ring=r, hodge=KClass.zero(r), hodge_weight=1, pushed=((L, 1),))
    res = hodge_product(inp)
    assert not res.convergent
    assert res.limit is None
    assert res.relations == ((-2, -x), (-1, r.one()))


def test_loc_input_validation():
    r, x = _line_setup()
    with pytest.raises(ValueError):
        LocInput(ring=r, hodge=KClass.zero(r), hodge_weight=0, pushed=())
    with pytest.raises(ValueError):
        LocInput(
            ring=r, hodge=KClass.zero(r), hodge_weight=1, pushed=((KClass.zero(r), 0),)
        )
    chain = chain_solve([2, 2, 3])
    with pytest.raises(ValueError):
        LocInput(
            ring=r,
            hodge=KClass.zero(r),
            hodge_weight=1,
            pushed=((KClass.zero(r), 1),),
            chain=chain,
        )
    inp = LocInput.for_chain(
        r, KClass.zero(r), [KClass.zero(r)] * 3, chain
    )
    assert inp.hodge_weight == weight_sequence(chain)[3] == -12


def test_zero_weights_in_weighted_lists_are_rejected():
    # E, V and N enter through Euler classes, whose rank factor (kq)^rank
    # needs k != 0; T enters through Todd classes, where k = 0 is plain Td
    r, x = _line_setup()
    h, y = line_bundle(x), line_bundle(2 * x)
    with pytest.raises(ValueError):
        localization_product(h, 1, v=[(y, 0)], t=[], n=[])
    with pytest.raises(ValueError):
        localization_product(h, 1, v=[], t=[], n=[(y, 0)])
    with pytest.raises(ValueError):
        localization_product(h, 0, v=[], t=[], n=[])
    with pytest.raises(ValueError):
        crosscheck_factors(r, [(y, 0)])
    assert localization_product(h, 1, v=[], t=[(y, 0)], n=[]).series.q_max == r.q_max


def test_localization_product_smoke():
    r, _ = _line_setup()
    res = localization_product(
        KClass.trivial(r, 1), -1, v=[], t=[], n=[(KClass.trivial(r, 1), 1)]
    )
    assert res.series == QSeries.one(r)
    assert res.limit == r.one()
    res0 = localization_product(KClass.zero(r), 1, [], [], [])
    assert res0.series == QSeries.one(r)
    assert res0.limit == r.one()


def test_localization_normal_always_invertible():
    # the Euler class of any virtual bundle has a unit scalar part at
    # q^rank, so every normal datum in this model is invertible;
    # e_q of (rank 0, Ch_1 = x) is exp(x/q) = 1 + x/q at D = 1
    r, x = _line_setup()
    from chloc import equivariant_euler

    rank0 = KClass(r, 0, [x])
    res = localization_product(KClass.zero(r), 1, [], [], [(rank0, 1)])
    assert res.series.coefficient(0) == r.one()
    assert res.series.coefficient(-1) == -x
    assert res.series == equivariant_euler(rank0, 1).invert(res.series.q_max)
    assert (res.series * equivariant_euler(rank0, 1)).limit() == r.one()


def test_chain_specialization_matches_hodge_product():
    rng = Random(6006)
    for _ in range(25):
        ring = sample_ring(rng, max_truncation=3)
        n = rng.randint(1, 3)
        a_cl = [sample_kclass(rng, ring) for _ in range(n)]
        b_cl = [sample_kclass(rng, ring) for _ in range(n)]
        weights = [sample_weight(rng) for _ in range(n)]
        e_weight = sample_weight(rng)
        hodge = sample_kclass(rng, ring, rank_min=0, rank_max=3)
        hp = hodge_product(
            LocInput(
                ring=ring,
                hodge=hodge,
                hodge_weight=e_weight,
                pushed=tuple((a - b, k) for a, b, k in zip(a_cl, b_cl, weights)),
            )
        )
        gp = chain_specialization(
            hodge,
            e_weight,
            a_classes=list(zip(a_cl, weights)),
            b_classes=list(zip(b_cl, weights)),
        )
        assert hp.series == gp.series
        assert hp.convergent == gp.convergent


def test_product_order_irrelevant():
    rng = Random(17)
    ring = sample_ring(rng)
    items = [(sample_kclass(rng, ring), sample_weight(rng)) for _ in range(3)]
    base = hodge_product(
        LocInput(ring=ring, hodge=KClass.zero(ring), hodge_weight=1, pushed=tuple(items))
    )
    for perm in ([2, 0, 1], [1, 2, 0], [2, 1, 0]):
        other = hodge_product(
            LocInput(
                ring=ring,
                hodge=KClass.zero(ring),
                hodge_weight=1,
                pushed=tuple(items[i] for i in perm),
            )
        )
        assert base.series == other.series


# -- log-linear products against the plain products of their factors ----------


def _plain_localization(hodge, hodge_weight, v, t, n, target):
    """e(E) e(V) / e(N) * Td_q(T) / Td_q(V), multiplied factor by factor with
    QSeries.invert for both quotients."""
    ring = hodge.ring
    ranks = sum(abs(x.rank) for x, _ in [(hodge, 0)] + v + t + n)
    order = target + 2 * ring.truncation + ranks + 8
    out = equivariant_euler(hodge, -hodge_weight)
    normal = tv = QSeries.one(ring)
    for x, k in v:
        out = out * equivariant_euler(x, k)
        tv = tv * QSeries.constant(todd(x)) * todd_twist_ratio(x, k, order)
    for x, k in n:
        normal = normal * equivariant_euler(x, k)
    for x, k in t:
        out = out * QSeries.constant(todd(x)) * todd_twist_ratio(x, k, order)
    out = out * normal.invert(order) * tv.invert(order)
    assert out.q_max >= target
    return out.truncated(target)


def test_localization_product_matches_plain_product():
    # criterion-8 shapes with T != V, so the Todd quotient does not cancel
    rng = Random(8080)
    for _ in range(12):
        ring = sample_ring(rng, max_truncation=3)
        n = rng.randint(1, 3)
        ws = [sample_weight(rng) for _ in range(n)]
        a_cl = [(sample_kclass(rng, ring), k) for k in ws]
        b_cl = [(sample_kclass(rng, ring), k) for k in ws]
        t_cl = [(sample_kclass(rng, ring), sample_weight(rng)) for _ in range(rng.randint(1, 2))]
        hodge = sample_kclass(rng, ring, rank_min=0, rank_max=3)
        e_w = sample_weight(rng)
        target = rng.randint(0, ring.q_max)
        got = localization_product(hodge, e_w, v=b_cl, t=t_cl, n=a_cl, q_max=target)
        want = _plain_localization(hodge, e_w, b_cl, t_cl, a_cl, target)
        assert str(got.series) == str(want)


def test_crosscheck_sides_match_plain_products():
    rng = Random(5150)
    for _ in range(10):
        degs = [1] + [rng.randint(1, 2) for _ in range(rng.randint(0, 2))]
        ring = Ring(list(zip(["a", "b", "c"], degs)), rng.randint(1, 3), q_max=6)
        factors = [(sample_kclass(rng, ring, rank_min=0, rank_max=2), -sample_weight(rng))]
        for _ in range(rng.randint(0, 2)):
            factors.append((-sample_kclass(rng, ring), sample_weight(rng)))
        rep = crosscheck_factors(ring, factors)
        D = ring.truncation
        order = ring.q_max + 2 * D + 10 + sum(D + abs(x.rank) for x, _ in factors)
        euler = hirz = QSeries.one(ring)
        for x, k in factors:
            euler = euler * equivariant_euler(x, k)
            hirz = hirz * hirzebruch_class(q_exponential(ring, -k, order), x)
        assert hirz.q_max >= ring.q_max
        assert rep.side_euler == euler and rep.side_euler.is_exact
        assert str(rep.side_hirzebruch) == str(hirz.truncated(ring.q_max))


def test_crosscheck_convergent_instance():
    r, x = _line_setup()
    L = line_bundle(x)
    rep = tautological_crosscheck(
        LocInput(ring=r, hodge=KClass.zero(r), hodge_weight=-3, pushed=((-L, 1),))
    )
    assert rep.euler_convergent and rep.hirzebruch_convergent
    assert rep.limits_equal
    assert rep.limit_euler == x
    assert rep.passed


def test_crosscheck_divergent_rig():
    r, x = _line_setup()
    L = line_bundle(x)
    rep = tautological_crosscheck(
        LocInput(ring=r, hodge=KClass.zero(r), hodge_weight=1, pushed=((L, 1),))
    )
    assert not rep.euler_convergent and not rep.hirzebruch_convergent
    assert rep.limits_equal is None
    assert rep.span_euler_in_hirzebruch and rep.span_hirzebruch_in_euler
    assert rep.passed


def test_crosscheck_empty():
    r, _ = _line_setup()
    rep = tautological_crosscheck(
        LocInput(ring=r, hodge=KClass.zero(r), hodge_weight=1, pushed=())
    )
    assert rep.side_euler == QSeries.one(r)
    assert rep.side_hirzebruch == QSeries.one(r)
    assert rep.passed


def test_crosscheck_factors_direct():
    r = Ring([("x", 1)], 2)
    x = r.generator("x")
    rep = crosscheck_factors(r, [(-line_bundle(x), 1), (KClass.trivial(r, 2), -2)])
    assert rep.euler_convergent == rep.hirzebruch_convergent


def test_span_linear_algebra():
    r = Ring([("a", 1), ("b", 1)], 2)
    a, b = r.gens()
    va = (a + b)._num
    vb = (a - b)._num
    rows = _row_reduce([va, vb])
    assert _in_span((2 * a)._num, rows)
    assert _in_span({}, rows)
    assert not _in_span((a * b)._num, rows)
    rows2 = _row_reduce([va])
    assert not _in_span(a._num, rows2)


def _span_sweep_inputs():
    """300 draws shaped like acceptance criterion 7 and 200 sums of line
    bundles on (x:1; D=2..4), as (ring, factors)."""
    rng = Random(515151)
    for _ in range(300):
        degs = [1] + [rng.randint(1, 2) for _ in range(rng.randint(0, 2))]
        ring = Ring(list(zip(["a", "b", "c"], degs)), rng.randint(1, 4))
        n = rng.randint(0, 3)
        hodge = sample_kclass(rng, ring, rank_min=0, rank_max=2)
        hodge_weight = sample_weight(rng)
        pushed = [(sample_kclass(rng, ring), sample_weight(rng)) for _ in range(n)]
        yield ring, [(hodge, -hodge_weight)] + [(-x, k) for x, k in pushed]
    rng = Random(4242)
    for i in range(200):
        ring = Ring([("x", 1)], 2 + i % 3)
        x = ring.generator("x")
        factors = []
        for _ in range(rng.randint(1, 3)):
            roots = [x * rng.randint(-2, 2) for _ in range(rng.randint(1, 3))]
            cls = sum_of_roots(ring, roots)
            factors.append((cls if rng.random() < 0.5 else -cls, sample_weight(rng)))
        yield ring, factors


def test_spans_agree_with_fraction_oracle():
    """The integer span test gives the flags and failures of the Fraction
    echelon of tests/oracles.py on 500 seeded inputs."""
    divergent = failing = 0
    for ring, factors in _span_sweep_inputs():
        rep = crosscheck_factors(ring, factors)
        neg_e = rep.side_euler.negative_part()
        neg_h = rep.side_hirzebruch.negative_part()
        failures = []
        ok_eh = spans_contained("euler", neg_e, neg_h, ring.truncation, failures)
        ok_he = spans_contained("hirzebruch", neg_h, neg_e, ring.truncation, failures)
        assert (rep.span_euler_in_hirzebruch, rep.span_hirzebruch_in_euler) == (ok_eh, ok_he)
        assert rep.span_failures == tuple(failures)
        divergent += bool(neg_e or neg_h)
        failing += bool(failures)
    # both outcomes are exercised: 328 divergent inputs, 67 with failures
    assert divergent >= 300 and failing >= 60


def test_crosscheck_heap_stays_flat():
    """Warm crosscheck rounds do not grow the traced heap.  Combining
    denominators with lcm(*generator) resizes the argument tuple, which
    moves tuples between CPython's per-size free lists: on CPython 3.11 any
    one such call on this path grows the heap by 1.2-3.5 KiB per round,
    against 0.4 KiB without.  A full collection empties the free lists
    first, and the collector stays off so that none empties them while the
    growth is measured."""
    cases = list(islice(_span_sweep_inputs(), 5))  # criterion 7's first draws
    for i in (3, 8, 13, 18):
        ring = Ring([("x", 1)], 1 + i % 4)
        factors = [(-line_bundle(ring.generator("x") * (1 + i % 3)), (-1) ** i * (1 + i % 2))]
        if i % 2:
            factors.append((KClass.trivial(ring, i % 3), 1))
        cases.append((ring, factors))

    def rounds(n):
        for _ in range(n):
            for ring, factors in cases:
                crosscheck_factors(ring, factors)

    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        rounds(7)
        before = tracemalloc.get_traced_memory()[0]
        rounds(10)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
        gc.enable()
    assert grown < 10 * 1024, f"the heap grew {grown} bytes over 10 warm rounds"


def test_kernel_term_pairs_are_pinned(monkeypatch):
    """The series kernel's work on one fixed crosscheck and one fixed
    localization product, as term pairs: products of a monomial at q^e1 by
    one at q^e2 with e1 + e2 within the cutoff.  The Chow-degree-d part of
    exp is cut at D - d orders above the target; with the uniform cut at
    D + 1 orders above it the counts were 2346 and 2993.  Also the
    (exponent, monomial) terms of the argument's nilpotent parts, which are
    read to one regraded order: read to one order in q they were 128."""
    import chloc.charclasses
    import chloc.series

    pairs, terms = [0], [0]
    kernel, argument = chloc.series.multiply_accumulate, chloc.charclasses._argument

    def counting(table, acc, x, y, f=1, cutoff=None):
        for e1, xs in x.items():
            pairs[0] += sum(len(xs) * len(ys) for e2, ys in y.items()
                            if cutoff is None or e1 + e2 <= cutoff)
        kernel(table, acc, x, y, f, cutoff)

    def counting_terms(*args):
        scal, parts = argument(*args)
        terms[0] += sum(len(row) for num, _ in parts.values() for row in num.values())
        return scal, parts

    monkeypatch.setattr(chloc.series, "multiply_accumulate", counting)
    monkeypatch.setattr(chloc.charclasses, "_argument", counting_terms)
    rng = Random(19)
    ring = Ring([("a", 1), ("b", 1)], 4)
    x = [sample_kclass(rng, ring, rank_min=-2, rank_max=2) for _ in range(5)]
    crosscheck_factors(ring, [(x[0], 2), (-x[1], -1), (-x[2], 3)])
    crosscheck = pairs[0]
    localization_product(x[3], 2, [(x[1], -1)], [(x[4], 1)], [(x[2], 3), (x[0], -2)])
    assert (crosscheck, pairs[0] - crosscheck) == (1405, 2123)
    assert terms[0] == 103
