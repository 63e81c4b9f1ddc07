"""Localization products for Hodge-capped virtual classes.

Given a collection of K-theory classes with nonzero integer equivariant
weights, :func:`hodge_product` forms the exact Laurent polynomial

    e_{-k_{N+1} q}(E) * prod_j e_{k_j q}(-R_j),

splits off the coefficients of negative q-powers (the tautological
relations: classes that must vanish on the geometric side) and reports the
q -> 0 limit when there are none.

:func:`localization_product` is the general fixed-locus form

    e_{-k_E q}(E) * e(V) / e(N) * Td_q(T) / Td_q(V),

where each of V, T, N is a list of weighted classes and the equivariant
Todd class of a weighted class is Td(x (x) O(kq)).  Each product here is
one weighted product of :mod:`chloc.charclasses`, which forms its factors
and working order: e(N)^-1 = e(-N) exactly, and the Todd classes of T and
-V cancel exactly on the chain specialization T = V = (+)B_j,
N = (+)A_j.  That specialization reproduces ``hodge_product`` applied to
R_j = A_j - B_j.

:func:`tautological_crosscheck` compares the Euler-class side against the
Hirzebruch-class side at t = exp(-q): whether the sides converge together,
have the same limit, and whether each side's negative coefficients lie in
the span of the other's degree by degree, on any ring (a test stricter
than comparing the ideals they generate).  The span rows are read off each
side's store by Chow degree (``QSeries._split``), as integer rows keyed by
monomial index; no relation is built as a class.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd

from . import chains
from .charclasses import KClass, _weighted_product
from .rings import ChowElement, Ring, _content, _q_max_or, _require_int
from .series import QSeries

WeightedClass = tuple[KClass, int]


@dataclass(frozen=True)
class LocInput:
    """Input data for the chain-shaped localization product.

    ``pushed`` lists the classes R_j (the derived pushforwards) with their
    weights; the product uses -R_j.  ``hodge_weight`` is the last
    equivariant weight k_{N+1}, so the Hodge factor carries weight
    -hodge_weight.  When ``chain`` is attached the weights must follow its
    weight sequence.
    """

    ring: Ring
    hodge: KClass
    hodge_weight: int
    pushed: tuple[WeightedClass, ...]
    chain: chains.ChainData | None = None

    def __post_init__(self):
        object.__setattr__(self, "pushed", tuple(self.pushed))
        _require_int(hodge_weight=self.hodge_weight)
        if self.hodge.ring != self.ring:
            raise ValueError("ring mismatch for the Hodge class")
        if self.hodge_weight == 0:
            raise ValueError("weights must be nonzero")
        for r, k in self.pushed:
            _require_int(weight=k)
            if r.ring != self.ring:
                raise ValueError("ring mismatch in the pushed classes")
            if k == 0:
                raise ValueError("weights must be nonzero")
        if self.chain is not None:
            kw = chains.weight_sequence(self.chain)
            n = self.chain.n_variables
            if len(self.pushed) != n:
                raise ValueError("chain expects one pushed class per variable")
            if tuple(k for _, k in self.pushed) != kw[:n]:
                raise ValueError("weights do not follow the chain weight sequence")
            if self.hodge_weight != kw[n]:
                raise ValueError("Hodge weight does not match the chain")

    @classmethod
    def for_chain(
        cls, ring: Ring, hodge: KClass, pushed: list[KClass], chain: chains.ChainData
    ) -> "LocInput":
        kw = chains.weight_sequence(chain)
        return cls(
            ring=ring,
            hodge=hodge,
            hodge_weight=kw[chain.n_variables],
            pushed=tuple(zip(pushed, kw)),
            chain=chain,
        )


@dataclass(frozen=True)
class LocResult:
    """A localization product with its extracted relations and limit."""

    series: QSeries
    relations: tuple[tuple[int, ChowElement], ...]
    convergent: bool
    limit: ChowElement | None

    @classmethod
    def from_series(cls, series: QSeries) -> "LocResult":
        if series.q_max is not None and series.q_max < 0:
            raise ArithmeticError("series is not reliable at order 0")
        relations = tuple(series.negative_part())
        convergent = not relations
        return cls(
            series=series,
            relations=relations,
            convergent=convergent,
            limit=series.coefficient(0) if convergent else None,
        )


def _factors(inp: LocInput) -> list[WeightedClass]:
    """The Hodge class with weight -k_{N+1} and the negated pushed classes."""
    return [(inp.hodge, -inp.hodge_weight)] + [(-r, k) for r, k in inp.pushed]


def hodge_product(inp: LocInput) -> LocResult:
    """The exact Laurent product e_{-k_E q}(E) * prod_j e_{k_j q}(-R_j)."""
    return LocResult.from_series(_weighted_product(inp.ring, euler=_factors(inp)))


def localization_product(
    hodge: KClass,
    hodge_weight: int,
    v: list[WeightedClass],
    t: list[WeightedClass],
    n: list[WeightedClass],
    q_max: int | None = None,
) -> LocResult:
    """General fixed-locus product with explicit bundle data.

    ``v`` and ``t`` enter through equivariant Euler and Todd factors, ``n``
    (the normal data) through an inverted Euler factor: one weighted
    product of the Euler classes E, V and -N and the Todd classes T and -V,
    less each entry of T equal to one of V, whose Todd classes cancel.
    """
    ring = hodge.ring
    target = _q_max_or(q_max, ring.q_max)
    euler = [(hodge, -hodge_weight), *v, *((-x, k) for x, k in n)]
    todd, v_left = [], list(v)
    for w in t:  # an entry of T equal to one of V cancels that V's Todd class
        (v_left.remove if w in v_left else todd.append)(w)
    todd += [(-x, k) for x, k in v_left]
    return LocResult.from_series(_weighted_product(ring, target, euler=euler, todd=todd))


def chain_specialization(
    hodge: KClass,
    hodge_weight: int,
    a_classes: list[WeightedClass],
    b_classes: list[WeightedClass],
    q_max: int | None = None,
) -> LocResult:
    """The chain-shaped case of :func:`localization_product`:
    T = V = the B-resolvents, N = the A-resolvents."""
    return localization_product(
        hodge, hodge_weight, v=b_classes, t=b_classes, n=a_classes, q_max=q_max
    )


@dataclass(frozen=True)
class TautrelReport:
    """Comparison of the Euler side against the Hirzebruch side."""

    side_euler: QSeries
    side_hirzebruch: QSeries
    euler_convergent: bool
    hirzebruch_convergent: bool
    limit_euler: ChowElement | None
    limit_hirzebruch: ChowElement | None
    span_euler_in_hirzebruch: bool
    span_hirzebruch_in_euler: bool
    span_failures: tuple[tuple[str, int, int], ...] = field(default=())

    @property
    def convergence_consistent(self) -> bool:
        return self.euler_convergent == self.hirzebruch_convergent

    @property
    def limits_equal(self) -> bool | None:
        if self.limit_euler is None or self.limit_hirzebruch is None:
            return None
        return self.limit_euler == self.limit_hirzebruch

    @property
    def passed(self) -> bool:
        if not self.convergence_consistent:
            return False
        if self.limits_equal is False:
            return False
        return self.span_euler_in_hirzebruch and self.span_hirzebruch_in_euler


def tautological_crosscheck(inp: LocInput, q_max: int | None = None) -> TautrelReport:
    """Compare the two multiplicative sides of the localization product.

    The factors are those of :func:`hodge_product`: the Hodge class with
    weight -k_{N+1} and the negated pushed classes with their weights.
    """
    return crosscheck_factors(inp.ring, _factors(inp), q_max)


def crosscheck_factors(
    ring: Ring, factors: list[WeightedClass], q_max: int | None = None
) -> TautrelReport:
    """Compare prod e_{k q}(X) against prod c_{exp(-k q)}(X) for weighted
    classes X.

    The report records whether the sides converge together, whether the
    limits agree, and whether each side's negative coefficients lie in the
    rational span of the other's within each fixed Chow degree.
    """
    target = _q_max_or(q_max, ring.q_max)
    # both sides have the rank factor prod (kq)^rank
    side_a = _weighted_product(ring, euler=factors)
    side_b = _weighted_product(ring, target, hirzebruch=factors)

    conv_a, conv_b = side_a.is_convergent, side_b.is_convergent
    lim_a = side_a.coefficient(0) if conv_a else None
    lim_b = side_b.coefficient(0) if conv_b else None

    neg_a, neg_b = _relation_rows(side_a), _relation_rows(side_b)
    failures: list[tuple[str, int, int]] = []
    ok_ab = _spans_contained("euler", neg_a, neg_b, failures)
    ok_ba = _spans_contained("hirzebruch", neg_b, neg_a, failures)

    return TautrelReport(
        side_euler=side_a,
        side_hirzebruch=side_b,
        euler_convergent=conv_a,
        hirzebruch_convergent=conv_b,
        limit_euler=lim_a,
        limit_hirzebruch=lim_b,
        span_euler_in_hirzebruch=ok_ab,
        span_hirzebruch_in_euler=ok_ba,
        span_failures=tuple(failures),
    )


# -- exact linear algebra over the monomial basis ------------------------------


def _relation_rows(side: QSeries) -> dict[int, list[tuple[int, dict[int, int]]]]:
    """The nonzero degree-d parts of the coefficients at q^e, e < 0, as
    {d: [(e, row)]} ascending in e: the series cut below q^0, split by
    ``QSeries._split``, whose degree-d part holds the q^e coefficient at
    r = e + d.  Each degree is scaled by its own content, which keeps every
    span."""
    scal, nil = side.truncated(-1)._split()
    return {d: [(r - d, num[r]) for r in sorted(num)]
            for d, (num, _) in [(0, scal), *nil.items()] if num}


def _spans_contained(tag, src, dst, failures) -> bool:
    """Whether each relation row of ``src`` lies in the span of the rows of
    ``dst`` of its degree; each one that does not adds (tag, e, d) to
    ``failures``, by ascending d, then e."""
    ok = True
    for d in sorted(src):
        rows = _row_reduce([row for _, row in dst.get(d, ())])
        for e, row in src[d]:
            if not _in_span(row, rows):
                failures.append((tag, e, d))
                ok = False
    return ok


def _row_reduce(vectors: list[dict[int, int]]) -> list[tuple[int, dict[int, int]]]:
    """Greedy row echelon form of integer rows {monomial index: numerator}
    (denominators dropped: scaling keeps a span), pivots the smallest index."""
    rows: list[tuple[int, dict[int, int]]] = []
    for vec in vectors:
        if v := _reduce_against(vec, rows):
            rows.append((min(v), v))
    return rows


def _reduce_against(v: dict[int, int], rows: list[tuple[int, dict[int, int]]]) -> dict[int, int]:
    """v cleared at each pivot without modifying v, fraction-free: v <- (p/g) v - (c/g) row
    for p = row[pivot], c = v[pivot], g = gcd(p, c), then v over its content."""
    for pivot, row in rows:
        c = v.get(pivot)
        if c:
            g = gcd(row[pivot], c)
            p, c = row[pivot] // g, c // g
            v = {m: s for m in v.keys() | row.keys() if (s := p * v.get(m, 0) - c * row.get(m, 0))}
            g = _content(0, (v.values(),))
            if g > 1:
                v = {m: x // g for m, x in v.items()}
    return v


def _in_span(v: dict[int, int], rows: list[tuple[int, dict[int, int]]]) -> bool:
    return not _reduce_against(v, rows)
