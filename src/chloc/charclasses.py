"""Characteristic classes of virtual bundles via Chern characters.

A :class:`KClass` is a K-theory class on a truncated Chow ring: an integer
(possibly negative) rank together with the Chern characters Ch_1..Ch_D.

Every class here is multiplicative and log-linear (Hirzebruch's
multiplicative sequences): it is a rank factor times

    exp(sum_{l>=0} phi_l(q) * Ch_l(X)),    Ch_0 = rank,

for a table of scalar Laurent series phi_l.  A product of classes is the
product of the rank factors times one exp of the summed arguments, and
e(X)^-1 = e(-X).  The tables are

* Todd class Td(X): phi_l = -B_l(0)/l, rank factor 1;
* Hirzebruch class c_t(X) = Ch(lambda_{-t} X^v) * Td(X), for rational
  t != 1 or a series t such as exp(-kq): phi_l = -s_l(t), rank factor
  (1-t)^rank;
* equivariant Euler class e_{kq}(X), a finite Laurent polynomial with an
  integer weight k: phi_l = -(l-1)!/(-kq)^l, rank factor (kq)^rank;
* Todd twist ratio Td(X (x) O(kq)) / Td(X) for a formal line bundle of
  first Chern class kq: phi_j = -sum_{n>=1} B_{n+j}(0)/(n+j) (kq)^n/n!,
  rank factor 1.

The comparison identity e_{kq}(X) = c_{exp(-kq)}(X) * Td(X (x) O(kq))/Td(X)
is checked in this form: the rank factors on the right multiply to
(1-e^{-kq})^rank (kq/(1-e^{-kq}))^rank = (kq)^rank, so the right side is
(kq)^rank times one exp of the Hirzebruch and twist arguments.

Each row phi_l is a :class:`~chloc.series.ScalarSeries` (integer numerators
over one denominator), built on the integer scalar kernels.  At t = exp(-kq)
the Hirzebruch table needs no series t: its u = t/(1-t) is 1/(e^{kq}-1) =
sum_n B_n(0) k^{n-1} q^{n-1}/n!, taken up to q^{order+D+1} and fed to the
same Stirling sum as for any other t.  The tables depend only on integers
such as (k, D, order), so each is built once and memoised (bounded caches,
filled on first use) as a read-only mapping of immutable rows.  Ch_l is
homogeneous of degree l, so sum_x phi_l^x(q) Ch_l(x) is the Chow-degree-l
part of a summed argument, one integer accumulate handed to the graded exp
of :mod:`chloc.series` with no split into degrees.

Bernoulli values follow the B_1(0) = -1/2 convention (Bernoulli polynomial
at 0), which is the one compatible with Td(L) = c_1 / (1 - exp(-c_1)).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, lcm, prod
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, Sequence

from .rings import ChowElement, Ring, common_den
from .series import (
    Part,
    QSeries,
    ScalarSeries,
    _exp,
    compute_at_precision,
    scalar_invert,
    scalar_mul,
    scalar_pow,
)

# l -> phi_l, the scalar Laurent series multiplying Ch_l (Ch_0 is the rank)
Table = Mapping[int, ScalarSeries]
# Tables kept per memoised table builder.  Distinct (k, D, order[, first])
# keys per process: 11-13 in each benchmark workload, 145 (acceptance
# criterion 1) and 165 (criterion 7), and 326 t = exp(-kq) tables and 433
# Todd and twist tables for the whole test suite; a table is about 6 KB.
_TABLE_CACHE = 1024


@lru_cache(maxsize=None)
def bernoulli(l: int) -> Fraction:
    """B_l(0), the l-th Bernoulli polynomial at 0 (so B_1 = -1/2)."""
    if l < 0:
        raise ValueError("Bernoulli index must be non-negative")
    if l == 0:
        return Fraction(1)
    s = sum(Fraction(comb(l + 1, j)) * bernoulli(j) for j in range(l))
    return -s / (l + 1)


@lru_cache(maxsize=None)
def stirling2(l: int, k: int) -> int:
    """Stirling number of the second kind: l! times the z^l coefficient of
    (exp(z) - 1)^k / k!.  Vanishes for k > l."""
    if l < 0 or k < 0:
        raise ValueError("indices must be non-negative")
    if l == k == 0:
        return 1
    if l == 0 or k == 0 or k > l:
        return 0
    return k * stirling2(l - 1, k) + stirling2(l - 1, k - 1)


def _hirzebruch_table(t, D: int) -> tuple[Table, int | None, ScalarSeries]:
    """c_t: phi_l = -s_l(t) (see :func:`hirzebruch_coefficient`) through the
    powers of u = t/(1-t); the order it is reliable to (None for rational
    t); and 1 - t, the root of the rank factor."""
    if isinstance(t, QSeries):
        if t.q_max is None:
            raise ValueError("formal t must carry a finite truncation order")
        (data, nil), order = t._split(), t.q_max
        one_minus = ScalarSeries.reduced({e: -v for e, v in data.num.items() if e}, data.den)
        if nil or data.get(0) != 1 or min(one_minus.num, default=0) != 1:
            raise ValueError("formal t must be a scalar 1 + O(q) with an invertible q-term")
        u = scalar_mul(data, scalar_invert(one_minus, order), order)
        valid = order - 1 - D
    else:
        t = Fraction(t)
        if t == 1:
            raise ValueError("the Hirzebruch class is undefined at t = 1")
        one_minus, u = ScalarSeries.of({0: 1 - t}), ScalarSeries.of({0: t / (1 - t)})
        order = valid = None
    return _stirling_rows(u, D, order), valid, one_minus


def _stirling_rows(u: ScalarSeries, D: int, cutoff: int | None) -> dict[int, ScalarSeries]:
    """phi_l = -s_l(t) for l = 1..D, each on one denominator, from the
    powers of u = t/(1-t) cut at q^cutoff:
    s_l(t) = B_l(0)/l + (-1)^l sum_{k=1}^{l} (k-1)! S(l, k) u^k."""
    powers = [ScalarSeries({0: 1}), u]
    for k in range(2, D + 1):
        powers.append(scalar_mul(powers[k - 1], u, cutoff))
    rows = {}
    for l in range(1, D + 1):
        b = bernoulli(l) / l
        den = lcm(b.denominator, common_den(p.den for p in powers[1 : l + 1]))
        num = {0: -b.numerator * (den // b.denominator)}
        for k in range(1, l + 1):
            f = (-1) ** (l + 1) * factorial(k - 1) * stirling2(l, k) * (den // powers[k].den)
            for e, v in powers[k].num.items():
                num[e] = num.get(e, 0) + f * v
        rows[l] = ScalarSeries.reduced(num, den)
    return rows


def hirzebruch_coefficient(l: int, t):
    """The coefficient s_l(t) of -Ch_l in the exponential form of the
    Hirzebruch class:

        s_l(t) = B_l(0)/l + (-1)^l sum_{k=1}^{l} (k-1)! (t/(1-t))^k S(l,k).

    ``t`` is either an exact rational (t != 1) or a series in q such as
    exp(-q), in which case the result is a Laurent series in q.
    """
    if l < 1:
        raise ValueError("index must be positive")
    table, valid, _ = _hirzebruch_table(t, l)
    s = -table[l]
    if isinstance(t, QSeries):
        return QSeries.from_scalars(t.ring, s, valid)
    return s.get(0, Fraction(0))


# -- argument tables ---------------------------------------------------------------


@lru_cache(maxsize=_TABLE_CACHE)
def _euler_table(weight: int, D: int, order: int | None = None) -> Table:
    """e_{kq}: phi_l = -(l-1)!/(-k q)^l, exact at every order.  Memoised,
    read-only."""
    return MappingProxyType({
        l: ScalarSeries.of([(-l, Fraction(-factorial(l - 1), (-weight) ** l))])
        for l in range(1, D + 1)
    })


@lru_cache(maxsize=_TABLE_CACHE)
def _todd_table(weight: int, D: int, order: int, first: int = 0) -> Table:
    """phi_j = -sum_{n=first}^{order} B_{n+j}(0)/(n+j) (kq)^n/n! over n+j >= 1:
    the equivariant Todd class Td(x (x) O(kq)) for first = 0, the twist
    ratio Td(x (x) O(kq)) / Td(x) for first = 1.  Memoised, read-only."""
    table = {}
    for j in range(D + 1):
        phi = ScalarSeries.of(
            (n, -bernoulli(n + j) / (n + j) * Fraction(weight) ** n / factorial(n))
            for n in range(max(first, 1 - j), order + 1)
        )
        if phi:
            table[j] = phi
    return MappingProxyType(table)


def _twist_table(weight: int, D: int, order: int) -> Table:
    """The Todd twist ratio Td(x (x) O(kq)) / Td(x)."""
    return _todd_table(weight, D, order, 1)


def _reciprocal_expm1(weight: int, cutoff: int) -> ScalarSeries:
    """u = t/(1-t) at t = exp(-kq), that is 1/(e^{kq}-1) =
    sum_{n>=0} B_n(0) k^{n-1} q^{n-1}/n!, exact up to q^cutoff."""
    k = Fraction(weight)
    terms = ((n - 1, bernoulli(n) * k ** (n - 1) / factorial(n)) for n in range(cutoff + 2))
    return ScalarSeries.of(terms)


@lru_cache(maxsize=_TABLE_CACHE)
def _exp_hirzebruch_table(weight: int, D: int, order: int) -> Table:
    """The table of c_t at t = exp(-kq) for the rank factor (kq)^rank, up
    to ``order``: besides phi_l = -s_l(t) it has the rank row
    phi_0 = log((1 - exp(-kq))/(kq)) = sum_n B_n(0)/n (kq)^n/n!, which is
    minus the rank row of the twist table.

    The rows phi_l are the Stirling sums of :func:`_stirling_rows` over the
    powers of the Bernoulli series u = 1/(e^{kq}-1), cut at q^{order+D+1}
    as the powers of u lose up to D + 1 orders.  Memoised per (k, D, order),
    read-only."""
    cutoff = order + D + 1
    rows = _stirling_rows(_reciprocal_expm1(weight, cutoff), D, cutoff)
    table = {l: ScalarSeries.reduced({e: v for e, v in phi.num.items() if e <= order}, phi.den)
             for l, phi in rows.items()}
    table[0] = -_twist_table(weight, D, order).get(0, ScalarSeries({}))
    return MappingProxyType(table)


def _euler_rank(weighted: Iterable[tuple["KClass", int]]) -> ScalarSeries:
    """prod (k q)^rank, the rank factor of a product of Euler classes."""
    weighted = list(weighted)
    if any(int(k) == 0 for _, k in weighted):
        raise ValueError("equivariant weight must be nonzero")
    rho = sum(x.rank for x, _ in weighted)
    return ScalarSeries.of({rho: prod(Fraction(k) ** x.rank for x, k in weighted)})


def _by_weight(weighted: Iterable[tuple["KClass", int]]) -> dict[int, "KClass"]:
    """The sum of the classes of each weight: a log-linear argument is
    additive in the class."""
    out: dict[int, KClass] = {}
    for x, k in weighted:
        k = int(k)
        out[k] = out[k] + x if k in out else x
    return out


def _argument(
    ring: Ring, terms: Iterable[tuple["KClass", Table]], q_max: int | None = None
) -> tuple[ScalarSeries, dict[int, Part]]:
    """sum over (x, table) of sum_l phi_l(q) * Ch_l(x), with Ch_0 = rank,
    dropping exponents above q_max, as its scalar part (the rank rows) and
    its nonzero Chow-degree-l parts (the rows phi_l against Ch_l), in the
    form the graded exp takes.  Each part is one integer accumulate
    acc[e][i] += f * v * a of row and Chow numerators on one denominator."""
    by_degree: dict[int, list[tuple[ScalarSeries, ChowElement]]] = {}
    for x, table in terms:
        if x.ring != ring:
            raise ValueError("ring mismatch")
        for l, phi in table.items():
            c = ring.const(x.rank) if l == 0 else x.chern_character(l)
            if phi and c:
                by_degree.setdefault(l, []).append((phi, c))
    parts: dict[int, Part] = {}
    for l, items in by_degree.items():
        den = common_den(phi.den * c._den for phi, c in items)
        acc: dict[int, dict[int, int]] = {}
        for phi, c in items:
            f = den // (phi.den * c._den)
            for e, v in phi.num.items():
                if q_max is None or e <= q_max:
                    out, fv = acc.setdefault(e, {}), f * v
                    for i, a in c._num.items():
                        out[i] = out.get(i, 0) + fv * a
        acc = {e: nz for e, row in acc.items() if (nz := {i: v for i, v in row.items() if v})}
        if acc:
            parts[l] = (acc, den)
    num, den = parts.pop(0, ({}, 1))
    return ScalarSeries.reduced({e: row[0] for e, row in num.items()}, den), parts


def _log_linear(ring: Ring, terms: Iterable[tuple["KClass", Table]], q_max: int | None = None,
                order: int | None = None, rank: ScalarSeries | None = None) -> QSeries:
    """The multiplicative class rank * exp(A) for the argument A of
    :func:`_argument` (reliable up to q_max, None: exact), with exp(A)
    reliable up to ``order`` at most.  The coefficients of A at q^0 and at
    poles must be nilpotent; ``rank`` is an exact scalar series (None
    stands for 1)."""
    return _exp(ring, *_argument(ring, terms, q_max), q_max, order, rank)


def _euler_product(ring: Ring, weighted: list[tuple["KClass", int]]) -> QSeries:
    """prod e_{kq}(x) over weighted classes, exact: prod (kq)^rank times
    one exp of the Euler arguments, the classes of each weight merged."""
    rank = _euler_rank(weighted)
    merged = _by_weight(weighted)
    return _log_linear(
        ring, [(x, _euler_table(k, ring.truncation)) for k, x in merged.items()], rank=rank
    )


def _log_linear_to(
    ring: Ring,
    weighted: list[tuple["KClass", int]],
    terms: list[tuple["KClass", int, Callable[..., Table]]],
    target: int,
) -> QSeries:
    """The rank factor prod (kq)^rank over ``weighted`` times exp(sum over
    (x, k, table) of the argument of x in table(k, D, order)), reliable up
    to ``target``.

    This is where every working order comes from.  The rank factor is
    c q^rho, so the exp must be reliable to target - rho; exp loses D + 1
    orders below its poles, so each table is built to target - rho + D + 1.
    """
    D = ring.truncation
    rank = _euler_rank(weighted)
    (rho,) = rank

    def at(order: int) -> QSeries:
        args = [(x, table(k, D, order)) for x, k, table in terms]
        return _log_linear(ring, args, order, target - rho, rank)

    return compute_at_precision(at, target, D + 1 - rho)


class KClass:
    """A virtual bundle: integer rank plus Chern characters Ch_1..Ch_D.

    Each Ch_l is homogeneous of degree l (or zero).  Addition is
    componentwise, since the Chern character is additive.
    """

    __slots__ = ("ring", "rank", "ch")

    def __init__(self, ring: Ring, rank: int, ch: Sequence[ChowElement] = ()):
        D = ring.truncation
        padded = list(ch)
        if len(padded) > D:
            for extra in padded[D:]:
                if not extra.is_zero:
                    raise ValueError("Chern character beyond the truncation order")
            padded = padded[:D]
        while len(padded) < D:
            padded.append(ring.zero())
        for l, c in enumerate(padded, start=1):
            if c.ring != ring:
                raise ValueError("ring mismatch")
            if not c.is_homogeneous(l):
                raise ValueError(f"Ch_{l} must be homogeneous of degree {l}")
        self.ring = ring
        self.rank = int(rank)
        self.ch = tuple(padded)

    @classmethod
    def zero(cls, ring: Ring) -> "KClass":
        return cls(ring, 0)

    @classmethod
    def trivial(cls, ring: Ring, rank: int) -> "KClass":
        return cls(ring, rank)

    def chern_character(self, l: int) -> ChowElement:
        """Ch_l for l >= 1 (zero above the truncation order)."""
        if l < 1:
            raise ValueError("use .rank for Ch_0")
        if l > len(self.ch):
            return self.ring.zero()
        return self.ch[l - 1]

    def __add__(self, other: "KClass") -> "KClass":
        if not isinstance(other, KClass):
            return NotImplemented
        if self.ring != other.ring:
            raise ValueError("ring mismatch")
        return KClass(
            self.ring,
            self.rank + other.rank,
            [a + b for a, b in zip(self.ch, other.ch)],
        )

    def __neg__(self) -> "KClass":
        return KClass(self.ring, -self.rank, [-c for c in self.ch])

    def __sub__(self, other: "KClass") -> "KClass":
        return self + (-other)

    def dual(self) -> "KClass":
        """The dual class: Ch_l changes sign for odd l."""
        return KClass(
            self.ring,
            self.rank,
            [c if l % 2 == 0 else -c for l, c in enumerate(self.ch, start=1)],
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, KClass):
            return NotImplemented
        return (
            self.ring == other.ring
            and self.rank == other.rank
            and self.ch == other.ch
        )

    __hash__ = None

    def __repr__(self) -> str:
        chs = ", ".join(f"Ch_{l}={c}" for l, c in enumerate(self.ch, 1) if not c.is_zero)
        return f"<KClass rank={self.rank}" + (f" {chs}>" if chs else ">")


def line_bundle(alpha: ChowElement) -> KClass:
    """The line bundle with first Chern class alpha: Ch_l = alpha^l / l!."""
    if not (alpha.is_zero or alpha.is_homogeneous(1)):
        raise ValueError("first Chern class must be homogeneous of degree 1")
    ring = alpha.ring
    ch = []
    power = ring.one()
    for l in range(1, ring.truncation + 1):
        power = power * alpha
        ch.append(power * Fraction(1, factorial(l)))
    return KClass(ring, 1, ch)


def sum_of_roots(ring: Ring, alphas: Iterable[ChowElement]) -> KClass:
    """The bundle with the given Chern roots: a sum of line bundles."""
    out = KClass.zero(ring)
    for a in alphas:
        out = out + line_bundle(a)
    return out


def todd(x: KClass) -> ChowElement:
    """Todd class, exp(-sum_{l>=1} B_l(0)/l * Ch_l(x)); Td(L) = 1 + c/2 + c^2/12 + ..."""
    table = _todd_table(0, x.ring.truncation, 0)
    return _log_linear(x.ring, [(x, table)]).coefficient(0)


def hirzebruch_class(t, x: KClass, q_max: int | None = None):
    """The multiplicative class Ch(lambda_{-t} x^v) * Td(x).

    For exact rational t != 1 the result is a Chow class
    (1-t)^rank * exp(-sum_l s_l(t) Ch_l); for a series t = exp(-k*q) it is
    a Laurent series in q (``q_max`` caps the output order below t's own,
    which saves work when the caller needs fewer coefficients than the
    working order of t supports).  On a line bundle with root a it equals
    (exp(a) - t) / (exp(a) - 1) * a.
    """
    ring = x.ring
    formal = isinstance(t, QSeries)
    if formal and t.ring != ring:
        raise ValueError("ring mismatch")
    table, valid, one_minus = _hirzebruch_table(t, ring.truncation)
    if not formal:
        rank = ScalarSeries.of({0: one_minus[0] ** x.rank})
        return _log_linear(ring, [(x, table)], rank=rank).coefficient(0)
    order = t.q_max
    out_order = order if q_max is None else min(int(q_max), order)
    if x.rank >= 0:
        rank_data, rank_valid = scalar_pow(one_minus, x.rank, out_order), out_order
    else:
        rank_data = scalar_pow(scalar_invert(one_minus, order), -x.rank, out_order)
        rank_valid = min(order - 1 + x.rank, out_order)
    rank = QSeries.from_scalars(ring, rank_data, rank_valid)
    return rank * _log_linear(ring, [(x, table)], valid, out_order)


def equivariant_euler(x: KClass, weight: int) -> QSeries:
    """Equivariant Euler class with q scaled by the integer weight:

        e_{k q}(x) = (k q)^rank * exp(-sum_l (l-1)!/(-k q)^l Ch_l(x)).

    An exact Laurent polynomial; on a bundle with roots a_i it equals
    prod_i (k q + a_i), and it is multiplicative in x.
    """
    return _euler_product(x.ring, [(x, weight)])


def todd_twist_ratio(x: KClass, weight: int, q_max: int | None = None) -> QSeries:
    """Td(x (x) O(k q)) / Td(x) for a formal line bundle of first Chern
    class k*q, computed through the twisted Chern characters

        Ch_l(x (x) O(w)) = sum_{j<=l} Ch_j(x) w^{l-j} / (l-j)!.

    Equals exp(-sum_{j>=0, l>j} B_l(0)/l * (k q)^{l-j}/(l-j)! * Ch_j(x));
    for a trivial line it is k q / (1 - exp(-k q)) = 1 + kq/2 + (kq)^2/12 - ...
    """
    ring = x.ring
    target = ring.q_max if q_max is None else int(q_max)
    weight = int(weight)
    if weight == 0 or target < 1:
        return QSeries.one(ring).truncated(max(target, 0))
    table = _twist_table(weight, ring.truncation, target)
    return _log_linear(ring, [(x, table)], target, target)


@dataclass(frozen=True)
class IdentityCheck:
    """Outcome of the Euler / Hirzebruch-Todd comparison."""

    equal: bool
    lhs: QSeries
    rhs: QSeries
    difference: QSeries


def euler_identity_check(
    x: KClass, weight: int, q_max: int | None = None
) -> IdentityCheck:
    """Check  e_{kq}(x) = c_{exp(-kq)}(x) * Td(x (x) O(kq))/Td(x)  up to the
    requested order; the difference series witnesses a failure.

    The right side is (kq)^rank * exp(A + B) for the Hirzebruch argument A
    at t = exp(-kq) and the twist argument B, whose rank rows cancel: the
    two rank factors multiply to (kq)^rank exactly."""
    weight = int(weight)
    ring = x.ring
    target = ring.q_max if q_max is None else int(q_max)
    lhs = equivariant_euler(x, weight)
    terms = [(x, weight, _exp_hirzebruch_table), (x, weight, _twist_table)]
    rhs = _log_linear_to(ring, [(x, weight)], terms, target)
    diff = (lhs - rhs).truncated(target)
    return IdentityCheck(equal=diff.is_zero, lhs=lhs, rhs=rhs, difference=diff)
