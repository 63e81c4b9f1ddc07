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

Every product of weighted classes (x, k) goes through one entry,
:func:`_weighted_product`, which takes four factor kinds: Euler classes
e_{kq}(x), Hirzebruch classes c_{exp(-kq)}(x), equivariant Todd classes
Td(x (x) O(kq)) and twist ratios Td(x (x) O(kq))/Td(x).  Only the Euler
and Hirzebruch kinds carry the rank factor (kq)^rank, so only they need a
nonzero weight.  A product of Euler classes alone is an exact Laurent
polynomial; given a ``target`` order, the entry picks the working order
at which the product is reliable up to q^target.

Rows live in the regraded frame of :mod:`chloc.series`: row l is the power
series psi_l = q^l phi_l, a scalar series: the :data:`~chloc.rings.Part`
on monomial index 0 (integer numerators over one denominator).  Euler rows
are the constants (-1)^(l+1) (l-1)!; the Hirzebruch rows at every t are one
Stirling sum over the powers of w = q t/(1-t), which is
sum_n B_n(0) q^n/n! at t = exp(-q).
At weight k, phi_l(kq) scales the coefficient of psi_l at q^r by k^(r-l),
so each kind keeps one store of weight-1 rows, built on first use and
rebuilt when a call needs a larger D or order (row l does not depend on D,
and a row at a lower order is a prefix of one at a higher order).  Ch_l is
homogeneous of degree l, so sum_x psi_l^x Ch_l(x) is the regraded
Chow-degree-l part of a summed argument: one integer accumulate, read to
the one regraded order of the graded exp of :mod:`chloc.series`.

Bernoulli values follow the B_1(0) = -1/2 convention (Bernoulli polynomial
at 0), which is the one compatible with Td(L) = c_1 / (1 - exp(-c_1)).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from math import comb, factorial, inf, lcm, prod
from typing import Callable, Iterable, Sequence

from .rings import ChowElement, Part, Ring, _q_max_or, _require_int, common_den, mul_parts
from .rings import power, reduce_part
from .series import QSeries, _exp, _order, compute_at_precision, scalar_invert, scalar_series

# psi_0..psi_D, psi_l = q^l phi_l for the series phi_l multiplying Ch_l (Ch_0 = rank)
Rows = tuple[Part, ...]

_ZERO: Part = ({}, 1)
_SCALARS = Ring([], 0)._mono  # the monomial table of scalar products (index 0 only)


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


def _hirzebruch_table(t, D: int) -> tuple[Rows, int | None, Part]:
    """c_t: psi_l = -q^l s_l(t) (see :func:`hirzebruch_coefficient`) through
    the powers of w = q t/(1-t); the order the phi_l are reliable to (None
    for rational t); and 1 - t, the root of the rank factor."""
    if isinstance(t, QSeries):
        if t.q_max is None:
            raise ValueError("formal t must carry a finite truncation order")
        ((num, den), nil), order = t._split(), t.q_max
        one_minus = reduce_part({e: {0: -row[0]} for e, row in num.items() if e}, den)
        if nil or num.get(0) != {0: den} or min(one_minus[0], default=0) != 1:
            raise ValueError("formal t must be a scalar 1 + O(q) with an invertible q-term")
        # (1 - t)/q and so w are known to q^(order - 1)
        over_q = {e - 1: row for e, row in one_minus[0].items()}, one_minus[1]
        w = mul_parts(_SCALARS, (num, den), scalar_invert(over_q, order - 1), order - 1)
        return _stirling_rows(w, D, order - 1), order - 1 - D, one_minus
    t = Fraction(t)
    if t == 1:
        raise ValueError("the Hirzebruch class is undefined at t = 1")
    w, one_minus = scalar_series([(1, t / (1 - t))]), scalar_series([(0, 1 - t)])
    return _stirling_rows(w, D, None), None, one_minus


def _stirling_rows(w: Part, D: int, cutoff: int | None) -> Rows:
    """psi_0 = 0 and psi_l = -q^l s_l(t) for l = 1..D, each on one
    denominator in ascending exponent order and cut at q^cutoff (None keeps
    all), from the powers of the power series w = q t/(1-t):
    q^l s_l(t) = B_l(0)/l q^l + (-1)^l sum_{k=1}^{l} (k-1)! S(l, k) q^(l-k) w^k."""
    powers = [_ZERO, w]  # powers[k] = w^k for k >= 1
    for k in range(2, D + 1):
        powers.append(mul_parts(_SCALARS, powers[k - 1], w, cutoff))
    rows = [_ZERO]
    for l in range(1, D + 1):
        b = bernoulli(l) / l
        den = lcm(b.denominator, common_den(p[1] for p in powers[1 : l + 1]))
        num = {l: -b.numerator * (den // b.denominator)}
        for k in range(1, l + 1):
            f = (-1) ** (l + 1) * factorial(k - 1) * stirling2(l, k) * (den // powers[k][1])
            for e, row in powers[k][0].items():
                num[e + l - k] = num.get(e + l - k, 0) + f * row[0]
        kept = sorted((e, v) for e, v in num.items() if cutoff is None or e <= cutoff)
        rows.append(reduce_part({e: {0: v} for e, v in kept}, den))
    return tuple(rows)


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
    if isinstance(t, QSeries):
        return -QSeries._raw(t.ring, table[l], None).shifted(-l).truncated(valid)
    num, den = table[l]
    return Fraction(-num[l][0], den) if l in num else Fraction(0)


# -- argument rows ----------------------------------------------------------------


class _RowStore:
    """The weight-1 rows of one kind, built by ``build(D, order)`` on first
    use and rebuilt at the larger size when a call asks for a larger D or
    order; a call gets the rows psi_0..psi_D."""

    def __init__(self, build: Callable[[int, int], Rows]):
        self.build, self.D, self.order, self.rows = build, -1, -1, ()

    def __call__(self, D: int, order: int = 0) -> Rows:
        if D > self.D or order > self.order:
            self.D, self.order = max(D, self.D), max(order, self.order)
            self.rows = self.build(self.D, self.order)
        return self.rows[: D + 1]


def _euler_rows(D: int, order: int) -> Rows:
    """e_q: phi_l = -(l-1)!/(-q)^l, so psi_l = (-1)^(l+1) (l-1)!, a constant
    at every order."""
    return _ZERO, *(({0: {0: (-1) ** (l + 1) * factorial(l - 1)}}, 1) for l in range(1, D + 1))


def _todd_rows(first: int, D: int, order: int) -> Rows:
    """psi_j = -sum_{r=j+first}^{order} B_r(0)/r q^r/(r-j)! over r >= 1 (phi_j =
    -sum_{n>=first} B_{n+j}(0)/(n+j) q^n/n!): the equivariant Todd class
    Td(x (x) O(q)) for first = 0, the twist ratio Td(x (x) O(q))/Td(x) for first = 1."""
    return tuple(scalar_series((r, -bernoulli(r) / r / factorial(r - j))
                               for r in range(max(j + first, 1), order + 1))
                 for j in range(D + 1))


def _bernoulli_w(order: int) -> Part:
    """w = q t/(1-t) = q/(e^q-1) = sum_n B_n(0) q^n/n! at t = exp(-q), to q^order."""
    return scalar_series((n, bernoulli(n) / factorial(n)) for n in range(order + 1))


def _exp_hirzebruch_rows(D: int, order: int) -> Rows:
    """c_t at t = exp(-q) for the rank factor q^rank, up to ``order``: the
    rank row log((1 - exp(-q))/q), minus that of the twist, and the Stirling
    sums psi_l = -q^l s_l(t) over the powers of w."""
    (num, den), = _todd_rows(1, 0, order)
    rank_row = {r: {0: -row[0]} for r, row in num.items()}, den
    return rank_row, *_stirling_rows(_bernoulli_w(order), D, order)[1:]


_EULER = _RowStore(_euler_rows)
_TODD = _RowStore(partial(_todd_rows, 0))
_TWIST = _RowStore(partial(_todd_rows, 1))
_HIRZEBRUCH = _RowStore(_exp_hirzebruch_rows)


def _argument(
    ring: Ring, terms: Iterable[tuple["KClass", int, Rows]], q_max: int | None = None
) -> tuple[Part, dict[int, Part]]:
    """sum over (x, k, rows) of sum_l q^l phi_l(kq) * Ch_l(x), with Ch_0 =
    rank, in the regraded frame and cut at q^q_max there, as its scalar part
    (the rank rows) and its nonzero Chow-degree-l parts (the rows psi_l
    against Ch_l), in the form the graded exp takes.  Each part is one
    integer accumulate acc[r][i] += f * v * k^(r-l+P) * a of row and Chow
    numerators on one denominator, each class against its own rows: the
    argument is additive in x.  The weight enters only here, as q -> kq,
    with the denominator k^P for a row starting at q^(l-P), and each part is
    divided by the content this scaling leaves.  Rows ascend, so each stops
    at q_max (at weight 0, after q^l)."""
    by_degree: dict[int, list[tuple[Part, int, int, ChowElement]]] = {}
    for x, k, rows in terms:
        if x.ring != ring:
            raise ValueError("ring mismatch")
        for l, psi in enumerate(rows):
            c = ring.const(x.rank) if l == 0 else x.chern_character(l)
            if psi[0] and c:
                by_degree.setdefault(l, []).append((psi, k, max(l - next(iter(psi[0])), 0), c))
    top = inf if q_max is None else q_max
    powers: dict[int, list[int]] = {}  # k -> [k^0, k^1, ...]
    parts: dict[int, Part] = {}
    for l, items in by_degree.items():
        den = common_den(psi[1] * abs(k**P) * c._den for psi, k, P, c in items)
        acc: dict[int, dict[int, int]] = {}
        for (num, psi_den), k, P, c in items:
            f, stop = den // (psi_den * k**P * c._den), top if k else min(top, l)
            pw = powers.setdefault(k, [1])
            for _ in range(len(pw), min(stop, next(reversed(num))) - l + P + 1):
                pw.append(pw[-1] * k)
            for r, row in num.items():
                if r > stop:
                    break
                out, fv = acc.setdefault(r, {}), f * row[0] * pw[r - l + P]
                for i, a in c._num.items():
                    out[i] = out.get(i, 0) + fv * a
        if (part := reduce_part(acc, den))[0]:
            parts[l] = part
    return parts.pop(0, _ZERO), parts


def _weighted_product(
    ring: Ring,
    target: int | None = None,
    *,
    euler: Sequence[tuple["KClass", int]] = (),
    hirzebruch: Sequence[tuple["KClass", int]] = (),
    todd: Sequence[tuple["KClass", int]] = (),
    twist: Sequence[tuple["KClass", int]] = (),
) -> QSeries:
    """The product over weighted classes (x, k) of e_{kq}(x) for ``euler``,
    c_{exp(-kq)}(x) for ``hirzebruch``, Td(x (x) O(kq)) for ``todd`` and
    Td(x (x) O(kq))/Td(x) for ``twist``: prod (kq)^rank over the Euler and
    Hirzebruch classes (weight 0 is rejected) times one exp of the summed
    arguments.  With no ``target`` the product is exact, which only Euler
    classes allow; otherwise it is reliable up to q^target.

    This is where every working order comes from.  The rank factor is
    c q^rho, so the exp must be reliable to target - rho, and it cuts every
    part at the one regraded order target - rho + D: the rows are read to
    that order.
    """
    D = ring.truncation
    for _, k in [*euler, *hirzebruch, *todd, *twist]:
        _require_int(weight=k)
    ranked = [(x.rank, k) for x, k in [*euler, *hirzebruch]]
    if any(k == 0 for _, k in ranked):
        raise ValueError("equivariant weight must be nonzero")
    rho = sum(r for r, _ in ranked)
    rank = rho, prod(k**r for r, k in ranked if r > 0), prod(k**-r for r, k in ranked if r < 0)

    def at(order: int | None) -> QSeries:
        terms = [(x, k, _EULER(D)) for x, k in euler]
        terms += [(x, k, _HIRZEBRUCH(D, order)) for x, k in hirzebruch]
        terms += [(x, k, _TODD(D, order)) for x, k in todd]
        terms += [(x, k, _TWIST(D, order)) for x, k in twist]
        top = None if order is None else order - D
        return _exp(ring, *_argument(ring, terms, order), top, rank)

    if target is None:
        if hirzebruch or todd or twist:
            raise ValueError("only a product of Euler classes is exact")
        return at(None)
    return compute_at_precision(at, target, D - rho)


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
        _require_int(rank=rank)
        self.ring = ring
        self.rank = rank
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
    D = x.ring.truncation
    return _exp(x.ring, *_argument(x.ring, [(x, 0, _TODD(D, D))]), None).coefficient(0)


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
        exp = _exp(ring, *_argument(ring, [(x, 1, table)]), None).coefficient(0)
        return exp * (1 - Fraction(t)) ** x.rank
    order = t.q_max
    out_order = min(_q_max_or(q_max, order), order)
    one_minus = QSeries._raw(ring, one_minus, order)
    factor = one_minus if x.rank >= 0 else one_minus.invert(order)
    rank = power(QSeries.one(ring), factor, abs(x.rank))
    scal, nil = _argument(ring, [(x, 1, table)])
    exp = _exp(ring, scal, nil, _order(ring, nil, out_order, valid, 0, -1))
    return rank.truncated(out_order) * exp


def equivariant_euler(x: KClass, weight: int) -> QSeries:
    """Equivariant Euler class with q scaled by the integer weight:

        e_{k q}(x) = (k q)^rank * exp(-sum_l (l-1)!/(-k q)^l Ch_l(x)).

    An exact Laurent polynomial; on a bundle with roots a_i it equals
    prod_i (k q + a_i), and it is multiplicative in x.
    """
    return _weighted_product(x.ring, euler=[(x, weight)])


def todd_twist_ratio(x: KClass, weight: int, q_max: int | None = None) -> QSeries:
    """Td(x (x) O(k q)) / Td(x) for a formal line bundle of first Chern
    class k*q, computed through the twisted Chern characters

        Ch_l(x (x) O(w)) = sum_{j<=l} Ch_j(x) w^{l-j} / (l-j)!.

    Equals exp(-sum_{j>=0, l>j} B_l(0)/l * (k q)^{l-j}/(l-j)! * Ch_j(x));
    for a trivial line it is k q / (1 - exp(-k q)) = 1 + kq/2 + (kq)^2/12 - ...
    """
    ring = x.ring
    return _weighted_product(ring, _q_max_or(q_max, ring.q_max), twist=[(x, weight)])


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
    ring = x.ring
    target = _q_max_or(q_max, ring.q_max)
    lhs = equivariant_euler(x, weight)
    rhs = _weighted_product(ring, target, hirzebruch=[(x, weight)], twist=[(x, weight)])
    diff = (lhs - rhs).truncated(target)
    return IdentityCheck(equal=diff.is_zero, lhs=lhs, rhs=rhs, difference=diff)
