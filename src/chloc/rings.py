"""Truncated graded polynomial rings over the rationals.

A :class:`Ring` is presented by named generators with positive integer
degrees together with a truncation order ``D``: every monomial of total
(weighted) degree above ``D`` is identically zero.

Every coefficient store here is a :data:`Part`: integer numerators keyed
by (exponent of q, monomial index) over one positive denominator, the
representation of FLINT's ``fmpq_poly``, reduced so that the denominator
shares no factor with the numerators.  A series of :mod:`chloc.series` is
one Part; an element of a ring is the Part at exponent 0, with ``_num``
mapping a monomial index to a nonzero integer over ``_den``.  Two elements
are therefore equal exactly when their numerator maps and denominators are
equal.  Every store has one reduce (:func:`reduce_part`), one merge
(:func:`add_parts`) and one product (:func:`mul_parts`), exact integer
arithmetic with one gcd fold per result.  The public methods (``items``,
``coefficient``, ``constant_term``) speak of exponent tuples and
:class:`~fractions.Fraction` coefficients.

Monomial indices are interned in one table per ring shape
``(degrees, truncation)``, held at module level and shared by every equal
:class:`Ring`, so elements of two equal Ring instances mix freely.  A table
holds the index -> exponent tuple list, the exponent tuple -> index dict,
the degree of each index, and product rows that fill lazily: ``rows[i][j]``
is the index of m_i*m_j, or -1 when the product lies above the truncation.
Nothing is enumerated up front and nothing is built at import; a table holds
only the monomials some computation produced, so a ring with many
generators costs what its elements touch.

Values are immutable after construction and all operations are pure, so
rings and elements may be shared freely between threads.  A table only
grows and never changes a published entry, so a lookup that hits takes no
lock; a miss (interning a monomial, filling a row entry) runs under the
table's lock.
"""

from __future__ import annotations

import re
import threading
from fractions import Fraction
from functools import reduce
from math import gcd, lcm
from typing import Iterable, Iterator, Mapping, Sequence

from . import series  # the series layer builds on this one; it runs on first use

Monomial = tuple[int, ...]
Scalar = int | Fraction

_NAME_OK = re.compile(r"[A-Za-z_][A-Za-z_0-9]*\Z")


class _Monomials:
    """The interned monomials of one ring shape (see the module docstring)."""

    __slots__ = ("truncation", "exps", "index", "degree", "rows", "_lock")

    def __init__(self, ngens: int, truncation: int):
        one = (0,) * ngens
        self.truncation = truncation
        self.exps: list[Monomial] = [one]
        self.index: dict[Monomial, int] = {one: 0}
        self.degree: list[int] = [0]
        self.rows: list[dict[int, int]] = [{}]
        self._lock = threading.Lock()

    def intern(self, mono: Monomial, degree: int) -> int:
        """The index of a monomial within the truncation, added on a miss."""
        i = self.index.get(mono)
        if i is None:
            with self._lock:
                i = self._add(mono, degree)
        return i

    def _add(self, mono: Monomial, degree: int) -> int:
        # Caller holds the lock.  The index is published last, so a reader
        # that finds it also finds the exponents, the degree and the row.
        i = self.index.get(mono)
        if i is None:
            i = len(self.exps)
            self.exps.append(mono)
            self.degree.append(degree)
            self.rows.append({})
            self.index[mono] = i
        return i

    def product(self, i: int, j: int) -> int:
        """Fill rows[i][j] and rows[j][i]: the index of m_i*m_j, or -1."""
        with self._lock:
            d = self.degree[i] + self.degree[j]
            if d > self.truncation:
                k = -1
            else:
                k = self._add(tuple(a + b for a, b in zip(self.exps[i], self.exps[j])), d)
            self.rows[i][j] = self.rows[j][i] = k
        return k


_TABLES: dict[tuple[tuple[int, ...], int], _Monomials] = {}
_TABLES_LOCK = threading.Lock()


def _monomial_table(degrees: tuple[int, ...], truncation: int) -> _Monomials:
    table = _TABLES.get((degrees, truncation))
    if table is None:
        with _TABLES_LOCK:
            table = _TABLES.setdefault((degrees, truncation), _Monomials(len(degrees), truncation))
    return table


def _exact(c) -> Scalar:
    """An exact rational scalar; a float or any other type raises TypeError."""
    if not isinstance(c, (int, Fraction)):
        raise TypeError(f"coefficients must be int or Fraction, not {type(c).__name__}")
    return c


def _require_int(**values) -> None:
    """Reject a non-``int`` (or ``bool``) argument by name, before it is
    truncated or fails inside ``range``."""
    for name, value in values.items():
        if not isinstance(value, int) or isinstance(value, bool):
            raise TypeError(f"{name} must be an int, not {type(value).__name__}")


def _q_max_or(q_max: int | None, default: int) -> int:
    """The requested order ``q_max``, which must be an int, or ``default`` for None."""
    if q_max is None:
        return default
    _require_int(q_max=q_max)
    return q_max


def common_den(dens: Iterable[int]) -> int:
    """The lcm, pairwise: ``lcm(*generator)`` resizes its argument tuple, which
    moves tuples between CPython's per-size free lists and grows the heap."""
    den = 1
    for d in dens:
        den = lcm(den, d)
    return den


def _content(g: int, rows: Iterable[Iterable[int]]) -> int:
    """gcd(g, every value of every row): a pairwise fold per row, which stops
    at 1.  A starred gcd would build its argument tuple, which grows the
    heap (see :func:`common_den`)."""
    for values in rows:
        if g == 1:
            break
        g = reduce(gcd, values, g)
    return g


# Chow-valued numerators {exponent: {monomial index: numerator}} over one
# denominator: the one coefficient store of a q-series (a scalar series is
# the store on monomial index 0).  Reduced: den > 0, no zero numerator, no
# empty row, and gcd(den, all numerators) == 1.  Stores share their rows
# and are never modified.
Part = tuple[dict[int, dict[int, int]], int]


def reduce_part(num: dict[int, dict[int, int]], den: int) -> Part:
    """num / den for any nonzero den, reduced."""
    num = {e: row if 0 not in row.values() else {i: v for i, v in row.items() if v}
           for e, row in num.items() if any(row.values())}
    if not num:
        return num, 1
    if den < 0:
        num, den = {e: {i: -v for i, v in row.items()} for e, row in num.items()}, -den
    g = _content(den, map(dict.values, num.values()))
    if g != 1:
        num, den = {e: {i: v // g for i, v in row.items()} for e, row in num.items()}, den // g
    return num, den


def add_parts(a: Part, b: Part, cutoff: int | None = None) -> Part:
    """The reduced sum a + b on the lcm of the denominators, exponents above
    cutoff dropped (None keeps all)."""
    den = lcm(a[1], b[1])
    out: dict[int, dict[int, int]] = {}
    for num, d in (a, b):
        f = den // d
        for e, row in num.items():
            if cutoff is None or e <= cutoff:
                acc = out.setdefault(e, {})
                for i, v in row.items():
                    acc[i] = acc.get(i, 0) + v * f
    return reduce_part(out, den)


def mul_parts(table: _Monomials, a: Part, b: Part, cutoff: int | None) -> Part:
    """The reduced product a * b, exponents above cutoff dropped (None keeps all)."""
    acc: dict[int, dict[int, int]] = {}
    multiply_accumulate(table, acc, a[0], b[0], 1, cutoff)
    return reduce_part(acc, a[1] * b[1])


def power(one, base, n: int):
    """base ** n for n >= 0 by repeated squaring: O(log n) products."""
    out = one
    while n:
        if n & 1:
            out = out * base
        n >>= 1
        if n:
            base = base * base
    return out


def multiply_accumulate(table: _Monomials, acc: dict, x: dict, y: dict, f: int = 1,
                        cutoff: int | None = None) -> None:
    """The one multiply-accumulate kernel: acc[e1 + e2][k] += f * a * b over
    the integer numerators a = x[e1][i] and b = y[e2][j], where m_k = m_i * m_j
    lies within the truncation and e1 + e2 <= cutoff (None keeps every
    exponent).  x and y are the numerators of a :data:`Part`; a Chow product
    is the one-exponent case ``{0: num}``.  The caller owns the common
    denominator and reduces the result once."""
    rows = table.rows
    ys = sorted((e, list(t.items())) for e, t in y.items())
    for e1, xs in x.items():
        for e2, yt in ys:
            e = e1 + e2
            if cutoff is not None and e > cutoff:
                break  # ys ascending
            out = acc.get(e)
            if out is None:
                out = acc[e] = {}
            get = out.get
            for i, a in xs.items():
                row = rows[i]
                a *= f
                for j, b in yt:
                    try:
                        k = row[j]
                    except KeyError:
                        k = table.product(i, j)
                    if k >= 0:
                        out[k] = get(k, 0) + a * b


class Ring:
    """A truncated graded commutative polynomial ring over Q.

    ``q_max`` is the default truncation order used for Laurent series built
    over this ring (see :mod:`chloc.series`); it defaults to ``2*D + 2``,
    which is deep enough for every identity check the library performs at
    Chow truncation ``D``.
    """

    __slots__ = ("names", "degrees", "truncation", "q_max", "_index", "_mono")

    def __init__(
        self,
        generators: Sequence[tuple[str, int]],
        truncation: int,
        q_max: int | None = None,
    ):
        names = tuple(str(n) for n, _ in generators)
        degrees = tuple(d for _, d in generators)
        _require_int(truncation=truncation, **{f"degree of {n}": d for n, d in generators})
        for n in names:
            if not _NAME_OK.match(n):
                raise ValueError(f"invalid generator name {n!r}")
        if len(set(names)) != len(names):
            raise ValueError("duplicate generator name")
        for n, d in zip(names, degrees):
            if d <= 0:
                raise ValueError(f"generator {n!r} must have positive degree, got {d}")
        if truncation < 0:
            raise ValueError("truncation order must be non-negative")
        self.names = names
        self.degrees = degrees
        self.truncation = truncation
        self.q_max = _q_max_or(q_max, 2 * truncation + 2)
        self._index = {n: i for i, n in enumerate(names)}
        self._mono = _monomial_table(degrees, self.truncation)

    # -- presentation ------------------------------------------------------

    @property
    def ngens(self) -> int:
        return len(self.names)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Ring):
            return NotImplemented
        return (
            self.names == other.names
            and self.degrees == other.degrees
            and self.truncation == other.truncation
        )

    def __hash__(self) -> int:
        return hash((self.names, self.degrees, self.truncation))

    def __repr__(self) -> str:
        gens = ", ".join(f"{n}:{d}" for n, d in zip(self.names, self.degrees))
        return f"Ring({gens}; D={self.truncation})"

    # -- element constructors ----------------------------------------------

    def zero(self) -> "ChowElement":
        return ChowElement._of(self, ({}, 1))

    def one(self) -> "ChowElement":
        return ChowElement._of(self, ({0: {0: 1}}, 1))

    def const(self, c: Scalar) -> "ChowElement":
        c = _exact(c)
        if c == 0:
            return self.zero()
        return ChowElement._of(self, ({0: {0: c.numerator}}, c.denominator))

    def generator(self, name: str) -> "ChowElement":
        if name not in self._index:
            raise KeyError(f"unknown generator {name!r}")
        i = self._index[name]
        if self.degrees[i] > self.truncation:
            return self.zero()
        mono = tuple(1 if j == i else 0 for j in range(self.ngens))
        return ChowElement._of(self, ({0: {self._mono.intern(mono, self.degrees[i]): 1}}, 1))

    def gens(self) -> tuple["ChowElement", ...]:
        return tuple(self.generator(n) for n in self.names)

    def element(self, terms: Mapping[Monomial, Scalar]) -> "ChowElement":
        """Build an element from a monomial-to-coefficient mapping."""
        acc: dict[int, Fraction] = {}
        for mono, c in terms.items():
            for e in mono:
                _require_int(exponent=e)
            mono = tuple(mono)
            if len(mono) != self.ngens or any(e < 0 for e in mono):
                raise ValueError(f"bad exponent vector {mono!r}")
            d = self.monomial_degree(mono)
            if d > self.truncation:
                continue
            c = _exact(c)
            if c:
                i = self._mono.intern(mono, d)
                acc[i] = acc.get(i, 0) + c
        den = common_den(c.denominator for c in acc.values())
        num = {i: c.numerator * (den // c.denominator) for i, c in acc.items()}
        return ChowElement._of(self, reduce_part({0: num}, den))

    # -- monomial helpers ----------------------------------------------------

    def monomial_degree(self, mono: Monomial) -> int:
        i = self._mono.index.get(mono)
        if i is not None:
            return self._mono.degree[i]
        return sum(e * g for e, g in zip(mono, self.degrees))

    def monomials(self, degree: int) -> list[Monomial]:
        """All exponent vectors of exact weighted degree ``degree``."""
        if degree < 0 or degree > self.truncation:
            return []
        out: list[Monomial] = []

        def rec(i: int, remaining: int, prefix: tuple[int, ...]):
            if i == self.ngens:
                if remaining == 0:
                    out.append(prefix)
                return
            d = self.degrees[i]
            for e in range(remaining // d + 1):
                rec(i + 1, remaining - e * d, prefix + (e,))

        rec(0, degree, ())
        return sorted(out)


class ChowElement:
    """An element of a :class:`Ring`: a sparse exact polynomial class.

    Stored monomials never exceed the truncation degree, zero numerators
    are pruned eagerly and the denominator is reduced, so two elements are
    equal exactly when their numerator maps and denominators are equal.
    """

    __slots__ = ("ring", "_num", "_den")

    def __init__(self, ring: Ring, terms: Mapping[Monomial, Scalar]):
        elem = ring.element(terms)
        self.ring = ring
        self._num = elem._num
        self._den = elem._den

    @classmethod
    def _of(cls, ring: Ring, part: Part) -> "ChowElement":
        """The class of a reduced Part held at exponent 0 (the zero class is ``({}, 1)``)."""
        self = object.__new__(cls)
        self.ring = ring
        self._num = part[0].get(0, {})
        self._den = part[1]
        return self

    @property
    def _part(self) -> Part:
        """The class as a Part at exponent 0."""
        return {0: self._num} if self._num else {}, self._den

    # -- inspection ----------------------------------------------------------

    def items(self) -> Iterator[tuple[Monomial, Fraction]]:
        exps, den = self.ring._mono.exps, self._den
        return iter([(exps[i], Fraction(v, den)) for i, v in self._num.items()])

    def coefficient(self, mono: Monomial) -> Fraction:
        i = self.ring._mono.index.get(tuple(mono))
        return Fraction(self._num.get(i, 0), self._den)

    @property
    def is_zero(self) -> bool:
        return not self._num

    def __bool__(self) -> bool:
        return bool(self._num)

    @property
    def constant_term(self) -> Fraction:
        return Fraction(self._num.get(0, 0), self._den)

    def is_homogeneous(self, degree: int) -> bool:
        deg = self.ring._mono.degree
        return all(deg[i] == degree for i in self._num)

    def max_degree(self) -> int:
        """Largest degree of a stored monomial, or -1 for the zero element."""
        deg = self.ring._mono.degree
        return max((deg[i] for i in self._num), default=-1)

    # -- arithmetic ------------------------------------------------------------

    def _check(self, other: "ChowElement"):
        if self.ring != other.ring:
            raise ValueError("ring mismatch")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ring.const(other)
        if not isinstance(other, ChowElement):
            return NotImplemented
        self._check(other)
        return ChowElement._of(self.ring, add_parts(self._part, other._part))

    __radd__ = __add__

    def __neg__(self):
        neg = {0: {i: -v for i, v in self._num.items()}} if self._num else {}
        return ChowElement._of(self.ring, (neg, self._den))

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ring.const(other)
        if not isinstance(other, ChowElement):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            if not c:
                return self.ring.zero()
            p = c.numerator
            num = {0: {i: v * p for i, v in self._num.items()}}
            return ChowElement._of(self.ring, reduce_part(num, self._den * c.denominator))
        if not isinstance(other, ChowElement):
            return NotImplemented
        self._check(other)
        return ChowElement._of(self.ring, mul_parts(self.ring._mono, self._part, other._part, None))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * (Fraction(1) / Fraction(other))
        return NotImplemented

    def __pow__(self, n: int):
        """By repeated squaring: O(log n) products."""
        if n < 0:
            raise ValueError("negative power of a Chow class")
        return power(self.ring.one(), self, n)

    def exp(self) -> "ChowElement":
        """exp(x) for x with a vanishing constant term (so x is nilpotent),
        by the Chow-degree recurrence of :mod:`chloc.series` at q^0."""
        if self.constant_term:
            raise ValueError("exp requires a class with zero constant term")
        return series.QSeries.constant(self).exp().coefficient(0)

    def inverse(self) -> "ChowElement":
        """Multiplicative inverse by the same recurrence; needs a nonzero constant term."""
        if not self.constant_term:
            raise ValueError("not invertible: zero constant term")
        return series.QSeries.constant(self).invert().coefficient(0)

    # -- comparison / display -----------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = self.ring.const(other)
        if not isinstance(other, ChowElement):
            return NotImplemented
        return self.ring == other.ring and self._den == other._den and self._num == other._num

    __hash__ = None  # mutable-looking container; identity-free equality only

    def _sorted_terms(self) -> list[tuple[Monomial, Fraction]]:
        table, den = self.ring._mono, self._den
        order = sorted(self._num, key=lambda i: (table.degree[i], table.exps[i]))
        return [(table.exps[i], Fraction(self._num[i], den)) for i in order]

    def __str__(self) -> str:
        if not self._num:
            return "0"
        parts: list[str] = []
        for mono, c in self._sorted_terms():
            factors = [
                f"{n}^{e}" if e > 1 else n
                for n, e in zip(self.ring.names, mono)
                if e
            ]
            if not factors:
                body = str(abs(c))
            elif abs(c) == 1:
                body = "*".join(factors)
            else:
                body = "*".join([str(abs(c))] + factors)
            if not parts:
                parts.append(body if c > 0 else "-" + body)
            else:
                parts.append(("+ " if c > 0 else "- ") + body)
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"<{self} in {self.ring!r}>"
