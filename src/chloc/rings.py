"""Truncated graded polynomial rings over the rationals.

A :class:`Ring` is presented by named generators with positive integer
degrees together with a truncation order ``D``: every monomial of total
(weighted) degree above ``D`` is identically zero.

An element stores integer numerators over one positive common denominator,
the representation of FLINT's ``fmpq_poly``: ``_num`` maps a monomial index
to a nonzero integer and ``_den`` is reduced against them, so that
``gcd(_den, *_num.values()) == 1``.  Two elements are therefore equal
exactly when their numerator maps and denominators are equal, and all
arithmetic is exact integer arithmetic with one gcd per result.  The public
methods (``items``, ``coefficient``, ``constant_term``) speak of exponent
tuples and :class:`~fractions.Fraction` coefficients.

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
from math import factorial, gcd, lcm
from typing import Iterator, Mapping, Sequence

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
        degrees = tuple(int(d) for _, d in generators)
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
        self.truncation = int(truncation)
        self.q_max = 2 * self.truncation + 2 if q_max is None else int(q_max)
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
        return ChowElement._raw(self, {}, 1)

    def one(self) -> "ChowElement":
        return ChowElement._raw(self, {0: 1}, 1)

    def const(self, c: Scalar) -> "ChowElement":
        if not isinstance(c, Fraction):
            c = Fraction(c)
        if c == 0:
            return self.zero()
        return ChowElement._raw(self, {0: c.numerator}, c.denominator)

    def generator(self, name: str) -> "ChowElement":
        if name not in self._index:
            raise KeyError(f"unknown generator {name!r}")
        i = self._index[name]
        if self.degrees[i] > self.truncation:
            return self.zero()
        mono = tuple(1 if j == i else 0 for j in range(self.ngens))
        return ChowElement._raw(self, {self._mono.intern(mono, self.degrees[i]): 1}, 1)

    def gens(self) -> tuple["ChowElement", ...]:
        return tuple(self.generator(n) for n in self.names)

    def element(self, terms: Mapping[Monomial, Scalar]) -> "ChowElement":
        """Build an element from a monomial-to-coefficient mapping."""
        acc: dict[int, Fraction] = {}
        for mono, c in terms.items():
            mono = tuple(int(e) for e in mono)
            if len(mono) != self.ngens or any(e < 0 for e in mono):
                raise ValueError(f"bad exponent vector {mono!r}")
            d = self.monomial_degree(mono)
            if d > self.truncation:
                continue
            c = Fraction(c)
            if c:
                i = self._mono.intern(mono, d)
                acc[i] = acc.get(i, 0) + c
        den = 1
        for c in acc.values():
            den = lcm(den, c.denominator)
        return ChowElement._reduced(
            self, {i: c.numerator * (den // c.denominator) for i, c in acc.items()}, den
        )

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
    def _raw(cls, ring: Ring, num: dict[int, int], den: int) -> "ChowElement":
        # Internal fast path: num must be pruned of zeros and reduced
        # against den > 0.
        self = object.__new__(cls)
        self.ring = ring
        self._num = num
        self._den = den
        return self

    @classmethod
    def _reduced(cls, ring: Ring, num: dict[int, int], den: int) -> "ChowElement":
        """num / den with zero numerators pruned and the common factor removed."""
        num = {i: v for i, v in num.items() if v}
        if not num:
            return cls._raw(ring, num, 1)
        g = den
        for v in num.values():
            if g == 1:
                return cls._raw(ring, num, den)
            g = gcd(g, v)
        if g != 1:
            num = {i: v // g for i, v in num.items()}
            den //= g
        return cls._raw(ring, num, den)

    @classmethod
    def sum_of_products(
        cls, ring: Ring, pairs: Sequence[tuple["ChowElement", "ChowElement"]]
    ) -> "ChowElement":
        """sum of x*y over (x, y) in pairs, all in ``ring``, as one
        multiply-accumulate: the common denominator is the lcm of the
        products of the operands' denominators, the numerators accumulate as
        integers over the interned product rows, and one gcd follows."""
        den = 1
        for x, y in pairs:
            d = x._den * y._den
            if den % d:
                den = lcm(den, d)
        table = ring._mono
        rows = table.rows
        acc: dict[int, int] = {}
        get = acc.get
        for x, y in pairs:
            f = den // (x._den * y._den)
            rhs = list(y._num.items())
            for i, a in x._num.items():
                row = rows[i]
                a *= f
                for j, b in rhs:
                    try:
                        k = row[j]
                    except KeyError:
                        k = table.product(i, j)
                    if k >= 0:
                        acc[k] = get(k, 0) + a * b
        return cls._reduced(ring, acc, den)

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

    def graded_parts(self) -> dict[int, "ChowElement"]:
        """The nonzero homogeneous parts, keyed by degree, in one pass."""
        deg = self.ring._mono.degree
        split: dict[int, dict[int, int]] = {}
        for i, v in self._num.items():
            split.setdefault(deg[i], {})[i] = v
        return {d: ChowElement._reduced(self.ring, num, self._den) for d, num in split.items()}

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
        den = lcm(self._den, other._den)
        f1, f2 = den // self._den, den // other._den
        out = dict(self._num) if f1 == 1 else {i: v * f1 for i, v in self._num.items()}
        for i, v in other._num.items():
            out[i] = out.get(i, 0) + v * f2
        return ChowElement._reduced(self.ring, out, den)

    __radd__ = __add__

    def __neg__(self):
        return ChowElement._raw(self.ring, {i: -v for i, v in self._num.items()}, self._den)

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
            return ChowElement._reduced(
                self.ring, {i: v * p for i, v in self._num.items()}, self._den * c.denominator
            )
        if not isinstance(other, ChowElement):
            return NotImplemented
        self._check(other)
        return ChowElement.sum_of_products(self.ring, [(self, other)])

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * (Fraction(1) / Fraction(other))
        return NotImplemented

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a Chow class")
        out = self.ring.one()
        base = self
        for _ in range(n):
            out = out * base
            if out.is_zero:
                break
        return out

    def exp(self) -> "ChowElement":
        """exp(x) = sum x^m / m!, a finite sum since x is nilpotent.

        Requires a vanishing constant term.
        """
        if self.constant_term:
            raise ValueError("exp requires a class with zero constant term")
        out = self.ring.one()
        power = self.ring.one()
        for m in range(1, self.ring.truncation + 1):
            power = power * self
            if power.is_zero:
                break
            out = out + power * Fraction(1, factorial(m))
        return out

    def inverse(self) -> "ChowElement":
        """Multiplicative inverse; requires a nonzero constant term.

        Writes self = c*(1 + n) with n nilpotent and sums the finite
        Neumann series (1 + n)^{-1} = sum (-n)^m.
        """
        c = self.constant_term
        if not c:
            raise ValueError("not invertible: zero constant term")
        n = (self * (1 / c)) - self.ring.one()
        out = self.ring.one()
        power = self.ring.one()
        for _ in range(self.ring.truncation + 1):
            power = power * (-n)
            if power.is_zero:
                break
            out = out + power
        return out * (1 / c)

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
