"""Exact bivariate rational functions in the formal variables z and q.

:class:`BivarPoly` is a sparse polynomial with Fraction coefficients;
:class:`RatFunc` a quotient of two of them kept in a reduced canonical form
(common monomial factors cancelled, the polynomial gcd removed when both
parts are homogeneous, and the denominator content-normalized with a
positive leading coefficient).  Equality is decided by cross-multiplication,
so it is independent of the normalization.

Everything the hypergeometric machinery produces is a quotient of products
of linear forms a*z + b*q, hence homogeneous; sums (used when reporting
residuals) may leave homogeneity and then only the cheap normalizations
apply.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator, Mapping

from .rings import Scalar

Mono2 = tuple[int, int]  # (z-exponent, q-exponent)


class BivarPoly:
    """Sparse exact polynomial in z and q."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Mono2, Scalar] = ()):
        clean: dict[Mono2, Fraction] = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        for (i, j), c in items:
            if i < 0 or j < 0:
                raise ValueError("negative exponent in a polynomial")
            c = Fraction(c)
            if c:
                key = (int(i), int(j))
                s = clean.get(key, Fraction(0)) + c
                if s:
                    clean[key] = s
                elif key in clean:
                    del clean[key]
        self._terms = clean

    @classmethod
    def _raw(cls, terms: dict[Mono2, Fraction]) -> "BivarPoly":
        self = object.__new__(cls)
        self._terms = terms
        return self

    @classmethod
    def constant(cls, c: Scalar) -> "BivarPoly":
        c = Fraction(c)
        return cls._raw({(0, 0): c} if c else {})

    @classmethod
    def z(cls) -> "BivarPoly":
        return cls._raw({(1, 0): Fraction(1)})

    @classmethod
    def q(cls) -> "BivarPoly":
        return cls._raw({(0, 1): Fraction(1)})

    @classmethod
    def linear(cls, a: Scalar, b: Scalar) -> "BivarPoly":
        """The linear form a*z + b*q."""
        out: dict[Mono2, Fraction] = {}
        a, b = Fraction(a), Fraction(b)
        if a:
            out[(1, 0)] = a
        if b:
            out[(0, 1)] = b
        return cls._raw(out)

    # -- inspection ------------------------------------------------------------

    def items(self) -> Iterator[tuple[Mono2, Fraction]]:
        return iter(self._terms.items())

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def homogeneous_degree(self) -> int | None:
        """Total degree if homogeneous (None for zero or inhomogeneous)."""
        degs = {i + j for i, j in self._terms}
        return degs.pop() if len(degs) == 1 else None

    def q_valuation(self) -> int | None:
        return min((j for _, j in self._terms), default=None)

    def min_exponents(self) -> Mono2:
        if not self._terms:
            return (0, 0)
        return (
            min(i for i, _ in self._terms),
            min(j for _, j in self._terms),
        )

    def leading(self) -> tuple[Mono2, Fraction]:
        """Graded-lex leading term (highest total degree, then z-power)."""
        key = max(self._terms, key=lambda m: (m[0] + m[1], m[0]))
        return key, self._terms[key]

    def content(self) -> Fraction:
        """Positive gcd of the coefficients (0 for the zero polynomial)."""
        if not self._terms:
            return Fraction(0)
        from math import gcd, lcm

        num = gcd(*(c.numerator for c in self._terms.values()))
        den = lcm(*(c.denominator for c in self._terms.values()))
        return Fraction(num, den)

    # -- arithmetic ---------------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = BivarPoly.constant(other)
        if not isinstance(other, BivarPoly):
            return NotImplemented
        out = dict(self._terms)
        for m, c in other._terms.items():
            s = out.get(m, Fraction(0)) + c
            if s:
                out[m] = s
            elif m in out:
                del out[m]
        return BivarPoly._raw(out)

    __radd__ = __add__

    def __neg__(self):
        return BivarPoly._raw({m: -c for m, c in self._terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = BivarPoly.constant(other)
        if not isinstance(other, BivarPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            if not c:
                return BivarPoly._raw({})
            return BivarPoly._raw({m: c * v for m, v in self._terms.items()})
        if not isinstance(other, BivarPoly):
            return NotImplemented
        out: dict[Mono2, Fraction] = {}
        for (i1, j1), c1 in self._terms.items():
            for (i2, j2), c2 in other._terms.items():
                m = (i1 + i2, j1 + j2)
                s = out.get(m, Fraction(0)) + c1 * c2
                if s:
                    out[m] = s
                elif m in out:
                    del out[m]
        return BivarPoly._raw(out)

    __rmul__ = __mul__

    def evaluate(self, z_val: Scalar, q_val: Scalar) -> Fraction:
        z_val, q_val = Fraction(z_val), Fraction(q_val)
        return sum(
            (c * z_val**i * q_val**j for (i, j), c in self._terms.items()),
            Fraction(0),
        )

    def subs_q(self, value: Scalar) -> "BivarPoly":
        value = Fraction(value)
        out: dict[Mono2, Fraction] = {}
        for (i, j), c in self._terms.items():
            s = out.get((i, 0), Fraction(0)) + c * value**j
            if s:
                out[(i, 0)] = s
            elif (i, 0) in out:
                del out[(i, 0)]
        return BivarPoly._raw(out)

    # -- comparison / display --------------------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = BivarPoly.constant(other)
        if not isinstance(other, BivarPoly):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        keys = sorted(self._terms, key=lambda m: (-(m[0] + m[1]), -m[0]))
        parts: list[str] = []
        for i, j in keys:
            c = self._terms[(i, j)]
            factors = []
            if i:
                factors.append(f"z^{i}" if i > 1 else "z")
            if j:
                factors.append(f"q^{j}" if j > 1 else "q")
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
        return f"<BivarPoly {self}>"


# -- univariate gcd (for the homogeneous reduction) -----------------------------


def _trim(x: list[Fraction]) -> list[Fraction]:
    while x and not x[-1]:
        x.pop()
    return x


def _uni_divmod(p: list[Fraction], r: list[Fraction]) -> tuple[list[Fraction], list[Fraction]]:
    """Quotient and remainder of univariate polynomials over Q (coefficient
    lists, lowest degree first; r has a nonzero leading coefficient)."""
    rem = _trim(list(p))
    quo = [Fraction(0)] * max(len(rem) - len(r) + 1, 0)
    while len(rem) >= len(r):
        f = rem[-1] / r[-1]
        off = len(rem) - len(r)
        quo[off] = f
        for i, c in enumerate(r):
            rem[off + i] -= f * c
        _trim(rem)
    return quo, rem


def _uni_gcd(p: list[Fraction], r: list[Fraction]) -> list[Fraction]:
    """Monic gcd of two univariate polynomials over Q (coefficient lists)."""
    p, r = _trim(list(p)), _trim(list(r))
    while r:
        p, r = r, _uni_divmod(p, r)[1]
    if p:
        lead = p[-1]
        p = [c / lead for c in p]
    return p


def _homog_to_uni(p: BivarPoly) -> tuple[int, int, list[Fraction]]:
    """Write a homogeneous p as z^a q^b * u(z/q) * q^deg(u)."""
    a, b = p.min_exponents()
    deg = p.homogeneous_degree()
    coeffs = [Fraction(0)] * (deg - a - b + 1)
    for (i, _), c in p.items():
        coeffs[i - a] = c
    return a, b, coeffs


def _uni_to_homog(a: int, b: int, coeffs: list[Fraction]) -> BivarPoly:
    deg = len(coeffs) - 1
    return BivarPoly(
        {(a + i, b + deg - i): c for i, c in enumerate(coeffs) if c}
    )


def _gcd_homogeneous(p: BivarPoly, r: BivarPoly) -> BivarPoly:
    ap, bp, up = _homog_to_uni(p)
    ar, br, ur = _homog_to_uni(r)
    g = _uni_gcd(up, ur)
    return _uni_to_homog(min(ap, ar), min(bp, br), g)


class RatFunc:
    """A quotient of two exact bivariate polynomials, kept reduced."""

    __slots__ = ("num", "den")

    def __init__(self, num: BivarPoly, den: BivarPoly):
        if den.is_zero:
            raise ZeroDivisionError("zero denominator")
        if num.is_zero:
            self.num = BivarPoly._raw({})
            self.den = BivarPoly.constant(1)
            return
        # Cancel common monomial factors.
        ni, nj = num.min_exponents()
        di, dj = den.min_exponents()
        ci, cj = min(ni, di), min(nj, dj)
        if ci or cj:
            num = BivarPoly._raw(
                {(i - ci, j - cj): c for (i, j), c in num.items()}
            )
            den = BivarPoly._raw(
                {(i - ci, j - cj): c for (i, j), c in den.items()}
            )
        # Polynomial gcd in the homogeneous case.
        if (
            num.homogeneous_degree() is not None
            and den.homogeneous_degree() is not None
        ):
            g = _gcd_homogeneous(num, den)
            if g.homogeneous_degree():
                num = _divide_exact(num, g)
                den = _divide_exact(den, g)
        # Normalize: denominator content 1, positive leading coefficient.
        scale = den.content()
        if den.leading()[1] < 0:
            scale = -scale
        num = num * (1 / scale)
        den = den * (1 / scale)
        self.num = num
        self.den = den

    @classmethod
    def _raw(cls, num: BivarPoly, den: BivarPoly) -> "RatFunc":
        """num / den as given, which the caller guarantees is canonical."""
        self = object.__new__(cls)
        self.num = num
        self.den = den
        return self

    @classmethod
    def from_scalar(cls, c: Scalar) -> "RatFunc":
        return cls(BivarPoly.constant(c), BivarPoly.constant(1))

    @classmethod
    def from_poly(cls, p: BivarPoly) -> "RatFunc":
        return cls(p, BivarPoly.constant(1))

    @classmethod
    def zero(cls) -> "RatFunc":
        return cls.from_scalar(0)

    @classmethod
    def one(cls) -> "RatFunc":
        return cls.from_scalar(1)

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def __bool__(self) -> bool:
        return not self.is_zero

    # -- arithmetic ---------------------------------------------------------------

    def _coerce(self, other) -> "RatFunc | None":
        if isinstance(other, RatFunc):
            return other
        if isinstance(other, BivarPoly):
            return RatFunc.from_poly(other)
        if isinstance(other, (int, Fraction)):
            return RatFunc.from_scalar(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RatFunc(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __neg__(self):
        return RatFunc(-self.num, self.den)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RatFunc(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.num.is_zero:
            raise ZeroDivisionError("division by the zero rational function")
        return RatFunc(self.num * o.den, self.den * o.num)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __eq__(self, other) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.num * o.den == o.num * self.den

    __hash__ = None

    # -- evaluation ---------------------------------------------------------------

    def evaluate(self, z_val: Scalar, q_val: Scalar) -> Fraction:
        d = self.den.evaluate(z_val, q_val)
        if not d:
            raise ZeroDivisionError("denominator vanishes at the sample point")
        return self.num.evaluate(z_val, q_val) / d

    def subs_q0(self) -> "RatFunc":
        """Substitute q = 0 (the denominator must not vanish there)."""
        den0 = self.den.subs_q(0)
        if den0.is_zero:
            raise ZeroDivisionError("denominator vanishes at q = 0")
        return RatFunc(self.num.subs_q(0), den0)

    def q_valuation(self) -> int | None:
        """Order of vanishing in q (numerator valuation minus denominator's)."""
        if self.is_zero:
            return None
        return self.num.q_valuation() - self.den.q_valuation()

    def __str__(self) -> str:
        if self.den == BivarPoly.constant(1):
            return str(self.num)
        ns, ds = str(self.num), str(self.den)
        if len(self.num._terms) > 1 or len(self.den._terms) > 1:
            return f"({ns})/({ds})"
        return f"{ns}/{ds}"

    def __repr__(self) -> str:
        return f"<RatFunc {self}>"


def _divide_exact(p: BivarPoly, g: BivarPoly) -> BivarPoly:
    """Exact division of homogeneous polynomials (g divides p)."""
    ap, bp, up = _homog_to_uni(p)
    ag, bg, ug = _homog_to_uni(g)
    out, rem = _uni_divmod(up, ug)
    if rem:
        raise ArithmeticError("inexact polynomial division")
    return _uni_to_homog(ap - ag, bp - bg, out)
