"""Laurent series in the equivariant parameter q with Chow-class coefficients.

A :class:`QSeries` is a finitely supported map ``exponent -> ChowElement``
together with a truncation order ``q_max``: coefficients at exponents up to
``q_max`` are exact, everything above is unknown.  ``q_max is None`` marks an
exact finite Laurent polynomial (all absent coefficients are genuinely zero);
equivariant Euler classes and their inverses stay exact this way, while
transcendental series (exponentials, Todd twists) carry a finite order.

Truncation bookkeeping:

* add: the result is valid up to the smaller of the two orders;
* mul: valid up to min(a.q_max + ord(b), b.q_max + ord(a)), so multiplying
  by a series of negative valuation lowers the reliable order;
* invert / exp: coefficients with poles in q are nilpotent, and they obey
  the grading bound: a coefficient at q^-e has Chow degree at least e.
  Under that bound information travels downward by at most the Chow
  truncation D, so when poles are present these operations pad their
  internal working order by the fixed D + 1 and lower the reported order
  by the same amount.  A truncated result of a series that breaks the
  bound is refused with ValueError;
* compute_at_precision: a caller that knows the order it needs derives the
  working order once and asks for it; a result short of the target raises
  ArithmeticError.

A product groups the coefficient pairs by output exponent and builds each
output coefficient with one multiply-accumulate on the integer kernel of
:mod:`chloc.rings` (one common denominator, integer numerators, one gcd),
so the nilpotent powers summed by exp cost no Chow sum per pair.

The scalar helpers at the bottom operate on plain ``{exponent: Fraction}``
maps with linear-recurrence kernels; the class methods route pure-scalar
work through them.

All values are immutable and operations are pure.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from typing import Callable, Mapping

from .rings import ChowElement, Ring, Scalar

ScalarSeries = dict[int, Fraction]


class NotConvergentError(Exception):
    """A q -> 0 limit was requested for a series with poles at q = 0.

    ``terms`` lists the offending (exponent, coefficient) pairs, sorted by
    exponent.
    """

    def __init__(self, terms):
        self.terms = list(terms)
        exps = ", ".join(f"q^{e}" for e, _ in self.terms)
        super().__init__(f"series is not convergent at q -> 0 (nonzero at {exps})")


class QSeries:
    """Laurent series in q over a truncated graded ring."""

    __slots__ = ("ring", "_coeffs", "q_max")

    def __init__(
        self,
        ring: Ring,
        coeffs: Mapping[int, ChowElement],
        q_max: int | None = None,
    ):
        clean: dict[int, ChowElement] = {}
        for e, c in coeffs.items():
            e = int(e)
            if c.ring != ring:
                raise ValueError("coefficient ring mismatch")
            if q_max is not None and e > q_max:
                continue
            if not c.is_zero:
                clean[e] = c
        self.ring = ring
        self._coeffs = clean
        self.q_max = q_max

    @classmethod
    def _raw(cls, ring: Ring, coeffs: dict[int, ChowElement], q_max: int | None):
        self = object.__new__(cls)
        self.ring = ring
        self._coeffs = coeffs
        self.q_max = q_max
        return self

    # -- constructors ---------------------------------------------------------

    @classmethod
    def constant(cls, x: ChowElement) -> "QSeries":
        return cls(x.ring, {0: x})

    @classmethod
    def one(cls, ring: Ring) -> "QSeries":
        return cls(ring, {0: ring.one()})

    @classmethod
    def zero(cls, ring: Ring) -> "QSeries":
        return cls(ring, {})

    @classmethod
    def q_power(cls, ring: Ring, e: int, coeff: Scalar = 1) -> "QSeries":
        return cls(ring, {e: ring.const(coeff)})

    @classmethod
    def from_scalars(
        cls, ring: Ring, data: Mapping[int, Scalar], q_max: int | None = None
    ) -> "QSeries":
        return cls(ring, {e: ring.const(c) for e, c in data.items()}, q_max)

    # -- inspection -------------------------------------------------------------

    def coefficient(self, e: int) -> ChowElement:
        return self._coeffs.get(e, self.ring.zero())

    def exponents(self) -> list[int]:
        return sorted(self._coeffs)

    @property
    def is_zero(self) -> bool:
        return not self._coeffs

    @property
    def is_exact(self) -> bool:
        return self.q_max is None

    @property
    def is_convergent(self) -> bool:
        """True when no stored coefficient sits at a negative exponent."""
        return all(e >= 0 for e in self._coeffs)

    def negative_part(self) -> list[tuple[int, ChowElement]]:
        """All (exponent, coefficient) pairs with exponent < 0, ascending."""
        return sorted(
            ((e, c) for e, c in self._coeffs.items() if e < 0), key=lambda t: t[0]
        )

    def scalar_data(self) -> ScalarSeries:
        """The coefficients as plain rationals; every coefficient must be a
        scalar multiple of the ring unit."""
        out: ScalarSeries = {}
        for e, c in self._coeffs.items():
            c0 = c.constant_term
            if not (c - self.ring.const(c0)).is_zero:
                raise ValueError(f"coefficient of q^{e} is not scalar")
            out[e] = c0
        return out

    def limit(self) -> ChowElement:
        """The constant coefficient; raises NotConvergentError on q-poles.

        Requires the series to be reliable up to order 0.
        """
        if self.q_max is not None and self.q_max < 0:
            raise ValueError("series is not known up to order 0")
        neg = self.negative_part()
        if neg:
            raise NotConvergentError(neg)
        return self.coefficient(0)

    # -- truncation helpers ------------------------------------------------------

    def truncated(self, q_max: int) -> "QSeries":
        eff = q_max if self.q_max is None else min(q_max, self.q_max)
        return QSeries._raw(
            self.ring, {e: c for e, c in self._coeffs.items() if e <= eff}, eff
        )

    def shifted(self, k: int) -> "QSeries":
        """Multiply by q^k."""
        return QSeries._raw(
            self.ring,
            {e + k: c for e, c in self._coeffs.items()},
            None if self.q_max is None else self.q_max + k,
        )

    def _ord_bound(self) -> int | None:
        # Lower bound on the valuation, for truncation bookkeeping; None
        # means the series is exactly zero.
        if self._coeffs:
            return min(self._coeffs)
        if self.q_max is None:
            return None
        return self.q_max + 1

    def _pad(self, nil: dict[int, ChowElement], lowest: int) -> int:
        """The working-order padding of exp and invert: D + 1 when a
        nilpotent term sits at an exponent <= lowest, else 0.  Raises
        ValueError if a coefficient at q^-e has Chow degree below e."""
        degree = self.ring.monomial_degree
        for e, c in nil.items():
            if e < 0 and min(degree(m) for m, _ in c.items()) < -e:
                raise ValueError(f"the coefficient of q^{e} has Chow degree below {-e}")
        return self.ring.truncation + 1 if nil and min(nil) <= lowest else 0

    # -- arithmetic ------------------------------------------------------------

    def _check(self, other: "QSeries"):
        if self.ring != other.ring:
            raise ValueError("ring mismatch")

    def _coerce(self, other) -> "QSeries | None":
        if isinstance(other, QSeries):
            return other
        if isinstance(other, ChowElement):
            return QSeries.constant(other)
        if isinstance(other, (int, Fraction)):
            return QSeries.constant(self.ring.const(other))
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        self._check(o)
        if self.q_max is None:
            q_max = o.q_max
        elif o.q_max is None:
            q_max = self.q_max
        else:
            q_max = min(self.q_max, o.q_max)
        out = dict(self._coeffs)
        for e, c in o._coeffs.items():
            s = out.get(e)
            s = c if s is None else s + c
            if s.is_zero:
                out.pop(e, None)
            else:
                out[e] = s
        if q_max is not None:
            out = {e: c for e, c in out.items() if e <= q_max}
        return QSeries._raw(self.ring, out, q_max)

    __radd__ = __add__

    def __neg__(self):
        return QSeries._raw(
            self.ring, {e: -c for e, c in self._coeffs.items()}, self.q_max
        )

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            if not c:
                return QSeries._raw(self.ring, {}, self.q_max)
            return QSeries._raw(
                self.ring, {e: v * c for e, v in self._coeffs.items()}, self.q_max
            )
        if isinstance(other, ChowElement):
            if other.ring != self.ring:
                raise ValueError("ring mismatch")
            out = {}
            for e, v in self._coeffs.items():
                p = v * other
                if not p.is_zero:
                    out[e] = p
            return QSeries._raw(self.ring, out, self.q_max)
        if not isinstance(other, QSeries):
            return NotImplemented
        self._check(other)
        # Exact zero factors give an exact zero product.
        if (not self._coeffs and self.q_max is None) or (
            not other._coeffs and other.q_max is None
        ):
            return QSeries._raw(self.ring, {}, None)
        bounds = []
        for x, y in ((self, other), (other, self)):
            if x.q_max is not None:
                o = y._ord_bound()
                if o is None:
                    return QSeries._raw(self.ring, {}, None)
                bounds.append(x.q_max + o)
        q_max = min(bounds) if bounds else None
        return QSeries._raw(
            self.ring, _convolve(self.ring, self._coeffs, other._coeffs, q_max), q_max
        )

    __rmul__ = __mul__

    # -- inversion ---------------------------------------------------------------

    def invert(self, q_max: int | None = None) -> "QSeries":
        """Multiplicative inverse, reliable up to the requested order.

        The series must have an invertible leading structure: scanning
        exponents upward, the first coefficient with a nonzero scalar part
        is the Weierstrass leading term, and everything below it must be
        nilpotent (automatic in a truncated graded ring).  When the input is
        an exact Laurent polynomial whose unit part sits at the valuation
        with nothing but nilpotent corrections above q^0 terms, the inverse
        is again exact.
        """
        ring = self.ring
        if not self._coeffs:
            raise ZeroDivisionError("cannot invert the zero series")
        e_star = next((e for e in sorted(self._coeffs) if self._coeffs[e].constant_term), None)
        if e_star is None:
            raise ValueError("not invertible: no coefficient has a nonzero scalar part")
        c = self._coeffs[e_star].constant_term

        # self = c q^{e_star} (1 + u);  u = u_scal + u_nil.
        u = (self.shifted(-e_star) * (1 / c)) - QSeries.one(ring)
        u_scal, u_nil = u._split()
        exact_out = self.q_max is None and not u_scal
        pad = 0 if exact_out else u._pad(u_nil, 0)

        target = ring.q_max if q_max is None else int(q_max)
        if self.q_max is not None:
            target = min(target, self.q_max - 2 * e_star - pad)
        if not exact_out and target < -e_star:
            return QSeries._raw(ring, {}, target)
        cutoff = None if exact_out else target + e_star + pad

        # (1 + u)^{-1} = (1 + v)^{-1} (1 + u_scal)^{-1},
        # v = (1 + u_scal)^{-1} u_nil nilpotent.
        inv_scal_q = QSeries.one(ring)
        if u_scal:
            inv_scal = scalar_invert({0: Fraction(1), **u_scal}, cutoff)
            inv_scal_q = QSeries.from_scalars(ring, inv_scal)
        v = _cut(inv_scal_q * QSeries._raw(ring, u_nil, None), cutoff)
        acc = v._nilpotent_sum(cutoff, lambda m: (-1) ** m)
        out = (acc * inv_scal_q).shifted(-e_star) * (1 / c)
        return out if exact_out else out.truncated(target)

    # -- exponential ---------------------------------------------------------------

    def exp(self, q_max: int | None = None) -> "QSeries":
        """exp of the series; scalar parts must sit at positive exponents.

        The nilpotent part contributes a finite sum; the scalar part is a
        genuine power series in q and is truncated at the requested order.
        If the input is exact and has no scalar part the result is exact.
        """
        ring = self.ring
        scal, nil = self._split()
        if scal and min(scal) <= 0:
            raise ValueError(
                f"exp requires scalar parts only at positive exponents, found q^{min(scal)}"
            )
        cutoff = None
        if scal or self.q_max is not None:
            pad = self._pad(nil, -1)
            target = ring.q_max if q_max is None else int(q_max)
            if self.q_max is not None:
                target = min(target, self.q_max - pad)
            cutoff = target + pad
        out = QSeries._raw(ring, nil, None)._nilpotent_sum(
            cutoff, lambda m: Fraction(1, factorial(m))
        )
        if cutoff is None:
            return out
        if scal:
            out = out * QSeries.from_scalars(ring, scalar_exp(scal, cutoff))
        return out.truncated(target)

    def _split(self) -> tuple[ScalarSeries, dict[int, ChowElement]]:
        """The scalar parts and the nilpotent parts of the coefficients."""
        scal: ScalarSeries = {}
        nil: dict[int, ChowElement] = {}
        for e, c in self._coeffs.items():
            c0 = c.constant_term
            if c0:
                scal[e] = c0
            rest = c - self.ring.const(c0)
            if not rest.is_zero:
                nil[e] = rest
        return scal, nil

    def _nilpotent_sum(self, cutoff: int | None, coef) -> "QSeries":
        """sum_m coef(m) * self^m for an exact series with nilpotent
        coefficients (a finite sum), dropping exponents above cutoff."""
        out = power = QSeries.one(self.ring)
        for m in range(1, self.ring.truncation + 1):
            power = _cut(power * self, cutoff)
            if power.is_zero:
                break
            out = out + power * coef(m)
        return out

    # -- comparison / display --------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, QSeries):
            o = self._coerce(other)
            if o is None:
                return NotImplemented
            other = o
        if self.ring != other.ring:
            return False
        if self.q_max is None and other.q_max is None:
            return self._coeffs == other._coeffs
        bound = min(x.q_max for x in (self, other) if x.q_max is not None)
        for e in set(self._coeffs) | set(other._coeffs):
            if e > bound:
                continue
            if self.coefficient(e) != other.coefficient(e):
                return False
        return True

    __hash__ = None

    def __str__(self) -> str:
        parts = []
        for e in self.exponents():
            c = self._coeffs[e]
            if e == 0:
                parts.append(f"({c})")
            elif e == 1:
                parts.append(f"({c})*q")
            else:
                parts.append(f"({c})*q^{e}")
        body = " + ".join(parts) if parts else "0"
        if self.q_max is not None:
            body += f" + O(q^{self.q_max + 1})"
        return body

    def __repr__(self) -> str:
        return f"<QSeries {self}>"


def _cut(s: QSeries, cutoff: int | None) -> QSeries:
    """An exact series without its terms above cutoff (None keeps all)."""
    if cutoff is None:
        return s
    return QSeries._raw(s.ring, {e: c for e, c in s._coeffs.items() if e <= cutoff}, None)


def _convolve(
    ring: Ring, a: dict[int, ChowElement], b: dict[int, ChowElement], q_max: int | None
) -> dict[int, ChowElement]:
    """The coefficients of the product of two series, dropping exponents
    above q_max.  The coefficient pairs are grouped by output exponent and
    each output coefficient is one multiply-accumulate over its group
    (:meth:`ChowElement.sum_of_products`), so a pair costs no Chow sum and
    no normalization of its own."""
    groups: dict[int, list[tuple[ChowElement, ChowElement]]] = {}
    b_items = sorted(b.items())
    for e1, c1 in sorted(a.items()):
        for e2, c2 in b_items:
            e = e1 + e2
            if q_max is not None and e > q_max:
                break  # b_items ascending
            groups.setdefault(e, []).append((c1, c2))
    out: dict[int, ChowElement] = {}
    for e, pairs in groups.items():
        c = ChowElement.sum_of_products(ring, pairs)
        if c:
            out[e] = c
    return out


def q_exponential(ring: Ring, scale: Scalar, q_max: int | None = None) -> QSeries:
    """The series exp(scale * q) truncated at the requested order."""
    target = ring.q_max if q_max is None else int(q_max)
    s = Fraction(scale)
    data = {}
    p = Fraction(1)
    for n in range(0, max(target, 0) + 1):
        if n:
            p = p * s / n
        data[n] = p
    return QSeries.from_scalars(ring, data, target)


def compute_at_precision(
    fn: Callable[[int], QSeries], target: int, margin: int
) -> QSeries:
    """fn at the working order target + margin, truncated at target; raises
    ArithmeticError if the result is not reliable up to target."""
    out = fn(target + margin)
    if out.q_max is not None and out.q_max < target:
        raise ArithmeticError(
            f"working order {target + margin} is reliable only to q^{out.q_max}, not q^{target}"
        )
    return out.truncated(target)


# -- scalar Laurent kernels ------------------------------------------------------


def scalar_mul(a: ScalarSeries, b: ScalarSeries, cutoff: int | None) -> ScalarSeries:
    out: ScalarSeries = {}
    b_items = sorted(b.items())
    for e1, c1 in sorted(a.items()):
        if not c1:
            continue
        for e2, c2 in b_items:
            e = e1 + e2
            if cutoff is not None and e > cutoff:
                break
            out[e] = out.get(e, Fraction(0)) + c1 * c2
    return {e: c for e, c in out.items() if c}


def scalar_invert(a: ScalarSeries, cutoff: int) -> ScalarSeries:
    """Inverse of a scalar Laurent series with an invertible lowest term,
    by the linear convolution recurrence."""
    if not a:
        raise ZeroDivisionError("cannot invert the zero series")
    e0 = min(a)
    if not a[e0]:
        raise ValueError("leading coefficient must be nonzero")
    n = cutoff + e0  # relative order of the result
    p = [a.get(e0 + i, Fraction(0)) for i in range(max(n, 0) + 1)]
    out = [Fraction(0)] * (max(n, 0) + 1)
    out[0] = 1 / p[0]
    for m in range(1, max(n, 0) + 1):
        s = Fraction(0)
        for k in range(1, m + 1):
            if p[k]:
                s += p[k] * out[m - k]
        out[m] = -s / p[0]
    return {i - e0: c for i, c in enumerate(out) if c and i - e0 <= cutoff}


def scalar_exp(a: ScalarSeries, cutoff: int) -> ScalarSeries:
    """exp of a scalar series supported in positive exponents, by the
    derivative recurrence m E_m = sum_j j a_j E_{m-j}."""
    if any(e <= 0 for e in a):
        raise ValueError("scalar exp needs positive exponents only")
    out = [Fraction(0)] * (max(cutoff, 0) + 1)
    out[0] = Fraction(1)
    for m in range(1, max(cutoff, 0) + 1):
        s = Fraction(0)
        for j, coef in a.items():
            if j <= m and coef:
                s += j * coef * out[m - j]
        out[m] = s / m
    return {i: c for i, c in enumerate(out) if c}


def scalar_pow(a: ScalarSeries, n: int, cutoff: int | None) -> ScalarSeries:
    out: ScalarSeries = {0: Fraction(1)}
    for _ in range(n):
        out = scalar_mul(out, a, cutoff)
    return out
