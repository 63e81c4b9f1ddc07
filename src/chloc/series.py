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
  So the regrading q^e m -> q^(e + deg m) m, a ring automorphism (degrees
  add under products, and the truncation goes by degree), takes the input
  to a power series.  Both operations run there and cut every Chow-degree
  part F_d of the result at the one order top + D; moved back by d, F_d is
  exact to q^(top + D - d).  They report the order top of one rule: D + 1
  orders below the input's when a nilpotent term sits below q^0 (for
  invert, at or below the leading term), else the input's.  A series that
  breaks the bound is refused with ValueError when the result is cut;
* compute_at_precision: a caller that knows the order it needs derives the
  working order once and asks for it; a result short of the target raises
  ArithmeticError.

A series is stored as one reduced :data:`~chloc.rings.Part`: integer
numerators keyed by (exponent, monomial index) over one positive
denominator, the store of a class of :mod:`chloc.rings` (FLINT's
``fmpq_poly``).  A scalar series is the same store on monomial index 0.  A
product of series is one ``mul_parts`` (one call of the multiply-accumulate
kernel and one reduce of the whole result), a sum one ``add_parts``, the
merge that adds classes too.  Chow coefficients are built only when asked
for (``coefficient``, ``negative_part``, ``str``), each reduced on its own;
``_split`` reads the coefficients by Chow degree straight off the store.

exp and invert work degree by degree in the Chow grading.  With A_j the
Chow-degree-j part of the argument (A_0 its scalar part), E = exp(A) has
the parts E_0 = exp(A_0) and d E_d = sum_{j=1}^{d} j A_j E_{d-j}: the
Euler operator of the grading is a derivation, so this is the derivative
recurrence for the exponential of a power series (Brent and Kung, 1978)
taken in the Chow degree instead of in q.  The inverse of 1 + u, with
S = (1 + u_0)^{-1} and V_j = S u_j, has the parts F_0 = S and
F_d = -sum_j V_j F_{d-j}.  Each part F_d is one integer accumulate over
all j on one denominator, the 1/d of exp folded into it; the parts sit on
monomials of distinct degrees, so their sum is a merge, and the whole exp
or inverse costs about one truncated product.

The scalar kernels at the bottom are integer linear recurrences on scalar
series; ``scalar_exp`` carries E_m as N_m / (m! s^m) for the denominator s
of its argument, so no step divides.

All values are immutable and operations are pure.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from fractions import Fraction
from math import factorial, perm
from typing import Callable

from .rings import ChowElement, Part, Ring, Scalar, _exact, _q_max_or, _require_int
from .rings import add_parts, common_den, mul_parts, multiply_accumulate, reduce_part

_ONE: Part = ({0: {0: 1}}, 1)


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

    __slots__ = ("ring", "_num", "_den", "q_max")

    def __init__(self, ring: Ring, coeffs: Mapping[int, ChowElement], q_max: int | None = None):
        if q_max is not None:
            _require_int(q_max=q_max)
        kept = []
        for e, c in coeffs.items():
            _require_int(exponent=e)
            if not isinstance(c, ChowElement):
                raise TypeError(f"the coefficient of q^{e} must be a ChowElement, "
                                f"not {type(c).__name__}")
            if c.ring != ring:
                raise ValueError("coefficient ring mismatch")
            if c._num and (q_max is None or e <= q_max):
                kept.append((e, c))
        # reduced classes on their lcm share no common factor
        den = common_den(c._den for _, c in kept)
        self.ring = ring
        self._num = {e: c._num if c._den == den else
                     {i: v * (den // c._den) for i, v in c._num.items()} for e, c in kept}
        self._den = den
        self.q_max = q_max

    @classmethod
    def _raw(cls, ring: Ring, part: Part, q_max: int | None):
        # Internal fast path: part must be reduced and end at q_max.
        self = object.__new__(cls)
        self.ring = ring
        self._num, self._den = part
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
        return ChowElement._of(self.ring, reduce_part({0: self._num.get(e, {})}, self._den))

    def exponents(self) -> list[int]:
        return sorted(self._num)

    @property
    def is_zero(self) -> bool:
        return not self._num

    @property
    def is_exact(self) -> bool:
        return self.q_max is None

    @property
    def is_convergent(self) -> bool:
        """True when no stored coefficient sits at a negative exponent."""
        return all(e >= 0 for e in self._num)

    def negative_part(self) -> list[tuple[int, ChowElement]]:
        """All (exponent, coefficient) pairs with exponent < 0, ascending."""
        return [(e, self.coefficient(e)) for e in self.exponents() if e < 0]

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
        _require_int(q_max=q_max)
        eff = q_max if self.q_max is None else min(q_max, self.q_max)
        part = self._num, self._den
        if any(e > eff for e in self._num):  # what is left may share a factor
            part = reduce_part({e: row for e, row in self._num.items() if e <= eff}, self._den)
        return QSeries._raw(self.ring, part, eff)

    def shifted(self, k: int) -> "QSeries":
        """Multiply by q^k."""
        _require_int(k=k)
        q_max = None if self.q_max is None else self.q_max + k
        return QSeries._raw(self.ring, ({e + k: row for e, row in self._num.items()}, self._den),
                            q_max)

    def _ord_bound(self) -> int | None:
        # Lower bound on the valuation, for truncation bookkeeping; None
        # means the series is exactly zero.
        if self._num:
            return min(self._num)
        return None if self.q_max is None else self.q_max + 1

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
        q_max = min((x.q_max for x in (self, o) if x.q_max is not None), default=None)
        part = add_parts((self._num, self._den), (o._num, o._den), q_max)
        return QSeries._raw(self.ring, part, q_max)

    __radd__ = __add__

    def __neg__(self):
        num = {e: {i: -v for i, v in row.items()} for e, row in self._num.items()}
        return QSeries._raw(self.ring, (num, self._den), self.q_max)

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
        self._check(o)
        # Exact zero factors give an exact zero product.
        if (not self._num and self.q_max is None) or (not o._num and o.q_max is None):
            return QSeries._raw(self.ring, ({}, 1), None)
        q_max = min((x.q_max + y._ord_bound() for x, y in ((self, o), (o, self))
                     if x.q_max is not None), default=None)
        part = mul_parts(self.ring._mono, (self._num, self._den), (o._num, o._den), q_max)
        return QSeries._raw(self.ring, part, q_max)

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
        if not self._num:
            raise ZeroDivisionError("cannot invert the zero series")
        # self = P + N for its scalar part P = c q^e_star (1 + u_0) and its
        # nilpotent part N: 1/self = P^-1 (1 + V)^-1 with V = P^-1 N, so the
        # regraded parts are F_0 = P^-1 and F_d = sum_j (-V_j) F_{d-j}, V_j a
        # power series by the grading bound of u = self / (c q^e_star) - 1:
        # F_d is cut at top + D, V_j at top + D + e_star, as F_d >= q^-e_star.
        scal, nil = self._split()
        if not scal[0]:
            raise ValueError("not invertible: no coefficient has a nonzero scalar part")
        e_star = min(scal[0])
        exact = self.q_max is None and len(scal[0]) == 1
        top = None if exact else _order(ring, nil, q_max, self.q_max, e_star, 0)
        cut = None if exact else top + ring.truncation + e_star
        inv, inv_den = scalar_invert(scal, -e_star if exact else cut - e_star)
        v = {}
        for j, (num, den) in nil.items():
            v[j] = ({}, inv_den * den)
            multiply_accumulate(ring._mono, v[j][0], inv, num, -1, cut)
        return QSeries._raw(ring, _graded_series(ring, (inv, inv_den), v, top, False), top)

    # -- exponential ---------------------------------------------------------------

    def exp(self, q_max: int | None = None) -> "QSeries":
        """exp of the series; scalar parts must sit at positive exponents.

        The nilpotent part contributes a finite sum; the scalar part is a
        genuine power series in q and is truncated at the requested order.
        If the input is exact and has no scalar part the result is exact.
        """
        scal, nil = self._split()
        exact = self.q_max is None and not scal[0]
        top = None if exact else _order(self.ring, nil, q_max, self.q_max, 0, -1)
        return _exp(self.ring, scal, nil, top)

    def _split(self) -> tuple[Part, dict[int, Part]]:
        """The scalar part of the series, and its nilpotent parts by Chow
        degree in the regraded frame: ``{j: part}`` for j >= 1, the degree-j
        part at q^e keyed by e + j."""
        degree = self.ring._mono.degree
        split: dict[int, dict[int, dict[int, int]]] = {}
        for e, row in self._num.items():
            for i, v in row.items():
                j = degree[i]
                split.setdefault(j, {}).setdefault(e + j, {})[i] = v
        parts = {j: reduce_part(num, self._den) for j, num in split.items()}
        return parts.pop(0, ({}, 1)), parts

    # -- comparison / display --------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, QSeries):
            o = self._coerce(other)
            if o is None:
                return NotImplemented
            other = o
        if self.ring != other.ring:
            return False
        bound = min((x.q_max for x in (self, other) if x.q_max is not None), default=None)
        a, b = (self, other) if bound is None else (self.truncated(bound), other.truncated(bound))
        return a._den == b._den and a._num == b._num

    __hash__ = None

    def __str__(self) -> str:
        parts = []
        for e in self.exponents():
            c = self.coefficient(e)
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


def _order(ring: Ring, nil: dict[int, Part], q_max: int | None, input_order: int | None,
           shift: int, lowest: int) -> int:
    """The order exp (shift 0, lowest -1) and invert (shift e_star, lowest 0)
    report for an input reliable to ``input_order`` (None: exact), with the
    regraded nilpotent parts ``nil``: q_max (None: the ring's), at most
    input_order - 2 shift, less D + 1 when a nilpotent term within input_order
    sits at q^(shift + lowest) or below.  A term below the grading bound
    raises ValueError."""
    pad = 0
    for j, (num, _) in nil.items():
        e = min(num) - j - shift
        if e < -j:
            raise ValueError(f"the coefficient of q^{e} has Chow degree below {-e}")
        if input_order is not None and e <= min(lowest, input_order - shift):
            pad = ring.truncation + 1
    target = _q_max_or(q_max, ring.q_max)
    return target if input_order is None else min(target, input_order - 2 * shift - pad)


def _exp(ring: Ring, scal: Part, nil: dict[int, Part], q_max: int | None,
         rank: tuple[int, int, int] = (0, 1, 1)) -> QSeries:
    """c q^rho * exp(A) for ``rank`` = (rho, c numerator, c denominator), A
    with the scalar part ``scal`` at positive exponents and the regraded
    nonzero Chow-degree parts ``nil`` of :meth:`QSeries._split`, with exp(A)
    up to q^q_max (None: exact, which needs an A with no scalar part).  The
    exact rank factor enters through F_0, as the recurrence is linear in it,
    and shifts the order by rho."""
    (rho, c, dc), D = rank, ring.truncation
    top = None if q_max is None else q_max + rho
    num, den = scalar_exp(scal, q_max + D) if scal[0] else _ONE
    first = reduce_part({e + rho: {0: c * row[0]} for e, row in num.items()}, dc * den)
    return QSeries._raw(ring, _graded_series(ring, first, nil, top, True), top)


def _graded_series(ring: Ring, first: Part, parts: dict[int, Part], top: int | None,
                   exp: bool) -> Part:
    """The series up to q^top (None keeps all) sum_{d=0}^{D} F_d, each F_d
    given in the regraded frame: F_0 = ``first`` and
    F_d = sum_{j=1}^{d} parts[j] F_{d-j}, or F_d = (1/d) sum_j j parts[j]
    F_{d-j} when ``exp``, each one integer accumulate on one denominator,
    for the degree-j part ``parts[j]`` moved up by j.  The F_d sit on
    disjoint monomials, so moving each back by d and summing is a merge on
    one denominator, reduced once.

    Every F_d is cut at the one regraded order top + D.  The parts are power
    series (the grading bound) and F_0 lies above its own lowest exponent,
    so no product moves a term down: the cut leaves each F_d exact up to it,
    and up to q^(top + D - d) >= q^top once moved back."""
    table, D = ring._mono, ring.truncation
    cut = None if top is None else top + D
    graded: list[Part] = [first]
    for d in range(1, D + 1):
        terms = [(j, parts[j], graded[d - j]) for j in range(1, d + 1)
                 if j in parts and graded[d - j][0]]
        den = common_den(a[1] * b[1] for _, a, b in terms)
        acc: dict[int, dict[int, int]] = {}
        for j, (a, da), (b, db) in terms:
            multiply_accumulate(table, acc, a, b, (j if exp else 1) * (den // (da * db)), cut)
        graded.append((acc, den * d if exp else den))
    den = common_den(d for num, d in graded if num)
    merged: dict[int, dict[int, int]] = {}
    for d, (num, dd) in enumerate(graded):
        f = den // dd
        for r, row in num.items():
            if top is None or r - d <= top:
                out = merged.setdefault(r - d, {})
                for i, v in row.items():
                    out[i] = v * f
    return reduce_part(merged, den)


def q_exponential(ring: Ring, scale: Scalar, q_max: int | None = None) -> QSeries:
    """The series exp(scale * q) truncated at the requested order."""
    target = _q_max_or(q_max, ring.q_max)
    return QSeries._raw(ring, scalar_exp(scalar_series([(1, scale)]), target), target)


def compute_at_precision(fn: Callable[[int], QSeries], target: int, margin: int) -> QSeries:
    """fn at the working order target + margin, truncated at target; raises
    ArithmeticError if the result is not reliable up to target."""
    out = fn(target + margin)
    if out.q_max is not None and out.q_max < target:
        raise ArithmeticError(
            f"working order {target + margin} is reliable only to q^{out.q_max}, not q^{target}"
        )
    return out.truncated(target)


# -- scalar Laurent kernels ------------------------------------------------------


def scalar_series(terms: Iterable[tuple[int, Scalar]]) -> Part:
    """The scalar series of exact rationals given by (exponent, value) pairs."""
    terms = [(e, _exact(c)) for e, c in terms]
    den = common_den(c.denominator for _, c in terms)
    num: dict[int, dict[int, int]] = {}
    for e, c in terms:
        row = num.setdefault(e, {0: 0})
        row[0] += c.numerator * (den // c.denominator)
    return reduce_part(num, den)


def scalar_invert(a: Part, cutoff: int) -> Part:
    """Inverse of a nonzero scalar Laurent series up to q^cutoff, by the
    linear convolution recurrence.  With a = q^e0 P / s and P = sum p_k q^k,
    the inverse is s q^-e0 sum_m N_m q^m / p_0^{m+1} for the integers N_0 = 1
    and N_m = -sum_{k=1}^{m} p_k p_0^{k-1} N_{m-k}."""
    num, s = a
    if not num:
        raise ZeroDivisionError("cannot invert the zero series")
    e0 = min(num)
    n = cutoff + e0  # relative order of the result
    if n < 0:
        return {}, 1
    p0 = num[e0][0]
    powers = [p0**k for k in range(n + 2)]
    steps = [(k, num[e0 + k][0] * powers[k - 1]) for k in range(1, n + 1) if e0 + k in num]
    out = [1]
    for m in range(1, n + 1):
        out.append(-sum(c * out[m - k] for k, c in steps if k <= m))
    return reduce_part({m - e0: {0: s * v * powers[n - m]} for m, v in enumerate(out)},
                       powers[n + 1])


def scalar_exp(a: Part, cutoff: int) -> Part:
    """exp of a scalar series supported in positive exponents, up to
    q^cutoff, by the derivative recurrence m E_m = sum_j j a_j E_{m-j}.  With
    a_j = A_j / s and E_m = N_m / (m! s^m) it reads
    N_m = sum_j j A_j s^{j-1} (m-1)!/(m-j)! N_{m-j}, all in integers."""
    num, s = a
    if any(e <= 0 for e in num):
        raise ValueError("scalar exp needs positive exponents only")
    n = max(cutoff, 0)
    steps = sorted((j, j * row[0] * s ** (j - 1)) for j, row in num.items() if j <= n)
    out = [1]
    for m in range(1, n + 1):
        out.append(sum(c * perm(m - 1, j - 1) * out[m - j] for j, c in steps if j <= m))
    return reduce_part(
        {m: {0: v * (factorial(n) // factorial(m)) * s ** (n - m)} for m, v in enumerate(out)},
        factorial(n) * s**n,
    )
