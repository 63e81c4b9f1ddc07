"""The equivariant small I-function of a Calabi-Yau chain polynomial.

The coefficient of t^k (k >= 1) is the rational function in (z, q)

    I_k = -z * [ prod_{j=1}^{N} prod_{b in B_j(k)} (b z + k_j q) ]
             / [ prod_{0 < b < k, b integer} b z ],

attached to the sector given by the k-th power of the grading element.
Here k_j is the j-th equivariant weight (k_1 = 1, k_{j+1} = -a_j k_j) and
B_j(k) is the finite arithmetic progression of step 1

    B_j(k) = { b : d_j < b < c_j * k,  b >= 0,  frac(b) = frac(c_j * k) },

with c_j the charge of x_j and d_j = -1 when N - j is odd, 0 otherwise
(so b = 0 is admissible exactly for those j, and only when c_j * k is an
integer).

The generating series I(t, -z) = sum_k t^k I_k e_k is annihilated by the
hypergeometric operator

    t^d * prod_{j=1}^{N} prod_{c=0}^{w_j - 1} (c_j z t d/dt + c z + k_j q)
        - prod_{c=1}^{d} (z t d/dt - c z).

``picard_fuchs_check`` verifies this coefficient-wise; see its docstring
for the recurrence the operator imposes.

Both I_k and every factor of the operator are a scalar times a product of
linear forms a z + b q, so the module works with that factored form: an
exact scalar and a map from primitive integer pairs (a, b) to exponents.
It expands a factored form into a ``RatFunc`` only for ``ICoefficient.value``
and for the residual of a failed Picard-Fuchs item.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import factorial, floor, gcd, lcm, perm

from .chains import ChainData, SymmetryElement, is_calabi_yau, sector, weight_sequence
from .ratfunc import BivarPoly, RatFunc

# scalar * prod (a*z + b*q)^e over the items ((a, b), e) of the Counter, where
# a, b are coprime integers whose first nonzero entry is positive and no e is 0.
Factored = tuple[Fraction, Counter]


@dataclass(frozen=True)
class ICoefficient:
    """One t-power coefficient of the small I-function."""

    k: int
    sector: SymmetryElement
    value: RatFunc
    b_sets: tuple[tuple[Fraction, ...], ...]

    @property
    def is_broad(self) -> bool:
        return self.sector.is_broad


def b_range(chain: ChainData, j: int, k: int) -> tuple[Fraction, ...]:
    """The admissible b-progression for variable j (1-based) at level k.

    A step-1 arithmetic progression: the fractional part of c_j * k,
    shifted up while staying below c_j * k; b = 0 is allowed only when
    N - j is odd.
    """
    n = chain.n_variables
    if not 1 <= j <= n:
        raise ValueError("variable index out of range")
    top = chain.charges[j - 1] * k
    delta = -1 if (n - j) % 2 == 1 else 0
    b = top - floor(top)  # fractional part
    out = []
    while b < top:
        if b > delta and b >= 0:
            out.append(b)
        b += 1
    return tuple(out)


def _linear_form(a, b) -> tuple[Fraction, tuple[int, int]]:
    """Write a*z + b*q (not both zero) as s * (x*z + y*q), with x and y
    coprime integers whose first nonzero entry is positive."""
    a, b = Fraction(a), Fraction(b)
    den = lcm(a.denominator, b.denominator)
    x, y = int(a * den), int(b * den)
    g = gcd(x, y)
    if x < 0 or (x == 0 and y < 0):
        g = -g
    return Fraction(g, den), (x // g, y // g)


def _times_forms(factored: Factored, forms) -> Factored:
    """``factored`` times the linear forms a*z + b*q over the pairs (a, b)."""
    scalar, exps = factored
    exps = Counter(exps)
    for a, b in forms:
        s, key = _linear_form(a, b)
        scalar *= s
        exps[key] += 1
    return scalar, Counter({key: e for key, e in exps.items() if e})


def _i_factored(chain: ChainData, k: int) -> tuple[Factored, tuple[tuple[Fraction, ...], ...]]:
    """I_k in factored form, with its b-progressions B_j(k)."""
    kw = weight_sequence(chain)
    b_sets = tuple(b_range(chain, j, k) for j in range(1, chain.n_variables + 1))
    # -z / prod_{0 < b < k} b z = -z^(2-k) / (k-1)!
    base = (Fraction(-1, factorial(k - 1)), Counter({(1, 0): 2 - k}))
    return _times_forms(base, ((b, w) for bs, w in zip(b_sets, kw) for b in bs)), b_sets


def _expand(forms) -> BivarPoly:
    """The product of the linear forms a*z + b*q over the integer pairs (a, b)."""
    coeffs = [1]  # coeffs[i] multiplies z^i q^(degree - i)
    for a, b in forms:
        nxt = [b * c for c in coeffs] + [0]
        for i, c in enumerate(coeffs):
            nxt[i + 1] += a * c
        coeffs = nxt
    deg = len(coeffs) - 1
    return BivarPoly({(i, deg - i): c for i, c in enumerate(coeffs)})


def _to_ratfunc(factored: Factored) -> RatFunc:
    """The factored form expanded; ``RatFunc`` reduces it to its canonical form."""
    scalar, exps = factored
    num = _expand(key for key, e in exps.items() for _ in range(e))
    den = _expand(key for key, e in exps.items() for _ in range(-e))
    return RatFunc(num * scalar, den)


def i_coefficient(chain: ChainData, k: int) -> ICoefficient:
    """The coefficient of t^k of the equivariant small I-function."""
    if not is_calabi_yau(chain):
        raise ValueError("the small I-function needs a Calabi-Yau chain")
    if k < 1:
        raise ValueError("the level k must be a positive integer")
    factored, b_sets = _i_factored(chain, k)
    return ICoefficient(
        k=k,
        sector=sector(chain, k),
        value=_to_ratfunc(factored),
        b_sets=b_sets,
    )


def nonequivariant_limit(ic: ICoefficient) -> RatFunc:
    """The q -> 0 limit of a coefficient; zero exactly when some admissible
    b-progression contains b = 0 (each such b contributes a bare q-factor)."""
    return ic.value.subs_q0()


@dataclass(frozen=True)
class PFItem:
    """One verified t-coefficient of the annihilation identity."""

    m: int
    ok: bool
    residual: RatFunc | None  # None on success or for the trivial range


@dataclass(frozen=True)
class PFReport:
    chain: ChainData
    items: tuple[PFItem, ...]

    @property
    def all_ok(self) -> bool:
        return all(item.ok for item in self.items)

    def failures(self) -> list[PFItem]:
        return [item for item in self.items if not item.ok]


def picard_fuchs_check(chain: ChainData, k_max: int) -> PFReport:
    """Verify the Picard-Fuchs annihilation coefficient-wise up to t^k_max.

    Since t d/dt acts on t^k as multiplication by k, applying the operator

        t^d * prod_{j,c} (c_j z t d/dt + c z + k_j q) - prod_{c=1}^{d} (z t d/dt - c z)

    to sum_k t^k I_k e_k and collecting t^m gives (using that the d-th power
    of the grading element is the identity, so the sector labels agree):

    * for 1 <= m <= d: only the second product contributes, and its factor
      with c = m is (m - m) z = 0, so the coefficient vanishes identically;
    * for m = k + d with k >= 1: the coefficient vanishes iff

        prod_{j=1}^{N} prod_{c=0}^{w_j-1} (c_j k z + c z + k_j q) * I_k
            = prod_{c=1}^{d} (k + d - c) z * I_{k+d}.

    Both sides are a scalar times a product of powers of linear forms, each
    form normalized to a primitive integer pair.  Q[z, q] is a unique
    factorization domain, so the identity holds exactly when the scalars
    agree and the two multisets of forms (exponent maps) agree; no
    polynomial is expanded.  Only a failing item expands both sides into
    rational functions, for its residual lhs - rhs.
    """
    if not is_calabi_yau(chain):
        raise ValueError("the Picard-Fuchs check needs a Calabi-Yau chain")
    d = chain.degree
    kw = weight_sequence(chain)
    coeffs: dict[int, Factored] = {}

    def ic(k: int) -> Factored:
        if k not in coeffs:
            coeffs[k] = _i_factored(chain, k)[0]
        return coeffs[k]

    items = []
    for m in range(1, k_max + 1):
        if m <= d:
            # the c = m factor of the second product is identically zero
            items.append(PFItem(m=m, ok=True, residual=None))
            continue
        k = m - d
        lhs = _times_forms(ic(k), (
            (cj * k + c, w)
            for cj, wj, w in zip(chain.charges, chain.weights, kw)
            for c in range(wj)
        ))
        scalar, exps = ic(k + d)
        rhs = _times_forms((scalar * perm(k + d - 1, d), exps), [(1, 0)] * d)
        ok = lhs == rhs
        items.append(PFItem(
            m=m, ok=ok, residual=None if ok else _to_ratfunc(lhs) - _to_ratfunc(rhs)
        ))
    return PFReport(chain=chain, items=tuple(items))


def big_i_factor(level: int, omega, weight: int) -> RatFunc:
    """One variable's ladder factor in the big I-function.

    For a ladder length D = ``level`` and initial shift ``omega`` it is

        prod_{0 <= m <= D-1} ((omega + m) z + k_j q)   for D >= 1,
        1                                              for D = 0,
        prod_{1 <= m <= -D} 1 / ((omega - m) z + k_j q) for D <= -1,

    with k_j the supplied equivariant weight.
    """
    omega = Fraction(omega)
    if level == 0:
        return RatFunc.one()
    if level >= 1:
        num = BivarPoly.constant(1)
        for m in range(level):
            num = num * BivarPoly.linear(omega + m, weight)
        return RatFunc.from_poly(num)
    den = BivarPoly.constant(1)
    for m in range(1, -level + 1):
        den = den * BivarPoly.linear(omega - m, weight)
    return RatFunc(BivarPoly.constant(1), den)
