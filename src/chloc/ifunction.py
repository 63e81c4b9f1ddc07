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

Every b in B_j(k) is n/d with an integer n (d the degree of the chain), so
each form b z + k_j q is (n z + d k_j q)/d, and I_k is kept raw in
integers: -z^(2-k)/D_k times the forms, D_k = (k-1)! d^count, over the
numerators N_j(k) of each variable, a ``range`` of step d.  A Picard-Fuchs
step compares ranges and one integer equation; only a mismatch is
normalized, into an exact scalar and a map from primitive integer pairs
(a, b) to the exponents of the forms a z + b q, one gcd per form.  A
product of forms is expanded as one integer product (``_expand``), with no
polynomial gcd: the raw I_k has a power of z as denominator and no form is
a multiple of z; normalized forms are distinct primitive forms, hence
coprime, and by Gauss's lemma each product has content 1 and a positive
leading coefficient.  Either way the expansion is ``RatFunc``'s canonical
form.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, partial
from math import factorial, gcd, lcm, perm, prod

from .chains import ChainData, SymmetryElement, is_calabi_yau, sector, weight_sequence
from .ratfunc import BivarPoly, RatFunc
from .rings import _exact, _require_int

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


def _b_numerators(chain: ChainData, j: int, k: int) -> range:
    """The numerators n of the b = n/d in B_j(k), d the degree of the chain.

    c_j * k = w_j * k / d, so n runs from w_j * k mod d in steps of d while
    below w_j * k; n = 0 (b = 0) stays only when N - j is odd.
    """
    d = chain.degree
    top = chain.weights[j - 1] * k
    start = top % d
    if start == 0 and (chain.n_variables - j) % 2 == 0:
        start = d
    return range(start, top, d)


def b_range(chain: ChainData, j: int, k: int) -> tuple[Fraction, ...]:
    """The admissible b-progression for variable j (1-based) at level k.

    A step-1 arithmetic progression: the fractional part of c_j * k,
    shifted up while staying below c_j * k; b = 0 is allowed only when
    N - j is odd.
    """
    _require_int(j=j, k=k)
    if not 1 <= j <= chain.n_variables:
        raise ValueError("variable index out of range")
    return tuple(Fraction(n, chain.degree) for n in _b_numerators(chain, j, k))


def _primitive(x: int, y: int) -> tuple[int, tuple[int, int]]:
    """Write x*z + y*q (integers, not both zero) as g * (x'*z + y'*q), with
    x' and y' coprime and the first nonzero one positive."""
    g = gcd(x, y)
    if x < 0 or (x == 0 and y < 0):
        g = -g
    return g, (x // g, y // g)


def _linear_form(a, b) -> tuple[Fraction, tuple[int, int]]:
    """Write a*z + b*q (not both zero) as s * (x*z + y*q), with x and y
    coprime integers whose first nonzero entry is positive."""
    a, b = Fraction(a), Fraction(b)
    den = lcm(a.denominator, b.denominator)
    g, key = _primitive(int(a * den), int(b * den))
    return Fraction(g, den), key


def _i_raw(chain: ChainData, k: int) -> tuple[int, list[range]]:
    """I_k raw as (D_k, nums): I_k = -z^(2-k)/D_k prod_j prod_{n in nums[j]}
    (n z + d k_j q) with D_k = (k-1)! d^count, as b z + k_j q is
    (n z + d k_j q)/d with d the degree of the chain; nums[j] = N_j(k)."""
    nums = [_b_numerators(chain, j, k) for j in range(1, chain.n_variables + 1)]
    return factorial(k - 1) * chain.degree ** sum(map(len, nums)), nums


def _normalized(chain: ChainData, scalar: Fraction, z_power: int, nums) -> Factored:
    """scalar * z^z_power * prod_j prod_{n in nums[j]} (n z + d k_j q), factored
    by one gcd per form, its content folded into the scalar.  No k_j is 0, so
    no form is a multiple of z and the key (1, 0) holds z_power alone."""
    exps = Counter({(1, 0): z_power} if z_power else ())
    content = 1
    for ns, kj in zip(nums, weight_sequence(chain)):
        for n in ns:
            g, key = _primitive(n, chain.degree * kj)
            content *= g
            exps[key] += 1
    return Fraction(content * scalar.numerator, scalar.denominator), exps


def _expand(forms, scalar: Fraction, shift: int = 0) -> BivarPoly:
    """scalar times z^shift times the product of the linear forms a*z + b*q
    over the integer pairs (a, b), by Kronecker substitution: the base-2^w
    digits of prod (a 2^w + b) are the coefficients of z^i q^(n-i).  No
    coefficient exceeds prod (|a| + |b|) in size, so with w a whole number
    of bytes and 2^(w-1) above that bound, digits biased by 2^(w-1) carry
    nothing."""
    forms = list(forms)
    n, size = len(forms), prod(abs(a) + abs(b) for a, b in forms).bit_length() // 8 + 1
    half = 1 << (8 * size - 1)
    bias = int.from_bytes((bytes(size - 1) + b"\x80") * (n + 1), "little")
    digits = (prod((a << 8 * size) + b for a, b in forms) + bias).to_bytes(size * (n + 1), "little")
    sn, sd = scalar.numerator, scalar.denominator
    coeffs = (int.from_bytes(digits[i * size:(i + 1) * size], "little") - half for i in range(n + 1))
    return BivarPoly._raw({(i + shift, n - i): Fraction(sn * c, sd) for i, c in enumerate(coeffs) if c})


def _to_ratfunc(factored: Factored) -> RatFunc:
    """The factored form expanded, already in canonical form (see the
    module docstring): the exponent map holds each form once, so the
    numerator and denominator forms are distinct.  The power of z enters
    as a shift of the monomials."""
    scalar, exps = factored
    e = exps.get((1, 0), 0)
    forms = [(key, n) for key, n in exps.items() if key != (1, 0)]
    return RatFunc._raw(
        _expand((key for key, n in forms for _ in range(n)), scalar, max(e, 0)),
        _expand((key for key, n in forms for _ in range(-n)), Fraction(1), max(-e, 0)),
    )


def i_coefficient(chain: ChainData, k: int) -> ICoefficient:
    """The coefficient of t^k of the equivariant small I-function."""
    _require_int(k=k)
    if not is_calabi_yau(chain):
        raise ValueError("the small I-function needs a Calabi-Yau chain")
    if k < 1:
        raise ValueError("the level k must be a positive integer")
    denominator, nums = _i_raw(chain, k)
    forms = [(n, chain.degree * kj) for ns, kj in zip(nums, weight_sequence(chain)) for n in ns]
    return ICoefficient(
        k=k,
        sector=sector(chain, k),
        value=RatFunc._raw(_expand(forms, Fraction(-1, denominator), max(2 - k, 0)),
                           BivarPoly._raw({(max(k - 2, 0), 0): Fraction(1)})),
        b_sets=tuple(tuple(Fraction(n, chain.degree) for n in ns) for ns in nums),
    )


def nonequivariant_limit(ic: ICoefficient) -> RatFunc:
    """The q -> 0 limit of a coefficient; zero exactly when some admissible
    b-progression contains b = 0 (each such b contributes a bare q-factor).

    I_k is homogeneous, so at q = 0 its numerator and its denominator (a
    power of z) keep one term each, a z^n and b z^m, whose canonical
    quotient is (a/b) z^(n - l) / z^(m - l), l = min(n, m): no gcd."""
    (n, a), (m, b) = (
        next(((i, c) for (i, j), c in p.items() if j == 0), (0, 0))
        for p in (ic.value.num, ic.value.den)
    )
    if not a:
        return RatFunc.zero()
    low = min(n, m)
    num = BivarPoly._raw({(n - low, 0): a / b})
    return RatFunc._raw(num, BivarPoly._raw({(m - low, 0): Fraction(1)}))


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


def _follows(ns, top: int, stop: int, d: int, nk) -> bool:
    """Whether ns followed by range(top, stop, d) is nk, decided on ranges:
    only when ns is the range of step d that ends just below top."""
    start = top - d * len(ns)
    return ns == range(start, top, d) and nk == range(start, stop, d)


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

    The operator's forms are ((w_j k + c d) z + d k_j q)/d, raw forms like
    those of I_k (d the degree), and both sides carry -z^(2-k).  So the left
    side is 1/(D_k d^d) times the forms over N_j(k) followed by
    range(w_j k, w_j (k + d), d), the right side (k + d - 1)!/(k - 1)!/D_{k+d}
    times those over N_j(k+d).  Equal integer scalars and equal ranges per
    variable (``_follows``) are equal raw forms, the same polynomial.  Any
    other raw form is normalized on both sides and compared as scalars and
    multisets of primitive forms, which decides the item exactly since
    Q[z, q] has unique factorization.  Only a failing item is expanded into
    rational functions, for its residual lhs - rhs.
    """
    _require_int(k_max=k_max)
    if not is_calabi_yau(chain):
        raise ValueError("the Picard-Fuchs check needs a Calabi-Yau chain")
    if k_max < 1:
        raise ValueError("k_max must be a positive integer")
    d = chain.degree
    d_to_d = d**d
    ic = cache(partial(_i_raw, chain))

    # 1 <= m <= d: the c = m factor of the second product is identically zero
    items = [PFItem(m=m, ok=True, residual=None) for m in range(1, min(d, k_max) + 1)]
    for k in range(1, k_max - d + 1):
        (dk, nums), (dkd, nums_kd), p = ic(k), ic(k + d), perm(k + d - 1, d)
        # sum(w_j) = d operator factors on a Calabi-Yau chain
        ok = dkd == p * dk * d_to_d and all(
            _follows(ns, wj * k, wj * (k + d), d, nk)
            for ns, nk, wj in zip(nums, nums_kd, chain.weights)
        )
        if not ok:
            ext = [[*ns, *range(wj * k, wj * (k + d), d)] for ns, wj in zip(nums, chain.weights)]
            lhs, rhs = (_normalized(chain, s, 2 - k, ns) for s, ns in
                        ((Fraction(-1, dk * d_to_d), ext), (Fraction(-p, dkd), nums_kd)))
            ok = lhs == rhs
        residual = None if ok else _to_ratfunc(lhs) - _to_ratfunc(rhs)
        items.append(PFItem(m=k + d, ok=ok, residual=residual))
    return PFReport(chain=chain, items=tuple(items))


def big_i_factor(level: int, omega, weight: int) -> RatFunc:
    """One variable's ladder factor in the big I-function.

    For a ladder length D = ``level`` and initial shift ``omega`` it is

        prod_{0 <= m <= D-1} ((omega + m) z + k_j q)   for D >= 1,
        1                                              for D = 0,
        prod_{1 <= m <= -D} 1 / ((omega - m) z + k_j q) for D <= -1,

    with k_j the supplied equivariant weight.  A zero form (weight 0 and
    omega + m = 0) makes the product 0 for D >= 1 and raises
    ``ZeroDivisionError`` for D <= -1.
    """
    _require_int(level=level, weight=weight)
    omega = _exact(omega)
    sign = 1 if level >= 0 else -1
    scalar, exps = Fraction(1), Counter()
    # omega + m over m = 0 .. D-1, or over m = D .. -1 for D <= -1
    for m in range(min(level, 0), max(level, 0)):
        if omega + m == 0 and weight == 0:
            if sign > 0:
                return RatFunc.zero()
            raise ZeroDivisionError("zero denominator")
        s, key = _linear_form(omega + m, weight)
        scalar *= s
        exps[key] += sign
    return _to_ratfunc((scalar if sign > 0 else 1 / scalar, exps))
