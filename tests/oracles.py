"""Independent oracles used to freeze expected values.

The truncated-series oracles work on plain coefficient lists over Fraction
and never touch the library's ring or series machinery, so agreement
between these expansions and the library is a genuine cross-check.  The
truncated-polynomial oracles work the same way on plain
``{exponent tuple: Fraction}`` maps, apart from ``chloc.rings``.  The
power-sum oracle for exp and invert multiplies whole series with
``QSeries`` products, which ``test_series`` checks against the schoolbook
double loop.  The I-function oracles multiply linear forms out as
``BivarPoly``/``RatFunc`` products and decide equality by
cross-multiplication, never using the factored form of
``chloc.ifunction``.  The symmetry-group oracle
back-substitutes ``Fraction`` exponents from the last variable and sorts,
where ``chloc.chains`` walks integer numerators forward from the first.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from chloc import BivarPoly, QSeries, RatFunc, SymmetryElement, ifunction, weight_sequence


def poly_trunc(a: dict, degrees, truncation: int) -> dict:
    """A plain ``{exponent tuple: Fraction}`` map without its zero terms
    and without its monomials of weighted degree above the truncation."""
    return {
        m: Fraction(c)
        for m, c in a.items()
        if c and sum(e * g for e, g in zip(m, degrees)) <= truncation
    }


def poly_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for m, c in b.items():
        out[m] = out.get(m, Fraction(0)) + c
    return {m: c for m, c in out.items() if c}


def poly_scale(c, a: dict) -> dict:
    return {m: Fraction(c) * x for m, x in a.items() if c}


def poly_mul(a: dict, b: dict, degrees, truncation: int) -> dict:
    """The truncated product, by the schoolbook double loop."""
    out: dict = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = tuple(x + y for x, y in zip(m1, m2))
            out[m] = out.get(m, Fraction(0)) + c1 * c2
    return poly_trunc(out, degrees, truncation)


def poly_exp(a: dict, degrees, truncation: int) -> dict:
    """sum_m a^m/m! for a with no constant term (a finite sum)."""
    one = {(0,) * len(degrees): Fraction(1)}
    out, power = one, one
    for m in range(1, truncation + 1):
        power = poly_mul(power, a, degrees, truncation)
        out = poly_add(out, poly_scale(Fraction(1, factorial(m)), power))
    return out


def poly_inverse(a: dict, degrees, truncation: int) -> dict:
    """1/a for a with a nonzero constant c: (1/c) sum_m (1 - a/c)^m."""
    zero = (0,) * len(degrees)
    c = a[zero]
    n = poly_add({zero: Fraction(1)}, poly_scale(-1 / c, a))
    out = power = {zero: Fraction(1)}
    for _ in range(truncation):
        power = poly_mul(power, n, degrees, truncation)
        out = poly_add(out, power)
    return poly_scale(1 / c, out)


def nilpotent_power_sum(series: QSeries, cutoff: int | None, coef) -> QSeries:
    """sum_{m>=0} coef(m) * series^m (coef(0) taken as 1) for an exact
    series with nilpotent coefficients, a finite sum, each power cut at
    q^cutoff (None keeps every term).  The sum of powers is a route to exp
    and to the inverse of 1 + series that is independent of the Chow-degree
    recurrence of ``chloc.series``."""
    ring = series.ring
    out = power = QSeries.one(ring)
    for m in range(1, ring.truncation + 1):
        power = power * series
        if cutoff is not None:
            kept = [e for e in power.exponents() if e <= cutoff]
            power = QSeries(ring, {e: power.coefficient(e) for e in kept})
        if power.is_zero:
            break
        out = out + power * coef(m)
    return out


def ser_trim(a: list[Fraction], order: int) -> list[Fraction]:
    out = list(a[: order + 1])
    while len(out) < order + 1:
        out.append(Fraction(0))
    return out


def ser_add(a, b, order):
    a, b = ser_trim(a, order), ser_trim(b, order)
    return [x + y for x, y in zip(a, b)]


def ser_scale(c, a, order):
    return [Fraction(c) * x for x in ser_trim(a, order)]


def ser_mul(a, b, order):
    a, b = ser_trim(a, order), ser_trim(b, order)
    out = [Fraction(0)] * (order + 1)
    for i, x in enumerate(a):
        if not x:
            continue
        for j in range(order + 1 - i):
            if b[j]:
                out[i + j] += x * b[j]
    return out


def ser_inv(a, order):
    """Inverse of a series with a[0] != 0."""
    a = ser_trim(a, order)
    if not a[0]:
        raise ZeroDivisionError("series has no constant term")
    out = [Fraction(0)] * (order + 1)
    out[0] = 1 / a[0]
    for m in range(1, order + 1):
        s = Fraction(0)
        for k in range(1, m + 1):
            s += a[k] * out[m - k]
        out[m] = -s / a[0]
    return out


def ser_exp_x(order):
    """exp(x) as a coefficient list."""
    return [Fraction(1, factorial(n)) for n in range(order + 1)]


def ser_pow(a, n, order):
    out = ser_trim([Fraction(1)], order)
    for _ in range(n):
        out = ser_mul(out, a, order)
    return out


def expm1_over_x(order):
    """(exp(x) - 1) / x."""
    return [Fraction(1, factorial(n + 1)) for n in range(order + 1)]


def bernoulli_oracle(n: int) -> Fraction:
    """B_n(0) read off the generating function x / (exp(x) - 1)."""
    g = ser_inv(expm1_over_x(n), n)
    return g[n] * factorial(n)


def stirling_oracle(l: int, k: int) -> Fraction:
    """l! times the x^l coefficient of (exp(x) - 1)^k / k!."""
    em1 = ser_exp_x(l)
    em1[0] = Fraction(0)
    p = ser_pow(em1, k, l)
    return p[l] * factorial(l) / factorial(k)


def reciprocal_expm1(order: int) -> dict[int, Fraction]:
    """1 / (exp(x) - 1) as a Laurent map exponent -> coefficient."""
    g = ser_inv(expm1_over_x(order + 1), order + 1)
    return {n - 1: c for n, c in enumerate(g) if c}


def line_todd(order: int) -> list[Fraction]:
    """x / (1 - exp(-x)) as a power series in x."""
    # (1 - exp(-x)) / x
    body = [
        Fraction((-1) ** n, factorial(n + 1)) for n in range(order + 1)
    ]
    return ser_inv(body, order)


def line_hirzebruch(t: Fraction, order: int) -> list[Fraction]:
    """x * (exp(x) - t) / (exp(x) - 1) as a power series in x."""
    num = ser_exp_x(order)
    num[0] -= Fraction(t)
    return ser_mul(num, ser_inv(expm1_over_x(order), order), order)


def line_euler_twist(order: int) -> dict[int, Fraction]:
    """q / (1 - exp(-q)) as a Laurent map (all exponents >= 0)."""
    return {n: c for n, c in enumerate(line_todd(order)) if c}


def i_value_product(chain, k: int) -> RatFunc:
    """I_k = -z prod_j prod_{b in B_j(k)} (b z + k_j q) / prod_{0<b<k} b z,
    multiplied out form by form.  B_j(k) is read from ``ifunction.b_range``
    at call time, so a patched progression reaches this oracle too."""
    kw = weight_sequence(chain)
    num = BivarPoly.linear(-1, 0)
    for j in range(1, chain.n_variables + 1):
        for b in ifunction.b_range(chain, j, k):
            num = num * BivarPoly.linear(b, kw[j - 1])
    den = BivarPoly.constant(1)
    for b in range(1, k):
        den = den * BivarPoly.linear(b, 0)
    return RatFunc(num, den)


def pf_cross_multiply(chain, k_max: int, values=None) -> list[tuple[int, bool, RatFunc | None]]:
    """(m, ok, residual) for t^1 .. t^k_max of the Picard-Fuchs recurrence

        prod_{j,c} (c_j k z + c z + k_j q) * I_k = prod_{c=1}^{d} (k + d - c) z * I_{k+d}

    at m = k + d, with both sides built as ``RatFunc`` products and compared
    by cross-multiplication; the items m <= d hold trivially.  ``values``,
    if given, is a dict k -> I_k that is read and filled with
    ``i_value_product``."""
    d = chain.degree
    kw = weight_sequence(chain)
    values = {} if values is None else values

    def value(k):
        if k not in values:
            values[k] = i_value_product(chain, k)
        return values[k]

    out = [(m, True, None) for m in range(1, min(d, k_max) + 1)]
    for m in range(d + 1, k_max + 1):
        k = m - d
        lhs = value(k)
        for j in range(chain.n_variables):
            for c in range(chain.weights[j]):
                lhs = lhs * RatFunc.from_poly(BivarPoly.linear(chain.charges[j] * k + c, kw[j]))
        scale = 1
        for c in range(1, d + 1):
            scale *= k + d - c
        rhs = value(k + d) * RatFunc.from_poly(BivarPoly({(d, 0): scale}))
        ok = lhs == rhs
        out.append((m, ok, None if ok else lhs - rhs))
    return out


def symmetry_group_back_substitution(exponents) -> list[SymmetryElement]:
    """The diagonal symmetries of the chain with these exponents, sorted:
    theta_N runs over m/a_N, then each theta_j solves
    a_j * theta_j = -theta_{j+1} mod 1 in a_j ways, all in ``Fraction``."""
    partial: list[tuple[Fraction, ...]] = [()]
    for a in reversed(exponents):
        nxt = []
        for tail in partial:
            base = (-tail[0] if tail else Fraction(0)) % 1
            for m in range(a):
                nxt.append(((base + m) / a,) + tail)
        partial = nxt
    return sorted(SymmetryElement(t) for t in partial)
