"""A seeded byte-identity sweep over every weighted-product caller.

The ``str`` of each result below, joined by newlines, must hash to a value
recorded from an earlier version of the code: a change meant to keep every
result the same (a refactor, a faster kernel) must not move a single
character.  An exception counts as a result, by its type and message.

Recipe: ``Random(2024)``, 150 inputs, each a ``sample_ring(max_truncation=3)``
with 1-4 weighted classes whose second weight repeats the first; per input
the Euler class, the twist ratio, the Todd class, the Hirzebruch class at a
rational t and at the formal t = exp(-kq), the identity check, the Hodge
product, the localization product with T != V and with T = V, and both sides
of the crosscheck.

A second sweep pins ``QSeries.exp`` and ``QSeries.invert`` directly:
``Random(2019)``, 60 ``sample_ring(max_truncation=4)`` inputs, each a series
with nilpotent coefficients down to q^-D (as the grading bound allows) and
0-2 scalars at q^1..q^3, its exp and the inverse of 3 + c q plus the series
times a power of q, at q_max None, 3 and 8 and at the orders None, 0 and 5.

A third sweep pins the I-function layer on the 21 Calabi-Yau chains with at
most 4 variables and exponents at most 6: every Picard-Fuchs item (m, ok,
residual) up to t^(degree + 16), the symmetry group, and I_k with its
sector, b-sets and q -> 0 limit for k up to degree + 16.  Then the failing
items of two perturbed checks: the last numerator of B_3(7) of (2, 2, 3)
and (3, 2, 2) raised by the degree, and the right side's (k + d - 1)!/(k - 1)!
raised by 1 at k = 3 on every chain.  Last, ``big_i_factor`` on a grid of
levels, exact shifts and weights.
"""

from fractions import Fraction
from hashlib import sha256
from itertools import product
from math import perm
from random import Random

from chloc import (
    LocInput,
    QSeries,
    big_i_factor,
    chain_solve,
    crosscheck_factors,
    equivariant_euler,
    euler_identity_check,
    hirzebruch_class,
    hodge_product,
    i_coefficient,
    ifunction,
    is_calabi_yau,
    localization_product,
    nonequivariant_limit,
    picard_fuchs_check,
    q_exponential,
    symmetry_group,
    todd,
    todd_twist_ratio,
)
from chloc.sampling import (
    sample_chow,
    sample_coefficient,
    sample_kclass,
    sample_ring,
    sample_weight,
)

SWEEP_SHA256 = "2505475c596ee847e04b3d4f8a4ac2bf86170090860f9c891a3ff5563965e686"
SERIES_SWEEP_SHA256 = "30153076f47e1a8c6b683813e7e93b72f1a8f1a59f45c493bd2aabf44899ed01"
IFUNCTION_SWEEP_SHA256 = "f08940db114b9a0c01c2dbaf2acdf5aa72d744a2752ff109a18927abea93f418"


def _identity(x, k):
    check = euler_identity_check(x, k)
    return f"{check.equal} {check.rhs}"


def _crosscheck(ring, weighted):
    r = crosscheck_factors(ring, weighted)
    return f"{r.side_euler}\n{r.side_hirzebruch}\n{r.passed} {r.span_failures}"


def _results(ring, weighted, t):
    (x, k), rest = weighted[0], weighted[1:]
    q = ring.q_max
    yield lambda: equivariant_euler(x, k)
    yield lambda: todd_twist_ratio(x, k)
    yield lambda: todd(x)
    yield lambda: hirzebruch_class(t, x)
    yield lambda: hirzebruch_class(q_exponential(ring, -k, q), x, q - 1)
    yield lambda: _identity(x, k)
    yield lambda: hodge_product(LocInput(ring, x, k, rest))
    yield lambda: localization_product(x, k, weighted, rest, weighted[:1], q)
    yield lambda: localization_product(x, k, weighted, weighted, rest, q)
    yield lambda: _crosscheck(ring, weighted)


def sweep_lines():
    rng = Random(2024)
    for _ in range(150):
        ring = sample_ring(rng, max_truncation=3)
        weighted = [(sample_kclass(rng, ring), sample_weight(rng))
                    for _ in range(rng.randint(1, 4))]
        if len(weighted) > 1:
            weighted[1] = (weighted[1][0], weighted[0][1])
        t = Fraction(1)
        while t == 1:
            t = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        yield from _strings(_results(ring, weighted, t))


def _strings(results):
    for result in results:
        try:
            yield str(result())
        except (ArithmeticError, ValueError) as exc:
            yield f"{type(exc).__name__}: {exc}"


def _nilpotent(rng, ring):
    """Homogeneous coefficients of degree at least max(1, -e) at q^e, e >= -D."""
    D = ring.truncation
    return {e: sample_chow(rng, ring, rng.randint(max(1, -e), D))
            for e in rng.sample(range(-D, 4), rng.randint(1, D + 3))}


def series_lines():
    rng = Random(2019)
    for _ in range(60):
        ring = sample_ring(rng, max_truncation=4)
        nil = _nilpotent(rng, ring)
        scal = {e: sample_coefficient(rng) for e in rng.sample(range(1, 4), rng.randint(0, 2))}
        coeffs = {e: nil.get(e, ring.zero()) + scal.get(e, 0) for e in {*nil, *scal}}
        for q_max in (None, 3, 8):
            arg = QSeries(ring, coeffs, q_max)
            for order in (None, 0, 5):
                one = QSeries.from_scalars(ring, {0: 3, 1: sample_coefficient(rng)}, q_max)
                unit = (arg + one).shifted(rng.randint(-2, 2))
                yield from _strings((lambda: arg.exp(order), lambda: unit.invert(order)))


def _cy_chains():
    for n in range(1, 5):
        for a in product(range(1, 7), repeat=n):
            if a[-1] != 1 and is_calabi_yau(chain_solve(a)):
                yield chain_solve(a)


def _pf_items(chain, failures=False):
    report = picard_fuchs_check(chain, chain.degree + 16)
    shown = report.failures() if failures else report.items
    return "\n".join(f"{i.m} {i.ok} {i.residual}" for i in shown)


def ifunction_lines():
    for chain in _cy_chains():
        yield _pf_items(chain)
        yield " ".join(map(str, symmetry_group(chain)))
        for k in range(1, chain.degree + 17):
            ic = i_coefficient(chain, k)
            yield f"{ic.k} {ic.sector} {ic.value} {ic.b_sets} {nonequivariant_limit(ic)}"
    for level, omega, weight in product(
        range(-3, 4), (0, 1, -2, Fraction(1, 2), Fraction(-2, 3)), (-4, -1, 0, 1, 3)
    ):
        yield from _strings((lambda: big_i_factor(level, omega, weight),))


def perturbed_ifunction_lines(monkeypatch):
    """The failing items of the two perturbed checks (module docstring)."""
    numerators = ifunction._b_numerators

    def raised_numerator(chain, j, k):
        ns = list(numerators(chain, j, k))
        if (j, k) == (3, 7):
            ns[-1] += chain.degree
        return ns

    with monkeypatch.context() as patch:
        patch.setattr(ifunction, "_b_numerators", raised_numerator)
        for a in [(2, 2, 3), (3, 2, 2)]:
            yield _pf_items(chain_solve(a), failures=True)
    with monkeypatch.context() as patch:
        patch.setattr(ifunction, "perm", lambda n, r: perm(n, r) + (1 if n - r == 2 else 0))
        for chain in _cy_chains():
            yield _pf_items(chain, failures=True)


def test_seeded_sweep_is_byte_identical():
    digest = sha256("\n".join(sweep_lines()).encode()).hexdigest()
    assert digest == SWEEP_SHA256


def test_seeded_series_sweep_is_byte_identical():
    digest = sha256("\n".join(series_lines()).encode()).hexdigest()
    assert digest == SERIES_SWEEP_SHA256


def test_ifunction_sweep_is_byte_identical(monkeypatch):
    lines = [*ifunction_lines(), *perturbed_ifunction_lines(monkeypatch)]
    digest = sha256("\n".join(lines).encode()).hexdigest()
    assert digest == IFUNCTION_SWEEP_SHA256
