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
"""

from fractions import Fraction
from hashlib import sha256
from random import Random

from chloc import (
    LocInput,
    QSeries,
    crosscheck_factors,
    equivariant_euler,
    euler_identity_check,
    hirzebruch_class,
    hodge_product,
    localization_product,
    q_exponential,
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


def test_seeded_sweep_is_byte_identical():
    digest = sha256("\n".join(sweep_lines()).encode()).hexdigest()
    assert digest == SWEEP_SHA256


def test_seeded_series_sweep_is_byte_identical():
    digest = sha256("\n".join(series_lines()).encode()).hexdigest()
    assert digest == SERIES_SWEEP_SHA256
