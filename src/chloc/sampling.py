"""Seeded pseudo-random inputs for property runs.

Reproducibility contract: all samplers are driven by an explicit
``random.Random`` instance, so a recorded seed pins the whole run (both in
the test suite and in seeded job files).
"""

from __future__ import annotations

from fractions import Fraction
from random import Random

from .charclasses import KClass
from .rings import ChowElement, Ring


def sample_coefficient(rng: Random) -> Fraction:
    """A small nonzero rational."""
    num = 0
    while num == 0:
        num = rng.randint(-4, 4)
    return Fraction(num, rng.randint(1, 3))


def sample_chow(rng: Random, ring: Ring, degree: int, max_terms: int = 2) -> ChowElement:
    """A random homogeneous class of the given degree (zero if none exists)."""
    monos = ring.monomials(degree)
    if not monos:
        return ring.zero()
    count = rng.randint(1, min(max_terms, len(monos)))
    picked = rng.sample(monos, count)
    return ring.element({m: sample_coefficient(rng) for m in picked})


def sample_kclass(
    rng: Random,
    ring: Ring,
    rank_min: int = -3,
    rank_max: int = 4,
) -> KClass:
    """A random virtual bundle: integer rank and Chern characters, each zero
    with probability 0.3."""
    ch = []
    for l in range(1, ring.truncation + 1):
        if rng.random() < 0.3:
            ch.append(ring.zero())
        else:
            ch.append(sample_chow(rng, ring, l))
    return KClass(ring, rng.randint(rank_min, rank_max), ch)


def sample_weight(rng: Random) -> int:
    """A nonzero integer weight in [-3, 3]."""
    w = 0
    while w == 0:
        w = rng.randint(-3, 3)
    return w


def sample_ring(rng: Random, max_gens: int = 3, max_truncation: int = 4) -> Ring:
    """A random ring with at least one degree-1 generator."""
    names = ["a", "b", "c", "e"]
    ngens = rng.randint(1, max_gens)
    gens = [("a", 1)]
    for i in range(1, ngens):
        gens.append((names[i], rng.randint(1, 2)))
    return Ring(gens, rng.randint(1, max_truncation))
