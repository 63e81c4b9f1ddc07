"""Checks made apart from chloc's series, class and I-function code.

Each ``check_*`` function takes a result computed by chloc and returns an
empty string when it agrees with an independent computation, or a message
naming the first disagreement.  The independent side uses plain dicts and
``Fraction`` only; chloc objects are read through their public accessors
(``items``, ``coefficient``, ``exponents``).
"""

from __future__ import annotations

import importlib.util
import sys
from fractions import Fraction
from math import ceil, lcm, prod
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _load_oracles():
    """tests/oracles.py, read without writing bytecode into tests/."""
    path = ROOT / "tests" / "oracles.py"
    spec = importlib.util.spec_from_file_location("chloc_bench_oracles", path)
    module = importlib.util.module_from_spec(spec)
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


ORACLES = _load_oracles()

# A generic rational point for evaluating rational functions in (z, q).
Z, Q = Fraction(7, 3), Fraction(-5, 11)


# -- e_{kq} of a sum of line bundles ----------------------------------------------


def _chow_mul(a: dict, b: dict, degrees, truncation) -> dict:
    out: dict = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = tuple(x + y for x, y in zip(m1, m2))
            if sum(e * g for e, g in zip(m, degrees)) <= truncation:
                out[m] = out.get(m, 0) + c1 * c2
    return {m: c for m, c in out.items() if c}


def euler_of_roots(roots: list[dict], weight: int, degrees, truncation) -> dict:
    """prod_i (weight*q + a_i) as {q exponent: {monomial: coefficient}}."""
    poly = {0: {(0,) * len(degrees): Fraction(1)}}
    for root in roots:
        nxt: dict = {}
        for e, c in poly.items():
            for exp, term in ((e + 1, {m: v * weight for m, v in c.items()}),
                              (e, _chow_mul(c, root, degrees, truncation))):
                acc = nxt.setdefault(exp, {})
                for m, v in term.items():
                    acc[m] = acc.get(m, 0) + v
        poly = {e: {m: v for m, v in c.items() if v} for e, c in nxt.items()}
    return {e: c for e, c in poly.items() if c}


def check_euler_of_roots(series, roots, weight: int) -> str:
    """``series`` = e_{weight*q} of the bundle with Chern roots ``roots``."""
    ring = series.ring
    expect = euler_of_roots(
        [dict(a.items()) for a in roots], weight, ring.degrees, ring.truncation
    )
    got = {e: dict(series.coefficient(e).items()) for e in series.exponents()}
    if got != expect:
        return f"e_{{{weight}q}} of {len(roots)} roots is not the product of (kq + a_i)"
    return ""


# -- Todd and Hirzebruch classes of a line bundle ------------------------------------


def check_line_bundle_classes(todd_value, hirzebruch_value, scale: int, t) -> str:
    """``todd_value`` = Td(L) and ``hirzebruch_value`` = c_t(L) for the line
    bundle with root ``scale*x`` on a ring with the single generator x."""
    D = todd_value.ring.truncation
    td = ORACLES.line_todd(D)
    hz = ORACLES.line_hirzebruch(Fraction(t), D)
    for n in range(D + 1):
        if todd_value.coefficient((n,)) != td[n] * scale**n:
            return f"Td of the line bundle {scale}x differs from the oracle at x^{n}"
        if hirzebruch_value.coefficient((n,)) != hz[n] * scale**n:
            return f"c_t at t={t} of the line bundle {scale}x differs from the oracle at x^{n}"
    return ""


# -- chains and the I-function ----------------------------------------------------------


def charges_of(exponents) -> list[Fraction]:
    """q_N = 1/a_N and q_j = (1 - q_{j+1})/a_j."""
    a = list(exponents)
    c = [Fraction(0)] * len(a)
    c[-1] = Fraction(1, a[-1])
    for j in range(len(a) - 2, -1, -1):
        c[j] = (1 - c[j + 1]) / a[j]
    return c


def q_weights_of(exponents) -> list[int]:
    out = [1]
    for a in exponents:
        out.append(-a * out[-1])
    return out


def b_range_brute(exponents, j: int, k: int) -> tuple[Fraction, ...]:
    """B_j(k) by scanning every multiple of 1/den(c_j*k) in [0, c_j*k]."""
    n = len(exponents)
    top = charges_of(exponents)[j - 1] * k
    den = top.denominator
    delta = -1 if (n - j) % 2 else 0
    out = []
    for i in range(ceil(top) * den + 1):
        b = Fraction(i, den)
        if delta < b < top and (top - b).denominator == 1:
            out.append(b)
    return tuple(out)


def i_value_at_point(exponents, k: int, q=Q) -> Fraction:
    """I_k(Z, q) from the product formula, with brute-force B_j(k)."""
    kw = q_weights_of(exponents)
    val = -Z
    for j in range(1, len(exponents) + 1):
        for b in b_range_brute(exponents, j, k):
            val *= b * Z + kw[j - 1] * q
    for b in range(1, k):
        val /= b * Z
    return val


def _evaluate(poly, z, q) -> Fraction:
    return sum((c * z**i * q**j for (i, j), c in poly.items()), Fraction(0))


def evaluate_ratfunc(value, z=Z, q=Q) -> Fraction:
    return _evaluate(value.num, z, q) / _evaluate(value.den, z, q)


def check_i_coefficient(exponents, ic, limit, b_ranges) -> str:
    """``ic`` = i_coefficient(chain, k), ``limit`` its q -> 0 limit and
    ``b_ranges`` the library's b_range(chain, j, k) for every j."""
    k = ic.k
    brute = tuple(b_range_brute(exponents, j, k) for j in range(1, len(exponents) + 1))
    if tuple(ic.b_sets) != brute or tuple(b_ranges) != brute:
        return f"B_j({k}) of {tuple(exponents)} differs from brute force"
    if evaluate_ratfunc(ic.value) != i_value_at_point(exponents, k):
        return f"I_{k} of {tuple(exponents)} differs from the product formula"
    if limit.is_zero != any(Fraction(0) in bs for bs in brute):
        return f"limit of I_{k} of {tuple(exponents)} vanishes wrongly"
    if evaluate_ratfunc(limit, Z, 0) != i_value_at_point(exponents, k, q=0):
        return f"limit of I_{k} of {tuple(exponents)} differs from the formula at q=0"
    return ""


def check_i_223(values) -> str:
    """``values`` = I_1, I_2, I_3 of the (2,2,3) chain: -z, -1 and q/z by hand."""
    for k, (value, expect) in enumerate(zip(values, (-Z, Fraction(-1), Q / Z)), 1):
        if evaluate_ratfunc(value) != expect:
            return f"I_{k} of (2, 2, 3) differs from its hand value"
    return ""


def check_symmetry_group(exponents, group) -> str:
    """The diagonal symmetries: prod(a) distinct solutions of the chain
    congruences a_j*h_j + h_{j+1} = 0 and a_N*h_N = 0 (mod 1)."""
    a = list(exponents)
    thetas = [g.theta for g in group]
    if len(set(thetas)) != len(thetas) or len(thetas) != prod(a):
        return f"symmetry group of {tuple(a)} does not have {prod(a)} elements"
    for th in thetas:
        tail = [a[j] * th[j] + th[j + 1] for j in range(len(a) - 1)] + [a[-1] * th[-1]]
        if any(x.denominator != 1 for x in tail) or not all(0 <= t < 1 for t in th):
            return f"{th} is not a symmetry of {tuple(a)}"
    return ""


def check_chain_report(exponents, fields: dict) -> str:
    """The ``chain analyze`` fields against charges computed here."""
    c = charges_of(exponents)
    d = lcm(*(x.denominator for x in c))
    weights = tuple(int(x * d) for x in c)
    expect = {
        "weights": "(" + ", ".join(map(str, weights)) + ")",
        "degree": str(d),
        "calabi_yau": "true" if d == sum(weights) else "false",
        "aut_order": str(prod(exponents)),
        "q_weights": "(" + ", ".join(map(str, q_weights_of(exponents))) + ")",
    }
    for key, value in expect.items():
        if fields.get(key) != value:
            return f"chain analyze {tuple(exponents)}: {key} is {fields.get(key)!r}, not {value!r}"
    return ""
