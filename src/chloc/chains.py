"""Chain polynomials and their diagonal symmetries.

A chain polynomial in N variables is

    W = x_1^{a_1} x_2 + x_2^{a_2} x_3 + ... + x_{N-1}^{a_{N-1}} x_N + x_N^{a_N},

quasi-homogeneous for a unique primitive choice of positive integer weights
w_j and degree d.  The charge of x_j is w_j / d, and the chain is of
Calabi-Yau type when the degree equals the sum of the weights.

Diagonal symmetries diag(exp(2*pi*i*h_1), ..., exp(2*pi*i*h_N)) preserving W
are represented by their exponent vectors (rationals mod 1); an element is
broad when some entry is 0 and narrow otherwise.  The distinguished grading
element has exponents equal to the charges, and its powers label the sectors
of the theory.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm, prod


@dataclass(frozen=True)
class ChainData:
    """Exponents, primitive weights, degree and charges of a chain polynomial."""

    exponents: tuple[int, ...]
    weights: tuple[int, ...]
    degree: int
    charges: tuple[Fraction, ...]

    @property
    def n_variables(self) -> int:
        return len(self.exponents)

    def polynomial_str(self) -> str:
        parts = []
        n = self.n_variables
        for j, a in enumerate(self.exponents, start=1):
            head = f"x{j}^{a}" if a > 1 else f"x{j}"
            if j < n:
                parts.append(f"{head}*x{j + 1}")
            else:
                parts.append(head)
        return " + ".join(parts)


@dataclass(frozen=True, order=True)
class SymmetryElement:
    """A diagonal symmetry, as its vector of exponents in [0, 1).

    The exponents are exact: each is reduced mod 1 as a ``Fraction``, and a
    ``float`` is rejected, since its binary value is not the rational meant.
    """

    theta: tuple[Fraction, ...]

    def __post_init__(self):
        if any(isinstance(t, float) for t in self.theta):
            raise TypeError("symmetry exponents must be exact rationals, not floats")
        object.__setattr__(
            self, "theta", tuple(Fraction(t) % 1 for t in self.theta)
        )

    @classmethod
    def _reduced(cls, theta: tuple[Fraction, ...]) -> "SymmetryElement":
        """The element with exponents ``theta``, already Fractions in [0, 1)."""
        self = object.__new__(cls)
        object.__setattr__(self, "theta", theta)
        return self

    def __mul__(self, other: "SymmetryElement") -> "SymmetryElement":
        if len(self.theta) != len(other.theta):
            raise ValueError("size mismatch")
        return SymmetryElement(
            tuple((a + b) % 1 for a, b in zip(self.theta, other.theta))
        )

    def __pow__(self, k: int) -> "SymmetryElement":
        return SymmetryElement(tuple((k * t) % 1 for t in self.theta))

    def inverse(self) -> "SymmetryElement":
        return SymmetryElement(tuple((-t) % 1 for t in self.theta))

    @property
    def is_broad(self) -> bool:
        return any(t == 0 for t in self.theta)

    @property
    def is_narrow(self) -> bool:
        return not self.is_broad

    def __str__(self) -> str:
        return "(" + ", ".join(str(t) for t in self.theta) + ")"


def chain_solve(exponents) -> ChainData:
    """Solve the quasi-homogeneity system for a chain polynomial.

    The charges satisfy q_N = 1/a_N and q_j = (1 - q_{j+1}) / a_j; the
    degree is the least common denominator, which makes the weight vector
    primitive.  A final exponent a_N = 1 is rejected: the last variable
    would enter only linearly and the singularity degenerates.  Every
    exponent must be an ``int`` (not a ``bool``): nothing is truncated.
    """
    a = tuple(exponents)
    if any(not isinstance(x, int) or isinstance(x, bool) for x in a):
        raise ValueError("exponents must be integers")
    if not a:
        raise ValueError("need at least one exponent")
    if any(x < 1 for x in a):
        raise ValueError("exponents must be positive integers")
    if a[-1] == 1:
        raise ValueError(
            "last exponent must be at least 2 (a linear last variable gives a"
            " non-isolated singularity)"
        )
    n = len(a)
    charges = [Fraction(0)] * n
    charges[n - 1] = Fraction(1, a[n - 1])
    for j in range(n - 2, -1, -1):
        charges[j] = (1 - charges[j + 1]) / a[j]
    d = lcm(*(c.denominator for c in charges))
    weights = tuple(int(c * d) for c in charges)
    assert gcd(*weights, d) == 1
    for j in range(n - 1):
        assert a[j] * weights[j] + weights[j + 1] == d
    assert a[n - 1] * weights[n - 1] == d
    return ChainData(a, weights, d, tuple(charges))


def is_calabi_yau(chain: ChainData) -> bool:
    """True when the degree equals the sum of the weights."""
    return chain.degree == sum(chain.weights)


def weight_sequence(chain: ChainData) -> tuple[int, ...]:
    """The N+1 equivariant weights k_1 = 1, k_{j+1} = -a_j * k_j."""
    out = [1]
    for a in chain.exponents:
        out.append(-a * out[-1])
    return tuple(out)


def is_symmetry(chain: ChainData, g: SymmetryElement) -> bool:
    """Whether the exponent vector satisfies the chain constraints."""
    th = g.theta
    if len(th) != chain.n_variables:
        return False
    a = chain.exponents
    n = len(a)
    for j in range(n - 1):
        if (a[j] * th[j] + th[j + 1]) % 1 != 0:
            return False
    return (a[n - 1] * th[n - 1]) % 1 == 0


def symmetry_group(chain: ChainData) -> list[SymmetryElement]:
    """All diagonal symmetries, sorted: a cyclic group of order
    p = a_1 * a_2 * ... * a_N.

    theta_1 determines the rest through theta_{j+1} = -a_j * theta_j mod 1,
    and the last constraint a_N * theta_N = +-p * theta_1 = 0 mod 1 holds
    exactly when theta_1 = t/p.  So the elements are t = 0 .. p - 1 in
    increasing order of theta_1, which is their sorted order, and every
    entry is some t_j/p with t_{j+1} = -a_j * t_j mod p.  The walk runs on
    these integers one column j at a time over all t, and makes each of the
    p values ``Fraction(t, p)`` once.
    """
    a = chain.exponents
    p = prod(a)
    frac = [Fraction(t, p) for t in range(p)]
    ts, columns = range(p), [frac]
    for aj in a[:-1]:
        ts = [-aj * t % p for t in ts]
        columns.append([frac[t] for t in ts])
    return [SymmetryElement._reduced(theta) for theta in zip(*columns)]


def grading_element(chain: ChainData) -> SymmetryElement:
    """The distinguished symmetry whose exponents are the charges."""
    g = SymmetryElement(chain.charges)
    if not is_symmetry(chain, g):
        raise AssertionError("grading element fails the symmetry constraints")
    return g


def sector(chain: ChainData, k: int) -> SymmetryElement:
    """The k-th power of the grading element: its exponents k w_j / d mod 1
    are (k w_j mod d) / d, already reduced, so nothing is checked again."""
    d = chain.degree
    return SymmetryElement._reduced(tuple(Fraction(w * k % d, d) for w in chain.weights))


def selection_rule(chain: ChainData, g: int, n: int, insertions) -> bool:
    """Whether n insertions can decorate a genus-g moduli problem:
    the product of the insertions must equal the (2g-2+n)-th power of the
    grading element.  Requires a stable pair (2g-2+n > 0)."""
    if 2 * g - 2 + n <= 0:
        raise ValueError("unstable (g, n): need 2g - 2 + n > 0")
    elems = list(insertions)
    if len(elems) != n:
        raise ValueError("number of insertions must equal n")
    total = SymmetryElement((Fraction(0),) * chain.n_variables)
    for e in elems:
        total = total * e
    return total == sector(chain, 2 * g - 2 + n)
