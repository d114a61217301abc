"""The 8th cyclotomic ring Z[xi] (xi = exp(i.pi/4)) as a rank-4 module.

Elements are exact rational combinations a0 + a1.xi + a2.xi^2 + a3.xi^3,
reduced by xi^4 = -1, stored as four integers over one positive
denominator in lowest terms, so equal elements compare equal and ring
operations run on Python ints; ``coeffs`` is the rational view.
Multiplication by a fixed element is a linear map of the coefficient
row vectors, which is how ring rotations enter the lattice machinery:
the plane rotation by an angle whose cosine and sine live in Q(sqrt 2)
becomes multiplication by a unit-modulus element.  That map, and the
principal submodule that the element spans, are built from the
element's integers, its negacyclic rows over its denominator, with no
rational matrix in between; ``cyc8_mul_matrix`` is the rational view.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Sequence

from cslcolour.coincidence import CommensurableMap, _map_of_ints
from cslcolour.errors import ZeroElement
# lattice_new is not used here; the name stays bound because
# bench/tracing.py wraps it in this module
from cslcolour.lattice import Lattice, _from_ints, lattice_new  # noqa: F401
from cslcolour.ratmat import RatMatrix, clear_denominators, vec_mat


@dataclass(frozen=True)
class Cyc8:
    """One element of Q(xi) on the basis 1, xi, xi^2, xi^3: the integers num over den.

    den > 0 and gcd(den, *num) = 1; build through :func:`cyc8`.
    """

    num: tuple[int, int, int, int]
    den: int

    @property
    def coeffs(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        """The rational coefficients num / den."""
        return tuple(Fraction(a, self.den) for a in self.num)

    def __add__(self, other: "Cyc8") -> "Cyc8":
        p, q = self.den, other.den
        return _reduced([a * q + b * p for a, b in zip(self.num, other.num)], p * q)

    def __sub__(self, other: "Cyc8") -> "Cyc8":
        return self + -other

    def __neg__(self) -> "Cyc8":
        return Cyc8(tuple(-a for a in self.num), self.den)

    def __mul__(self, other: "Cyc8") -> "Cyc8":
        return _reduced(vec_mat(other.num, _negacyclic(self.num)), self.den * other.den)

    def galois(self, k: int) -> "Cyc8":
        """The field automorphism xi -> xi^k for odd k."""
        if k not in (1, 3, 5, 7):
            raise ValueError("k must be coprime to 8 and in 1..7")
        c = [0] * 4
        for i, a in enumerate(self.num):
            e = (i * k) % 8
            if e < 4:
                c[e] += a
            else:
                c[e - 4] -= a
        return Cyc8(tuple(c), self.den)

    def conjugate(self) -> "Cyc8":
        """Complex conjugation: xi -> xi^-1 = -xi^3."""
        return self.galois(7)

    def is_zero(self) -> bool:
        return not any(self.num)


def _reduced(num: Sequence[int], den: int) -> Cyc8:
    """The element num / den (den > 0) in lowest terms."""
    g = gcd(den, *num)
    return Cyc8(tuple(a // g for a in num), den // g)


def cyc8(*coeffs) -> Cyc8:
    """Build an element from 4 int/Fraction/"p/q" coefficients."""
    if len(coeffs) == 1 and isinstance(coeffs[0], (list, tuple)):
        coeffs = tuple(coeffs[0])
    if len(coeffs) != 4:
        raise ValueError("expected 4 coefficients")
    # over the lcm of reduced denominators the numerators share no factor with it
    (num,), den = clear_denominators([coeffs])
    return Cyc8(num, den)


CYC8_ONE = cyc8(1, 0, 0, 0)
CYC8_XI = cyc8(0, 1, 0, 0)

# Rotation by the angle with cosine -1/3 and sine 2.sqrt(2)/3 (about
# 109.47 degrees), written in the ring via sqrt(2) = xi - xi^3 and
# i.sqrt(2) = xi + xi^3:
#   z = cos + i.sin = -1/3 + (2/3).(xi + xi^3)
# Unit modulus and coincidence index 9 are verified in the tests, not
# assumed.
AMMANN_BEENKER_ROTATION = cyc8("-1/3", "2/3", "0", "2/3")


def _negacyclic(c: Sequence) -> tuple:
    """Rows xi^k . z of z = c0 + ... + c3.xi^3: c shifted k places, wrapped entries negated.

    Every product reduces by xi^4 = -1 here.
    """
    return tuple(tuple(c[j - k] if j >= k else -c[j - k + 4] for j in range(4)) for k in range(4))


def cyc8_mul_matrix(z: Cyc8) -> RatMatrix:
    """Matrix of multiplication by z on row vectors: row k is xi^k . z."""
    if z.is_zero():
        raise ZeroElement("multiplication matrix of zero is singular")
    return _negacyclic(z.coeffs)


def principal_submodule(z: Cyc8) -> Lattice:
    """The Z-span of z, z.xi, z.xi^2, z.xi^3 as a rank-4 lattice.

    Built from z's own integers: the negacyclic rows of z.num over z.den.
    """
    if z.is_zero():
        raise ZeroElement("zero spans no full-rank submodule")
    return _from_ints(_negacyclic(z.num), z.den)


def multiplication_map(z: Cyc8) -> CommensurableMap:
    """Multiplication by z as a map on coefficient row vectors.

    CommensurableMap acts as v -> v . A^T, so A^T is the row-convention
    multiplication matrix, built from z's own integers: the negacyclic
    rows of z.num over z.den, in lowest terms because z is.  Its one
    `Fraction` is the det.
    """
    if z.is_zero():
        raise ZeroElement("multiplication matrix of zero is singular")
    return _map_of_ints(_negacyclic(z.num), z.den)
