"""Smooth characters of C^n stored by exponent data.

A smooth homomorphism C^n -> C* has the form

    chi(z) = exp( sum_j a_j z_j + b_j conj(z_j) )

and is fully described by the two exponent vectors.  Multiplication,
conjugation, the unique holomorphic-times-unitary factorisation, and
triviality on a lattice are all linear statements about (a, b), so they
are computed exactly; the exponential itself is only ever evaluated in
float mode through the symbol witnesses.

Real coordinates: with z = x + iy one has x = (z + conj z)/2, so the
character exp(c x) corresponds to a = b = c/2.  Builders accept that real
notation via :func:`CharacterExponent.from_real_exponent`.
"""

from __future__ import annotations

import cmath
import math
import sys
from fractions import Fraction
from typing import NamedTuple, Sequence

from .exact import ComplexExact, ExactScalar, Immutable, SymbolTable, TableMismatch, Value

__all__ = [
    "CharacterExponent",
    "HolomorphicUnitaryParts",
    "LatticeBasis",
    "NotUnitary",
    "is_trivial_on_lattice",
    "is_trivial_on_lattice_float",
    "smallest_singular_value",
]

RANK_TOLERANCE = 1e-9
FLOAT_TRIVIALITY_TOLERANCE = 1e-9
# one-sided Jacobi converges quadratically; small witness matrices need a few sweeps
MAX_JACOBI_SWEEPS = 60


class NotUnitary(ValueError):
    """A lattice-triviality test was asked of a non-unitary character."""


class HolomorphicUnitaryParts(NamedTuple):
    hol: "CharacterExponent"
    unit: "CharacterExponent"


class CharacterExponent(Immutable):
    """Exponent data (a, b) of the character exp(sum a_j z_j + b_j conj(z_j))."""

    __slots__ = ("table", "a", "b")
    table: SymbolTable
    a: tuple[ComplexExact, ...]
    b: tuple[ComplexExact, ...]

    # own __init__/__eq__/__hash__, not Value's: the 4^m pair sweep builds these on every operation
    def __init__(self, table, a, b):
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        if len(self.a) != len(self.b):
            raise ValueError("exponent vectors must have equal length")
        for entry in self.a + self.b:
            if entry.table != self.table:
                raise TableMismatch("exponent entry declared over a different table")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.table, self.a, self.b) == (other.table, other.a, other.b)
        return NotImplemented

    def __hash__(self):
        return hash((self.table, self.a, self.b))

    @classmethod
    def trivial(cls, table: SymbolTable, n: int) -> "CharacterExponent":
        zero = ComplexExact.zero(table)
        return cls(table, (zero,) * n, (zero,) * n)

    @classmethod
    def from_real_exponent(cls, table: SymbolTable, coeffs: Sequence) -> "CharacterExponent":
        """Character exp(sum c_j x_j) of the real parts, c_j rational or exact."""
        a = []
        for c in coeffs:
            if isinstance(c, ExactScalar):
                half = c.scaled(Fraction(1, 2))
            else:
                half = ExactScalar.rational(table, Fraction(c) / 2)
            a.append(ComplexExact.make(table, re=half))
        return cls(table, tuple(a), tuple(a))

    @property
    def n(self) -> int:
        return len(self.a)

    @property
    def is_trivial(self) -> bool:
        return all(c.is_zero for c in self.a + self.b)

    @property
    def is_holomorphic(self) -> bool:
        return all(c.is_zero for c in self.b)

    @property
    def is_unitary(self) -> bool:
        """True when the exponent is purely imaginary at every point."""
        return all(bj == -aj.conjugate() for aj, bj in zip(self.a, self.b))

    @property
    def is_real_valued(self) -> bool:
        """True when the exponent is real at every point."""
        return all(bj == aj.conjugate() for aj, bj in zip(self.a, self.b))

    def __mul__(self, other: "CharacterExponent") -> "CharacterExponent":
        if not isinstance(other, CharacterExponent):
            return NotImplemented
        if self.n != other.n:
            raise ValueError("characters live on different C^n")
        if self.table != other.table:
            raise TableMismatch("characters declared over different tables")
        a = tuple(x + y for x, y in zip(self.a, other.a))
        b = tuple(x + y for x, y in zip(self.b, other.b))
        return CharacterExponent(self.table, a, b)

    def inverse(self) -> "CharacterExponent":
        return CharacterExponent(self.table, tuple(-c for c in self.a), tuple(-c for c in self.b))

    def conjugate(self) -> "CharacterExponent":
        """Exponent of the complex-conjugate character."""
        a = tuple(c.conjugate() for c in self.b)
        b = tuple(c.conjugate() for c in self.a)
        return CharacterExponent(self.table, a, b)

    def decompose(self) -> HolomorphicUnitaryParts:
        """Split into the unique holomorphic times unitary factorisation.

        The unitary factor keeps the antiholomorphic exponent b and takes
        a = -conj(b); the holomorphic factor absorbs the rest.
        """
        unit_a = tuple(-c.conjugate() for c in self.b)
        unit = CharacterExponent(self.table, unit_a, self.b)
        hol_a = tuple(x + y.conjugate() for x, y in zip(self.a, self.b))
        zero = ComplexExact.zero(self.table)
        hol = CharacterExponent(self.table, hol_a, (zero,) * self.n)
        return HolomorphicUnitaryParts(hol, unit)

    def exponent_at(self, v: Sequence[ComplexExact]) -> ComplexExact:
        """Exact value of the exponent at the point v."""
        if len(v) != self.n:
            raise ValueError("point dimension mismatch")
        total = ComplexExact.zero(self.table)
        for aj, bj, vj in zip(self.a, self.b, v):
            total = total + aj * vj + bj * vj.conjugate()
        return total

    def exponent_at_point(self, z: Sequence[complex]) -> complex:
        """Float-witness value of the exponent at a numeric point."""
        if len(z) != self.n:
            raise ValueError("point dimension mismatch")
        total = 0j
        for aj, bj, zj in zip(self.a, self.b, z):
            total += aj.complex_value() * zj + bj.complex_value() * zj.conjugate()
        return total

    def value_at(self, z: Sequence[complex]) -> complex:
        return cmath.exp(self.exponent_at_point(z))

    def sort_key(self):
        return tuple(c.sort_key() for c in self.a + self.b)

    def __repr__(self):
        if self.is_trivial:
            return "Char(1)"
        return f"Char(a={list(self.a)}, b={list(self.b)})"


class LatticeBasis(Value):
    """2n real-independent generators of a lattice in C^n."""

    __slots__ = ("n", "generators")
    n: int
    generators: tuple[tuple[ComplexExact, ...], ...]

    def _check(self):
        if len(self.generators) != 2 * self.n:
            raise ValueError(f"expected {2 * self.n} generators, got {len(self.generators)}")
        for gen in self.generators:
            if len(gen) != self.n:
                raise ValueError("generator has wrong length")

    def real_matrix(self) -> tuple[tuple[float, ...], ...]:
        """Witness matrix, one row per generator: (Re g_1..Re g_n, Im g_1..Im g_n)."""
        return tuple(
            tuple(c.re.float_value() for c in gen) + tuple(c.im.float_value() for c in gen)
            for gen in self.generators
        )

    def rank_certificate(self) -> tuple[bool, float]:
        """Full-rank check on the witness matrix; returns (ok, smallest singular value)."""
        if self.n == 0:
            return True, math.inf
        smallest = smallest_singular_value(self.real_matrix())
        return smallest > RANK_TOLERANCE, smallest


def smallest_singular_value(rows: Sequence[Sequence[float]]) -> float:
    """Smallest singular value of a square float matrix by one-sided (Hestenes) Jacobi.

    Plane rotations orthogonalise the columns in place; the column norms are
    then the singular values.  Working on the matrix itself, not on M^T M,
    keeps the absolute error near machine precision times the norm of M, so
    values near ``RANK_TOLERANCE`` are resolved.
    """
    columns = [list(col) for col in zip(*rows)]
    size = len(columns)
    threshold = size * sys.float_info.epsilon
    for _ in range(MAX_JACOBI_SWEEPS):
        rotated = False
        for i in range(size - 1):
            for j in range(i + 1, size):
                x, y = columns[i], columns[j]
                alpha = math.fsum(v * v for v in x)
                beta = math.fsum(v * v for v in y)
                gamma = math.fsum(u * v for u, v in zip(x, y))
                if abs(gamma) <= threshold * math.sqrt(alpha) * math.sqrt(beta):
                    continue
                rotated = True
                zeta = (beta - alpha) / (2.0 * gamma)
                t = math.copysign(1.0, zeta) / (abs(zeta) + math.hypot(1.0, zeta))
                c = 1.0 / math.hypot(1.0, t)
                s = c * t
                columns[i] = [c * u - s * v for u, v in zip(x, y)]
                columns[j] = [s * u + c * v for u, v in zip(x, y)]
        if not rotated:
            break
    return min(math.hypot(*col) for col in columns)


def is_trivial_on_lattice(chi: CharacterExponent, lattice: LatticeBasis) -> bool:
    """Exact test that a unitary character restricts to 1 on the lattice.

    Because the character is a homomorphism it suffices to check the
    generators, where the (purely imaginary) exponent must land in
    2*pi*i*Z.
    """
    if not chi.is_unitary:
        raise NotUnitary("lattice triviality is only defined for unitary characters")
    if chi.n != lattice.n:
        raise ValueError("character and lattice dimensions differ")
    for gen in lattice.generators:
        exponent = chi.exponent_at(gen)
        if not exponent.re.is_zero:
            raise NotUnitary("unitary character has a nonzero real exponent on the lattice")
        if not exponent.im.is_multiple_of_2pi():
            return False
    return True


def is_trivial_on_lattice_float(chi: CharacterExponent, lattice: LatticeBasis) -> bool:
    """Witness-based fallback for lattice data outside the exact layer.

    Not a certificate: accepts when exp(exponent) is 1 within tolerance at
    every generator.
    """
    if not chi.is_unitary:
        raise NotUnitary("lattice triviality is only defined for unitary characters")
    tol = FLOAT_TRIVIALITY_TOLERANCE
    for gen in lattice.generators:
        try:
            w = chi.exponent_at_point([c.complex_value() for c in gen])
        except OverflowError:  # an exact coefficient past the float range
            return False
        # an overflowed exponent decides nothing, and a NaN would pass the other two tests
        if not cmath.isfinite(w) or abs(w.real) > tol or abs(math.sin(w.imag / 2.0)) > tol:
            return False
    return True
