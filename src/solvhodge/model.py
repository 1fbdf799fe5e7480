"""The data model of a spec: characters, lattices, the manifold, and the size gate.

A manifold here is a semidirect product C^n x| C^m acted on diagonally by
m characters of the base, together with a lattice basis for the base
factor and, optionally, one for the fiber.  Cohomology only consumes the
base lattice (every relevant unitary character factors through the base
coordinates); the fiber lattice is carried solely so that the preservation
of the fiber lattice under the action can be validated numerically.

A smooth homomorphism C^n -> C* has the form

    chi(z) = exp( sum_j a_j z_j + b_j conj(z_j) )

and is fully described by the two exponent vectors.  Multiplication,
conjugation, the unique holomorphic-times-unitary factorisation, and
triviality on a lattice are all linear statements about (a, b), so they
are computed exactly; the exponential itself is only ever evaluated in
float mode, through the witnesses of the spec's symbol table.  That table,
``SolvManifoldSpec.symbols``, is the one holder of the declared constants:
characters and lattice entries are bare coefficients, and the spec refuses
any of them that names a constant the table does not declare.

Real coordinates: with z = x + iy one has x = (z + conj z)/2, so the
character exp(c x) corresponds to a = b = c/2.  Builders accept that real
notation via :meth:`CharacterExponent.from_real_exponent`.

Loading a spec file needs only this module and ``exact``; the lattice
tests live in ``characters``, validation (with the float witness numerics
of lattices) and the builders in ``manifold``.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from typing import Optional, Sequence

from .exact import ComplexExact, ExactScalar, SymbolTable, Value, capped

__all__ = [
    "CharacterExponent",
    "DimensionCapExceeded",
    "LatticeBasis",
    "SolvManifoldSpec",
    "check_caps",
]

# size caps on n + m: every command, and the forms walks that grow with the basis
MAX_COUNTING_DIM = 12
MAX_FORMS_DIM = 6


class DimensionCapExceeded(ValueError):
    """A manifold was refused because its dimension exceeds a size cap."""


def check_caps(dim: int, forms: bool = False):
    """Refuse n + m past the counting cap, or, for a forms walk, past the forms cap."""
    if dim > MAX_COUNTING_DIM:
        raise DimensionCapExceeded(f"dimension {dim} exceeds the counting cap {MAX_COUNTING_DIM}")
    if forms and dim > MAX_FORMS_DIM:
        raise DimensionCapExceeded(
            f"dimension {dim} exceeds the forms cap {MAX_FORMS_DIM} (use --skip-forms with analyze)"
        )


class CharacterExponent(Value):
    """Exponent data (a, b) of the character exp(sum a_j z_j + b_j conj(z_j))."""

    __slots__ = ("a", "b")
    a: tuple[ComplexExact, ...]
    b: tuple[ComplexExact, ...]

    def _check(self):
        if len(self.a) != len(self.b):
            raise ValueError("exponent vectors must have equal length")

    @classmethod
    def trivial(cls, n: int) -> "CharacterExponent":
        zero = ComplexExact.zero()
        return cls((zero,) * n, (zero,) * n)

    @classmethod
    def from_real_exponent(cls, coeffs: Sequence) -> "CharacterExponent":
        """Character exp(sum c_j x_j) of the real parts, c_j rational or exact."""
        a = []
        for c in coeffs:
            if isinstance(c, ExactScalar):
                half = c.scaled(Fraction(1, 2))
            else:
                half = ExactScalar.rational(Fraction(c) / 2)
            a.append(ComplexExact.make(re=half))
        return cls(tuple(a), tuple(a))

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
        a = tuple(x + y for x, y in zip(self.a, other.a))
        b = tuple(x + y for x, y in zip(self.b, other.b))
        return CharacterExponent(a, b)

    def inverse(self) -> "CharacterExponent":
        return CharacterExponent(tuple(-c for c in self.a), tuple(-c for c in self.b))

    def conjugate(self) -> "CharacterExponent":
        """Exponent of the complex-conjugate character."""
        a = tuple(c.conjugate() for c in self.b)
        b = tuple(c.conjugate() for c in self.a)
        return CharacterExponent(a, b)

    def unit(self) -> "CharacterExponent":
        """The unitary factor of the unique holomorphic times unitary factorisation:
        it keeps the antiholomorphic exponent b and takes a = -conj(b)."""
        return CharacterExponent(tuple(-c.conjugate() for c in self.b), self.b)

    def hol(self) -> "CharacterExponent":
        """The holomorphic factor, exponent a + conj(b) and b = 0, so that ``hol() * unit()`` is self.

        Both factors are linear in (a, b), so each is a homomorphism: the
        factor of a product is the product of the factors.
        """
        hol_a = tuple(x + y.conjugate() for x, y in zip(self.a, self.b))
        return CharacterExponent(hol_a, (ComplexExact.zero(),) * self.n)

    def exponent_at(self, v: Sequence[ComplexExact]) -> ComplexExact:
        """Exact value of the exponent at the point v."""
        if len(v) != self.n:
            raise ValueError("point dimension mismatch")
        total = ComplexExact.zero()
        for aj, bj, vj in zip(self.a, self.b, v):
            total = total + aj * vj + bj * vj.conjugate()
        return total

    def exponent_at_point(self, z: Sequence[complex], table: SymbolTable) -> complex:
        """Value of the exponent at a numeric point, on the witnesses of ``table``."""
        if len(z) != self.n:
            raise ValueError("point dimension mismatch")
        total = 0j
        for aj, bj, zj in zip(self.a, self.b, z):
            total += aj.complex_value(table) * zj + bj.complex_value(table) * zj.conjugate()
        return total

    def value_at(self, z: Sequence[complex], table: SymbolTable) -> complex:
        return cmath.exp(self.exponent_at_point(z, table))

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


class SolvManifoldSpec(Value):
    """Complete description of one manifold: characters, lattices, symbols."""

    __slots__ = ("name", "n", "m", "alphas", "lattice", "lattice_fiber", "symbols")
    name: str
    n: int
    m: int
    alphas: tuple[CharacterExponent, ...]
    lattice: LatticeBasis
    lattice_fiber: Optional[LatticeBasis]
    symbols: SymbolTable

    def _check(self):
        if not (isinstance(self.name, str) and self.name.isprintable()):
            raise ValueError("name must be a printable string: no line break or control character")
        if self.n < 0 or self.m < 0 or self.n + self.m < 1:
            raise ValueError("need n, m >= 0 with n + m >= 1")
        if len(self.alphas) != self.m:
            raise ValueError(f"expected {self.m} characters, got {len(self.alphas)}")
        for alpha in self.alphas:
            if alpha.n != self.n:
                raise ValueError("character dimension differs from base dimension")
        if self.lattice.n != self.n:
            raise ValueError("base lattice dimension mismatch")
        if self.lattice_fiber is not None and self.lattice_fiber.n != self.m:
            raise ValueError("fiber lattice dimension mismatch")
        fiber = () if self.lattice_fiber is None else self.lattice_fiber.generators
        entries = [c for alpha in self.alphas for c in alpha.a + alpha.b]
        entries += [c for gen in self.lattice.generators + fiber for c in gen]
        undeclared = {name for c in entries for part in (c.re, c.im) for name, _ in part.coeffs}
        undeclared.difference_update(self.symbols.names)
        if undeclared:
            raise ValueError(f"undeclared symbol {capped(repr(min(undeclared)))}")

    @property
    def complex_dim(self) -> int:
        return self.n + self.m

    @property
    def is_unimodular(self) -> bool:
        """Whether the action has det D(g) = |P(g)|^2 = 1 at every g, P the product of the alphas.

        That is P unitary, which a lattice needs, decided exactly: P's exponents are sums.
        """
        return math.prod(self.alphas, start=CharacterExponent.trivial(self.n)).is_unitary
