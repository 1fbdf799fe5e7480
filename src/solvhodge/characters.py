"""Lattice triviality of smooth characters.

A character (see :class:`solvhodge.model.CharacterExponent`) is trivial on a
lattice when it is 1 at every generator.  For a unitary character that is a
linear statement about its exponent data, decided exactly; the float test
evaluates the exponent at the generators' witnesses and certifies nothing.
"""

from __future__ import annotations

import cmath
import math

from .exact import SymbolTable
from .model import CharacterExponent, LatticeBasis

__all__ = [
    "NotUnitary",
    "is_trivial_on_lattice",
    "is_trivial_on_lattice_float",
]

FLOAT_TRIVIALITY_TOLERANCE = 1e-9


class NotUnitary(ValueError):
    """A lattice-triviality test was asked of a non-unitary character."""


def _check_gate_input(chi: CharacterExponent, lattice: LatticeBasis) -> None:
    """The contract of both gates: NotUnitary first, then ValueError for a dimension mismatch."""
    if not chi.is_unitary:
        raise NotUnitary("lattice triviality is only defined for unitary characters")
    if chi.n != lattice.n:
        raise ValueError("character and lattice dimensions differ")


def is_trivial_on_lattice(chi: CharacterExponent, lattice: LatticeBasis) -> bool:
    """Exact test that a unitary character restricts to 1 on the lattice.

    Because the character is a homomorphism it suffices to check the
    generators, where the exponent must land in 2*pi*i*Z.  With b = -conj(a)
    its real part is 0 and only the imaginary part is tested, but
    ``exponent_at`` forms the whole exponent: a symbol product in the real
    part alone raises SymbolProductUnrepresentable and sends the pair to the
    float test.  The fix, ROADMAP item 5, forms the imaginary part alone.
    """
    _check_gate_input(chi, lattice)
    return all(chi.exponent_at(gen).im.is_multiple_of_2pi() for gen in lattice.generators)


def is_trivial_on_lattice_float(chi: CharacterExponent, lattice: LatticeBasis, symbols: SymbolTable) -> bool:
    """Witness-based fallback for lattice data outside the exact layer.

    Not a certificate: accepts when exp(exponent), evaluated on the
    witnesses of ``symbols``, is 1 within tolerance at every generator.
    """
    _check_gate_input(chi, lattice)
    tol = FLOAT_TRIVIALITY_TOLERANCE
    for gen in lattice.generators:
        try:
            w = chi.exponent_at_point([c.complex_value(symbols) for c in gen], symbols)
        except OverflowError:  # an exact coefficient past the float range
            return False
        # an overflowed exponent decides nothing, and a NaN would pass the other two tests
        if not cmath.isfinite(w) or abs(w.real) > tol or abs(math.sin(w.imag / 2.0)) > tol:
            return False
    return True
