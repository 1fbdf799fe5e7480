"""Lattice triviality of smooth characters, and the witness numerics of lattices.

A character (see :class:`solvhodge.model.CharacterExponent`) is trivial on a
lattice when it is 1 at every generator.  For a unitary character that is a
linear statement about its exponent data, decided exactly; the float test
evaluates the exponent at the generators' witnesses and certifies nothing.
:func:`smallest_singular_value` backs the rank check of
:meth:`solvhodge.model.LatticeBasis.rank_certificate`.
"""

from __future__ import annotations

import cmath
import math
import sys
from typing import Sequence

from .model import CharacterExponent, LatticeBasis

__all__ = [
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


def smallest_singular_value(rows: Sequence[Sequence[float]]) -> float:
    """Smallest singular value of a square float matrix by one-sided (Hestenes) Jacobi.

    Plane rotations orthogonalise the columns in place; the column norms are
    then the singular values.  Working on the matrix itself, not on M^T M,
    keeps the absolute error near machine precision times the norm of M, so
    values near ``RANK_TOLERANCE`` are resolved.  The matrix is first scaled
    by a power of two, which is exact, so that its largest entry is below 1
    in magnitude and no sum of squares overflows.
    """
    _, scale = math.frexp(max(abs(v) for row in rows for v in row))
    columns = [[math.ldexp(v, -scale) for v in col] for col in zip(*rows)]
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
    try:
        return math.ldexp(min(math.hypot(*col) for col in columns), scale)
    except OverflowError:  # the value itself is past the float range
        return math.inf


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
