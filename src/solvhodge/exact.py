"""Exact scalar arithmetic over declared rationally independent constants.

Every certified verdict in this package reduces to a linear statement about
a handful of real constants: 1, pi, and whatever parameters a manifold
declares (the logarithm of an algebraic unit, a free lattice parameter t,
and so on).  A scalar is therefore stored as its rational coefficients over
named constants, and equality, vanishing and membership in 2*pi*Z are
decided coefficient-wise.  This is sound exactly when the declared
constants are linearly independent over Q, which is the assumption a
caller makes when declaring a symbol.

A scalar does not hold the constants' declarations: the spec's
:class:`SymbolTable` does, once for all its numbers, and
``SolvManifoldSpec`` refuses a number that names a constant its table does
not declare.  The few float evaluations take that table as an argument.

Products of two non-rational constants are deliberately unrepresentable:
the model is a Q-vector space, not a ring.  Callers catch
:class:`SymbolProductUnrepresentable` and fall back to the float witnesses
that the table gives every symbol; witnesses feed advisory numeric checks
only, never certified verdicts.
"""

from __future__ import annotations

import math
import operator
import re
from fractions import Fraction
from typing import Mapping

__all__ = [
    "ComplexExact",
    "ExactScalar",
    "SymbolProductUnrepresentable",
    "SymbolTable",
    "parse_rational",
]


class SymbolProductUnrepresentable(ArithmeticError):
    """A product would need a symbol-times-symbol term.

    Raised when neither factor is a pure rational; the caller is expected
    to switch to float witnesses if an approximate answer is acceptable.
    """


class Value:
    """Base of the package's types: fields are set once and compare and hash as a value.

    ``_names`` lists a class's fields: its base's, then its own ``__slots__``.  The shared
    constructor takes them, positionally or by keyword, in that order, then runs ``_check``.
    """

    __slots__ = ()
    _names: tuple[str, ...] = ()

    def __init_subclass__(cls):
        if own := cls.__dict__.get("__slots__"):  # a subclass that adds no slots keeps its parent's
            cls._names = cls._names + tuple(own)
            cls._fields = operator.attrgetter(*cls._names)

    def __init__(self, *args, **kwargs):
        names = self._names
        kind = type(self).__name__
        if len(args) > len(names):
            raise TypeError(f"{kind}() takes {len(names)} arguments but {len(args)} were given")
        for name, value in zip(names, args):
            object.__setattr__(self, name, value)
        for name in names[len(args):]:
            if name not in kwargs:
                raise TypeError(f"{kind}() missing required argument {name!r}")
            object.__setattr__(self, name, kwargs.pop(name))
        for name in kwargs:
            problem = "multiple values for" if name in names else "an unexpected keyword"
            raise TypeError(f"{kind}() got {problem} argument {name!r}")
        self._check()

    def _check(self):
        """Refuse bad field values; runs after the constructor has stored them."""

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __setstate__(self, state):
        # pickle and copy hand back (None, {slot: value}) of a checked instance
        for name, value in state[1].items():
            object.__setattr__(self, name, value)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields(self) == other._fields(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._fields(self))


ECHO_LIMIT = 60


def capped(text: str) -> str:
    """``text`` cut to ``ECHO_LIMIT`` characters plus "...", so that a diagnostic
    echoing a piece of malformed input stays one short line."""
    return text if len(text) <= ECHO_LIMIT else text[:ECHO_LIMIT] + "..."


_RATIONAL_LITERAL = re.compile(r"^[+-]?\d+(?:/0*[1-9]\d*)?$")


def parse_rational(text: str) -> Fraction:
    """Parse a rational literal ``"p"`` or ``"p/q"`` with q > 0."""
    if not isinstance(text, str) or not _RATIONAL_LITERAL.match(text.strip()):
        raise ValueError(f"not a rational literal: {capped(repr(text))}")
    return Fraction(text.strip())


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return parse_rational(value)
    raise TypeError(f"expected a rational, got {type(value).__name__}")


class SymbolTable(Value):
    """Ordered family of named real constants with float witnesses.

    The names are treated as linearly independent over Q; ``one`` and
    ``pi`` are always present with witnesses 1.0 and math.pi.
    """

    __slots__ = ("entries",)
    entries: tuple[tuple[str, float], ...]

    def _check(self):
        names = [name for name, _ in self.entries]
        if len(set(names)) != len(names):
            raise ValueError("duplicate symbol names")
        lookup = dict(self.entries)
        if lookup.get("one") != 1.0:
            raise ValueError('symbol table must declare "one" with witness 1.0')
        if lookup.get("pi") != math.pi:
            raise ValueError('symbol table must declare "pi" with witness math.pi')
        for name, witness in self.entries:
            if not isinstance(name, str) or not name:
                raise ValueError(f"bad symbol name: {name!r}")
            if not math.isfinite(witness) or witness == 0.0:
                raise ValueError(f"witness of {name!r} must be finite and nonzero")

    @classmethod
    def base(cls) -> "SymbolTable":
        return cls((("one", 1.0), ("pi", math.pi)))

    def with_symbol(self, name: str, witness: float) -> "SymbolTable":
        """Return a new table extending this one by a fresh symbol."""
        if name in self:
            raise ValueError(f"symbol {capped(repr(name))} already declared")
        return SymbolTable(self.entries + ((name, float(witness)),))

    def witness(self, name: str) -> float:
        for sym, value in self.entries:
            if sym == name:
                return value
        raise KeyError(name)

    def __contains__(self, name: str) -> bool:
        return any(sym == name for sym, _ in self.entries)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.entries)

    def __repr__(self):
        return "SymbolTable(%s)" % ", ".join(self.names)


class ExactScalar(Value):
    """A rational linear combination of named constants.

    Zero coefficients are never stored, so equality of the coefficient
    tuples is equality of scalars.
    """

    __slots__ = ("coeffs",)
    coeffs: tuple[tuple[str, Fraction], ...]

    # own __init__, not Value's: every scalar operation builds one, and the shared constructor
    # made the seed-1 float_fallback specs 10-20% slower (CPU time, CPython 3.11, x86-64)
    def __init__(self, coeffs):
        object.__setattr__(self, "coeffs", coeffs)
        previous = None
        for name, coeff in self.coeffs:
            if not isinstance(coeff, Fraction) or coeff == 0:
                raise ValueError("coefficients must be nonzero Fractions")
            if previous is not None and name <= previous:
                raise ValueError("coefficients must be sorted by symbol name")
            previous = name

    @classmethod
    def make(cls, coeffs: Mapping[str, Fraction | int | str]) -> "ExactScalar":
        cleaned = {name: _as_fraction(c) for name, c in coeffs.items()}
        items = tuple(sorted((n, c) for n, c in cleaned.items() if c != 0))
        return cls(items)

    @classmethod
    def zero(cls) -> "ExactScalar":
        return cls(())

    @classmethod
    def rational(cls, value) -> "ExactScalar":
        return cls.make({"one": _as_fraction(value)})

    @classmethod
    def symbol(cls, name: str, coeff=1) -> "ExactScalar":
        return cls.make({name: _as_fraction(coeff)})

    @classmethod
    def pi_multiple(cls, coeff) -> "ExactScalar":
        return cls.make({"pi": _as_fraction(coeff)})

    def to_literal(self) -> dict[str, str]:
        return {name: str(coeff) for name, coeff in self.coeffs}

    def coefficient(self, name: str) -> Fraction:
        for sym, coeff in self.coeffs:
            if sym == name:
                return coeff
        return Fraction(0)

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def is_rational(self) -> bool:
        """True when the scalar is a rational multiple of "one" (including 0)."""
        return all(name == "one" for name, _ in self.coeffs)

    def __add__(self, other: "ExactScalar") -> "ExactScalar":
        if not isinstance(other, ExactScalar):
            return NotImplemented
        merged = dict(self.coeffs)
        for name, coeff in other.coeffs:
            merged[name] = merged.get(name, Fraction(0)) + coeff
        return ExactScalar.make(merged)

    def __sub__(self, other: "ExactScalar") -> "ExactScalar":
        return self + (-other)

    def __neg__(self) -> "ExactScalar":
        return ExactScalar(tuple((n, -c) for n, c in self.coeffs))

    def scaled(self, factor) -> "ExactScalar":
        """Multiply by a rational number."""
        q = _as_fraction(factor)
        if q == 0:
            return ExactScalar.zero()
        return ExactScalar(tuple((n, c * q) for n, c in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scaled(other)
        if not isinstance(other, ExactScalar):
            return NotImplemented
        if self.is_rational:
            return other.scaled(self.coefficient("one"))
        if other.is_rational:
            return self.scaled(other.coefficient("one"))
        raise SymbolProductUnrepresentable(
            f"cannot multiply {self!r} by {other!r}: both carry non-rational symbols"
        )

    __rmul__ = __mul__

    def is_multiple_of_2pi(self) -> bool:
        """Decide membership in 2*pi*Z.

        Under the declared independence this holds exactly when the scalar
        is pi times an even integer (zero included).
        """
        for name, coeff in self.coeffs:
            if name != "pi":
                return False
            if coeff.denominator != 1 or coeff.numerator % 2 != 0:
                return False
        return True

    def float_value(self, table: SymbolTable) -> float:
        """The value on ``table``'s witnesses, which must declare every symbol named."""
        return sum(float(c) * table.witness(n) for n, c in self.coeffs)

    def __repr__(self):
        if self.is_zero:
            return "0"
        parts = []
        for name, coeff in self.coeffs:
            parts.append(f"{coeff}*{name}" if name != "one" else f"{coeff}")
        return " + ".join(parts)


class ComplexExact(Value):
    """A complex number with exact real and imaginary parts."""

    __slots__ = ("re", "im")
    re: ExactScalar
    im: ExactScalar

    # own __init__, not Value's: every complex operation builds one, and the shared constructor
    # made the seed-1 float_fallback specs 10-17% slower (CPU time, CPython 3.11, x86-64)
    def __init__(self, re, im):
        object.__setattr__(self, "re", re)
        object.__setattr__(self, "im", im)

    @classmethod
    def make(cls, re=0, im=0) -> "ComplexExact":
        def scalar(v):
            return v if isinstance(v, ExactScalar) else ExactScalar.rational(v)

        return cls(scalar(re), scalar(im))

    @classmethod
    def zero(cls) -> "ComplexExact":
        return cls.make()

    @classmethod
    def one(cls) -> "ComplexExact":
        return cls.make(re=1)

    def to_literal(self) -> dict:
        return {"re": self.re.to_literal(), "im": self.im.to_literal()}

    @property
    def is_zero(self) -> bool:
        return self.re.is_zero and self.im.is_zero

    def conjugate(self) -> "ComplexExact":
        return ComplexExact(self.re, -self.im)

    def __add__(self, other: "ComplexExact") -> "ComplexExact":
        if not isinstance(other, ComplexExact):
            return NotImplemented
        return ComplexExact(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "ComplexExact") -> "ComplexExact":
        return self + (-other)

    def __neg__(self) -> "ComplexExact":
        return ComplexExact(-self.re, -self.im)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return ComplexExact(self.re.scaled(other), self.im.scaled(other))
        if not isinstance(other, ComplexExact):
            return NotImplemented
        re = self.re * other.re - self.im * other.im
        im = self.re * other.im + self.im * other.re
        return ComplexExact(re, im)

    __rmul__ = __mul__

    def complex_value(self, table: SymbolTable) -> complex:
        return complex(self.re.float_value(table), self.im.float_value(table))

    def sort_key(self):
        return (self.re.coeffs, self.im.coeffs)

    def __repr__(self):
        if self.is_zero:
            return "0"
        if self.im.is_zero:
            return repr(self.re)
        if self.re.is_zero:
            return f"({self.im})*i"
        return f"({self.re}) + ({self.im})*i"
