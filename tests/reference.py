"""A reference pair sweep that shares no code with ``solvhodge``: the standard library only.

``sweep(data)`` reads the dict of an explicit spec file and returns the
sorted admitted fiber pairs (J, L) and whether the sweep is certified,
under the package's rules:

- Exponents. A fiber character with exponent vectors (a, b) contributes
  the unitary exponent (-conj b, b), and its conjugate (-a, conj a); a
  pair's exponent is their sum over J and L.
- The exact gate takes the lattice generators in order and forms, at each
  g, the whole exponent a.g + b.conj(g). If any scalar product in it
  multiplies two non-rational scalars, the pair escapes to the float gate
  and the sweep is not certified. Otherwise the gate refuses at the first
  generator whose imaginary part is not pi times an even integer.
- The float gate evaluates the exponent w at each generator from the
  symbols' float witnesses and admits when every w is finite with
  |Re w| <= 1e-9 and |sin(Im w / 2)| <= 1e-9.

A scalar is a dict from symbol name to a nonzero Fraction, a complex
number a pair (re, im) of scalars.
"""

import cmath
import math
from fractions import Fraction
from itertools import combinations, product

TOLERANCE = 1e-9


class Escape(Exception):
    """A product of two non-rational scalars, which the exact layer cannot represent."""


def _scalar(node):
    return {name: Fraction(text) for name, text in node.items() if Fraction(text)}


def _complex(node):
    return _scalar(node.get("re", {})), _scalar(node.get("im", {}))


def _add(x, y):
    total = dict(x)
    for name, coeff in y.items():
        total[name] = total.get(name, 0) + coeff
    return {name: coeff for name, coeff in total.items() if coeff}


def _scale(x, q):
    return {name: coeff * q for name, coeff in x.items() if q}


def _neg(x):
    return _scale(x, -1)


def _times(x, y):
    if x.keys() <= {"one"}:
        return _scale(y, x.get("one", 0))
    if y.keys() <= {"one"}:
        return _scale(x, y.get("one", 0))
    raise Escape


def _complex_times(z, w):
    (x, y), (u, v) = z, w
    return _add(_times(x, u), _neg(_times(y, v))), _add(_times(x, v), _times(y, u))


def _conj(z):
    return z[0], _neg(z[1])


def _character(node):
    """The exponent vectors (a, b) of a character node."""
    if "real_exp" in node:  # exp(c x) with x = (z + conj z) / 2: a = b = c / 2
        a = [(_scale(_scalar(c), Fraction(1, 2)), {}) for c in node["real_exp"]]
        return a, a
    return [_complex(c) for c in node["a"]], [_complex(c) for c in node["b"]]


def _exact_gate(a, b, lattice):
    for g in lattice:
        w = ({}, {})
        for a_k, b_k, g_k in zip(a, b, g):
            for term in (_complex_times(a_k, g_k), _complex_times(b_k, _conj(g_k))):
                w = _add(w[0], term[0]), _add(w[1], term[1])
        im = w[1]
        if not (im.keys() <= {"pi"} and im.get("pi", 0).denominator == 1 and im.get("pi", 0).numerator % 2 == 0):
            return False
    return True


def _float_gate(a, b, lattice, witness):
    def value(z):
        re, im = (sum(float(coeff) * witness[name] for name, coeff in sorted(x.items())) for x in z)
        return complex(re, im)

    try:
        for g in lattice:
            w = 0j
            for a_k, b_k, g_k in zip(a, b, g):
                point = value(g_k)
                w += value(a_k) * point + value(b_k) * point.conjugate()
            if not cmath.isfinite(w) or abs(w.real) > TOLERANCE or abs(math.sin(w.imag / 2.0)) > TOLERANCE:
                return False
    except OverflowError:  # a coefficient past the float range
        return False
    return True


def sweep(data, force_float=False):
    """Sorted admitted pairs (J, L), 1-based subsets of the fibers, and the certified flag."""
    witness = {"one": 1.0, "pi": math.pi}
    witness.update((entry["name"], float(entry["value"])) for entry in data.get("symbols") or ())
    alphas = [_character(node) for node in data["alphas"]]
    lattice = [[_complex(c) for c in g] for g in data["lattice"]]
    m = data["m"]
    subsets = [S for size in range(m + 1) for S in combinations(range(1, m + 1), size)]
    pairs, certified = [], True
    for J, L in product(subsets, subsets):
        b = [({}, {})] * data["n"]
        for j in J:
            b = [(_add(x[0], y[0]), _add(x[1], y[1])) for x, y in zip(b, alphas[j - 1][1])]
        for l in L:
            b = [(_add(x[0], y[0]), _add(x[1], y[1])) for x, y in zip(b, map(_conj, alphas[l - 1][0]))]
        a = [(_neg(re), im) for re, im in b]  # -conj b
        if force_float:
            certified, accept = False, _float_gate(a, b, lattice, witness)
        else:
            try:
                accept = _exact_gate(a, b, lattice)
            except Escape:
                certified, accept = False, _float_gate(a, b, lattice, witness)
        if accept:
            pairs.append((J, L))
    return sorted(pairs), certified
