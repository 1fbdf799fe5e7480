"""A reference for ``analyze`` that shares no code with ``solvhodge``: the standard library only.

``sweep(data)`` reads the dict of an explicit spec file and returns the
sorted admitted fiber pairs (J, L) and whether the sweep is certified, and
``report(data)`` the fields of ``analyze --format json`` that those pairs
decide, by literal loops over the basis. The loops are functions of their
own, which the pair-level tests also run on stub pair sets: ``all_pairs``,
``basis``, ``hodge``, ``symmetric``, ``wedge_closed`` and
``trivial_pairs``. The sweep follows the package's rules:

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

``report`` enumerates the basis quadruples (I, J, K, L), with I and K any
subsets of the base, over the admitted pairs. It counts the Hodge table
h[|I|+|J|][|K|+|L|] from them, sums its anti-diagonals for the Betti
numbers, and reads the symmetry flag off the quadruples themselves: the
swap (I, J, K, L) -> (K, L, I, J) must map the basis onto itself. An
admitted pair violates the condition when the product of the alpha_j over
J and the conj(alpha_l) over L is not identically 1, which it decides on
the exponents written out as one vector of Fractions.

Unless forms are skipped, it also gives:

- wedge closure: for every two admitted pairs whose J and whose L are
  disjoint, the union pair is admitted, checked on every two pairs;
- harmonic certification: c = b(A Abar), the antiholomorphic exponent of
  the product of every alpha_s and conj(alpha_s), is sum_s b_s + conj(a_s),
  and the basis is harmonic exactly when c = 0.

The Kaehler record lists the 1-based indices of the characters that are
not unitary (b != -conj a), which obstruct a Kaehler metric, and says
whether every character is real (b = conj a).

A scalar is a dict from symbol name to a nonzero Fraction, a complex
number a pair (re, im) of scalars.
"""

import cmath
import math
from fractions import Fraction
from itertools import combinations, product

TOLERANCE = 1e-9
VIOLATION = "trivial_restriction_but_alpha_nontrivial"  # the reason the report gives every violating pair


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


def _subsets(k):
    return [S for size in range(k + 1) for S in combinations(range(1, k + 1), size)]


def all_pairs(m):
    """Every fiber pair (J, L), 4^m of them, J and L 1-based subsets of the fibers, by size then entries."""
    subsets = _subsets(m)
    return list(product(subsets, subsets))


def _sum(vectors, n):
    """The entrywise sum of complex n-vectors."""
    total = [({}, {})] * n
    for vector in vectors:
        total = [(_add(x[0], y[0]), _add(x[1], y[1])) for x, y in zip(total, vector)]
    return total


def sweep(data, force_float=False):
    """Sorted admitted pairs (J, L), 1-based subsets of the fibers, and the certified flag."""
    witness = {"one": 1.0, "pi": math.pi}
    witness.update((entry["name"], float(entry["value"])) for entry in data.get("symbols") or ())
    alphas = [_character(node) for node in data["alphas"]]
    lattice = [[_complex(c) for c in g] for g in data["lattice"]]
    pairs, certified = [], True
    for J, L in all_pairs(data["m"]):
        b = _sum([alphas[j - 1][1] for j in J] + [map(_conj, alphas[l - 1][0]) for l in L], data["n"])
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


def _vector(a, b):
    """The exponent (a, b) as one vector of Fractions, keyed by (vector, coordinate, part, symbol)."""
    return {
        (v, k, part, name): coeff
        for v, entries in enumerate((a, b)) for k, z in enumerate(entries)
        for part, x in enumerate(z) for name, coeff in x.items()
    }


def basis(pairs, n):
    """The basis quadruples (I, J, K, L) over the admitted pairs (J, L), I and K any subsets of the base."""
    base = _subsets(n)
    return {(I, J, K, L) for J, L in pairs for I in base for K in base}


def hodge(quadruples, dim):
    """h[p][q], the number of quadruples with |I| + |J| = p and |K| + |L| = q, as lists."""
    table = [[0] * (dim + 1) for _ in range(dim + 1)]
    for I, J, K, L in quadruples:
        table[len(I) + len(J)][len(K) + len(L)] += 1
    return table


def symmetric(quadruples):
    """The swap (I, J, K, L) -> (K, L, I, J) maps the quadruples onto themselves."""
    return all((K, L, I, J) in quadruples for I, J, K, L in quadruples)


def trivial_pairs(data):
    """The fiber pairs (J, L) whose alpha_J conj(alpha)_L is identically 1: the exponent vectors sum to 0."""
    alphas = [_character(node) for node in data["alphas"]]
    vectors = [_vector(a, b) for a, b in alphas]
    conjugates = [_vector([_conj(z) for z in b], [_conj(z) for z in a]) for a, b in alphas]
    pairs = []
    for J, L in all_pairs(data["m"]):
        total = {}
        for vector in [vectors[j - 1] for j in J] + [conjugates[l - 1] for l in L]:
            for key, coeff in vector.items():
                total[key] = total.get(key, 0) + coeff
        if not any(total.values()):
            pairs.append((J, L))
    return pairs


def wedge_closed(pairs):
    """Every two admitted pairs with disjoint J and disjoint L have an admitted union."""
    admitted = set(pairs)
    return all(
        (tuple(sorted(J1 + J2)), tuple(sorted(L1 + L2))) in admitted
        for J1, L1 in pairs for J2, L2 in pairs
        if not set(J1) & set(J2) and not set(L1) & set(L2)
    )


def _kaehler(alphas):
    """The report's kaehler record, read off the exponent vectors."""
    unitary = [b == [(_neg(re), im) for re, im in a] for a, b in alphas]  # b = -conj a
    witnesses = [i for i, ok in enumerate(unitary, start=1) if not ok]
    return {
        "status": "obstructed" if witnesses else "inconclusive",
        "witnesses": witnesses,
        "completely_solvable": all(b == [_conj(z) for z in a] for a, b in alphas),
    }


def report(data, force_float=False, skip_forms=False):
    """The fields of the report that the admitted pairs and the exponents decide: every one but
    ``schema_version``, ``name``, ``validation`` and ``timings_ms``."""
    pairs, certified = sweep(data, force_float)
    n, dim = data["n"], data["n"] + data["m"]
    quadruples = basis(pairs, n)
    table = hodge(quadruples, dim)
    betti = [0] * (2 * dim + 1)
    for p, row in enumerate(table):
        for q, h in enumerate(row):
            betti[p + q] += h
    trivial = set(trivial_pairs(data))
    violations = [{"J": list(J), "L": list(L), "reason": VIOLATION} for J, L in pairs if (J, L) not in trivial]
    alphas = [_character(node) for node in data["alphas"]]
    wedge_closure = harmonic = None
    if not skip_forms:
        wedge_closure = wedge_closed(pairs)
        c = _sum([b for _, b in alphas] + [[_conj(z) for z in a] for a, _ in alphas], n)
        harmonic = not any(re or im for re, im in c)
    return {
        "mode": "exact" if certified else "float_fallback",
        "hodge": table,
        "betti": betti,
        "certified_de_rham": not violations,
        "condition": {"holds": not violations, "violations": violations, "checked_pairs": len(pairs)},
        "symmetry": symmetric(quadruples),
        "serre": all(row == table[dim - p][::-1] for p, row in enumerate(table)),
        "wedge_closure": wedge_closure,
        "harmonic_certified": harmonic,
        "kaehler": _kaehler(alphas),
    }
