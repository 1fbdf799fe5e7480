"""Shared corpus and random generators for the test suite."""

from __future__ import annotations

import importlib.util
import itertools
import random
from fractions import Fraction
from pathlib import Path

import pytest

import solvhodge as sh
from solvhodge.cohomology import BasisElement, PairSweep, all_basis_elements
from solvhodge.exact import SymbolProductUnrepresentable
from solvhodge.forms import TwistedForm, dw, dwbar, dz, dzbar
from solvhodge.manifold import _standard_lattice


def corpus_specs() -> list[sh.SolvManifoldSpec]:
    """Every manifold the suite certifies end to end."""
    return [
        sh.torus(1, 1),
        sh.torus(2, 1),
        sh.torus(1, 2),
        sh.torus(2, 2),
        sh.example1([1], "symbolic"),
        sh.example1([1], "rational_pi(1,1)"),
        sh.example1([1, -2], "symbolic"),
        sh.example1([2, 3], "symbolic"),
        sh.example2_n1([[2, 1], [1, 1]]),
    ]


def hyperbolic_family(N, sign):
    """sign * A_N with A_N = [[N, 1], [N(3 - N) - 1, 3 - N]], of determinant 1 and trace 3.

    The fiber basis of ``example2_n1(A_N)`` has condition number about 0.89 N^2
    and the action's coefficients are of size about N^2, so the float solve
    loses precision as N grows.
    """
    return [[sign * N, sign], [sign * (N * (3 - N) - 1), sign * (3 - N)]]


def witness_rows(lattice: sh.LatticeBasis, table: sh.SymbolTable) -> list[list[float]]:
    """One row per generator, (Re g_1..Re g_n, Im g_1..Im g_n), each entry summed in floats by
    ``float_value``: the witness matrix that numpy oracles use, apart from ``validate``'s exact one."""
    return [
        [c.re.float_value(table) for c in gen] + [c.im.float_value(table) for c in gen]
        for gen in lattice.generators
    ]


def oversized_torus(n: int, m: int) -> sh.SolvManifoldSpec:
    """``torus(n, m)`` past the counting cap, built around the builder's own gate
    so that the gates of the pair sweep and of the commands can be reached."""
    return sh.SolvManifoldSpec(
        name=f"torus_{n}_{m}",
        n=n,
        m=m,
        alphas=(sh.CharacterExponent.trivial(n),) * m,
        lattice=_standard_lattice(n),
        lattice_fiber=_standard_lattice(m),
        symbols=sh.SymbolTable.base(),
    )


# the example2_n1 matrices: unimodular, hyperbolic, entries in -4..4
HYPERBOLIC = [
    [[a, b], [c, d]]
    for a, b, c, d in itertools.product(range(-4, 5), repeat=4)
    if a * d - b * c == 1 and abs(a + d) > 2
]


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_perfbench(name: str):
    """The benchmark's module ``perfbench/<name>.py``, loaded by path."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def scaled_draws(corpus, rng: random.Random) -> list[tuple[list[int], float, float]]:
    """Twelve symbolic-scale draws (exponents, s witness, t witness), k = 1, 2 exponents in turn.

    ``corpus`` is ``perfbench/corpus.py``; a witness pair is kept, as the
    benchmark corpus keeps it, only when the float gate decides every pair
    of the draw clearly.
    """
    draws = []
    taken: set = set()
    for k in (1, 2) * 6:
        a = corpus._draw(rng, k, False, taken)
        while True:
            s_witness, t_witness = rng.uniform(0.6, 1.8), rng.uniform(0.6, 1.8)
            if corpus._float_gate_decided(a, s_witness * t_witness):
                break
        draws.append((a, s_witness, t_witness))
    return draws


def forms_corpus_specs() -> list[sh.SolvManifoldSpec]:
    """Corpus entries small enough for forms-level certification."""
    return [spec for spec in corpus_specs() if spec.complex_dim <= 4]


def basis_elements(
    spec: sh.SolvManifoldSpec, p: int, q: int, sweep: PairSweep
) -> tuple[BasisElement, ...]:
    """The basis monomials of bidegree (p, q): that block of ``all_basis_elements``."""
    dim = spec.complex_dim
    if not (0 <= p <= dim and 0 <= q <= dim):
        raise ValueError(f"bidegree ({p}, {q}) out of range for dimension {dim}")
    return tuple(el for el in all_basis_elements(spec, sweep) if el.p == p and el.q == q)


def swapped(el: BasisElement) -> BasisElement:
    """Image under conjugation at the index level: (I,J,K,L) -> (K,L,I,J)."""
    return BasisElement(el.K, el.L, el.I, el.J)


def rational_value(scalar: sh.ExactScalar) -> Fraction:
    """The rational number a scalar with no symbol but "one" stands for."""
    if not scalar.is_rational:
        raise SymbolProductUnrepresentable(f"{scalar!r} is not rational")
    return scalar.coefficient("one")


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20260810)


def random_fraction(rng: random.Random, max_num: int = 2, max_den: int = 2) -> Fraction:
    return Fraction(rng.randint(-max_num, max_num), rng.randint(1, max_den))


def random_scalar(table: sh.SymbolTable, rng: random.Random) -> sh.ExactScalar:
    coeffs = {}
    for name in table.names:
        if rng.random() < 0.5:
            coeffs[name] = random_fraction(rng)
    return sh.ExactScalar.make(coeffs)


def random_rational_complex(rng: random.Random) -> sh.ComplexExact:
    return sh.ComplexExact.make(re=random_fraction(rng), im=random_fraction(rng))


def random_character(n: int, rng: random.Random) -> sh.CharacterExponent:
    """Random character with small rational exponent entries."""
    a = tuple(random_rational_complex(rng) for _ in range(n))
    b = tuple(random_rational_complex(rng) for _ in range(n))
    return sh.CharacterExponent(a, b)


def random_unitary_character(n: int, rng: random.Random) -> sh.CharacterExponent:
    a = tuple(random_rational_complex(rng) for _ in range(n))
    b = tuple(-c.conjugate() for c in a)
    return sh.CharacterExponent(a, b)


def real_char(*coeffs) -> sh.CharacterExponent:
    """exp(sum c_j x_j) in the z, zbar encoding."""
    return sh.CharacterExponent.from_real_exponent(list(coeffs))


def dbar_residual(fn, z: complex, step: float = 1e-5) -> float:
    """Wirtinger d/dzbar by central differences: (d/dx + i d/dy)/2."""
    fx = (fn(z + step) - fn(z - step)) / (2 * step)
    fy = (fn(z + 1j * step) - fn(z - 1j * step)) / (2 * step)
    return abs((fx + 1j * fy) / 2)


def random_word(n: int, m: int, rng: random.Random, length: int | None = None):
    """Random duplicate-free wedge word over the twisted alphabet."""
    alphabet = (
        [dz(i) for i in range(1, n + 1)]
        + [dw(i) for i in range(1, m + 1)]
        + [dzbar(i) for i in range(1, n + 1)]
        + [dwbar(i) for i in range(1, m + 1)]
    )
    if length is None:
        length = rng.randint(0, len(alphabet))
    word = rng.sample(alphabet, length)
    rng.shuffle(word)
    return tuple(word)


def random_twisted_form(n: int, m: int, rng: random.Random, terms: int | None = None) -> TwistedForm:
    terms = terms if terms is not None else rng.randint(1, 3)
    entries = []
    for _ in range(terms):
        coeff = random_rational_complex(rng)
        entries.append((coeff, random_character(n, rng), random_word(n, m, rng)))
    return TwistedForm(entries)


def random_homogeneous_form(n: int, m: int, rng: random.Random) -> TwistedForm:
    """Random form whose terms all share one word length (hence total degree)."""
    length = rng.randint(0, 2 * (n + m))
    entries = []
    for _ in range(rng.randint(1, 3)):
        coeff = random_rational_complex(rng)
        entries.append(
            (coeff, random_character(n, rng), random_word(n, m, rng, length))
        )
    return TwistedForm(entries)
