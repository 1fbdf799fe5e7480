"""Seeded properties of the pair sweep that faster sweeps and cost caps rely on.

The sweep matches a literal 4^m oracle, which multiplies each pair's
character out of the fibers' own characters with no subset table, on the
specs below and on symbolic-scale specs that escape the exact gate, and
on example1 with m <= 4, exact and forced-float.

On random specs with m <= 3 — random characters over the standard
Gaussian lattice of C^n for n = 1 and n = 2, example1 under symbolic t
and under t = (r/s) pi, and example2_n1 over hyperbolic unimodular
matrices:

- a certified sweep is closed under disjoint union, because the gate is
  additive, so wedge closure needs no pair loop there;
- the forced-float sweep admits exactly the pairs of a certified exact
  sweep.
"""

import random
from itertools import combinations, product

import solvhodge as sh
from solvhodge.characters import is_trivial_on_lattice, is_trivial_on_lattice_float
from solvhodge.cohomology import PairSweep, sweep_trivial_pairs, wedge_closure_report
from solvhodge.exact import SymbolProductUnrepresentable
from solvhodge.specfile import load_spec_dict

from conftest import HYPERBOLIC, load_perfbench, random_character, scaled_draws

corpus = load_perfbench("corpus")

SEED = 20261018
BUDGET = 64  # 20 random with n = 1, 20 example1, 16 random with n = 2, 8 example2_n1


def periodic_character(table: sh.SymbolTable, rng: random.Random) -> sh.CharacterExponent:
    """exp(2 pi i (k_1 y_1 + k_2 y_2)) on C^2: trivial on the Gaussian lattice, not as a character."""
    a = tuple(
        sh.ComplexExact.make(table, re=sh.ExactScalar.pi_multiple(table, rng.randint(-1, 1)))
        for _ in range(2)
    )
    return sh.CharacterExponent(table, a, tuple(-c for c in a))


def plane_characters(table: sh.SymbolTable, m: int, rng: random.Random):
    """m characters on C^2, mixing random ones, inverses of earlier ones and periodic ones."""
    alphas = []
    for _ in range(m):
        kind = rng.randrange(3)
        if kind == 0 and alphas:
            alphas.append(rng.choice(alphas).inverse())
        elif kind == 1:
            alphas.append(periodic_character(table, rng))
        else:
            alphas.append(random_character(table, 2, rng))
    return tuple(alphas)


def random_specs(rng: random.Random) -> list[sh.SolvManifoldSpec]:
    """BUDGET specs over four families, drawn in a fixed order from ``rng``."""
    table = sh.SymbolTable.base()
    specs = []
    for index in range(20):
        m = rng.randint(1, 3)
        specs.append(
            sh.SolvManifoldSpec(
                name=f"random_{index}",
                n=1,
                m=m,
                alphas=tuple(random_character(table, 1, rng) for _ in range(m)),
                lattice=sh.torus(1, m).lattice,
                lattice_fiber=None,
                symbols=table,
            )
        )
    for index in range(20):
        exponent = rng.choice([-1, 1]) * rng.randint(1, 6)
        r, s = rng.choice([-1, 1]) * rng.randint(1, 4), rng.randint(1, 4)
        t_mode = "symbolic" if index % 2 else f"rational_pi({r},{s})"
        specs.append(sh.example1([exponent], t_mode))
    for index in range(16):
        m = rng.randint(1, 3)
        specs.append(
            sh.SolvManifoldSpec(
                name=f"plane_{index}",
                n=2,
                m=m,
                alphas=plane_characters(table, m, rng),
                lattice=sh.torus(2, m).lattice,
                lattice_fiber=None,
                symbols=table,
            )
        )
    specs.extend(sh.example2_n1(rng.choice(HYPERBOLIC)) for _ in range(8))
    return specs


def test_certified_sweeps_are_union_closed_and_float_agrees():
    certified = admitting = 0
    admitting_planes = 0
    for spec in random_specs(random.Random(SEED)):
        sweep = sweep_trivial_pairs(spec)
        if not sweep.certified:
            continue
        certified += 1
        admitting += len(sweep) > 1
        admitting_planes += spec.n == 2 and len(sweep) > 1
        # uncertified, so the literal union check runs rather than the additivity shortcut
        assert wedge_closure_report(spec, PairSweep(sweep.pairs, False)) is None, spec
        assert frozenset(sweep_trivial_pairs(spec, force_float=True)) == frozenset(sweep), spec
    # the budget must exercise both claims on sweeps that admit more than ((), ()),
    # with n = 2 among them
    assert certified == BUDGET and admitting >= BUDGET // 4
    assert admitting_planes >= 4


def literal_sweep(spec: sh.SolvManifoldSpec, force_float: bool = False) -> tuple[list, bool]:
    """Sorted admitted pairs and the certified flag, one pair at a time over all 4^m.

    Each pair's character A_J Abar_L is multiplied out of the fibers' own
    characters, and its unitary part goes through the exact gate, falling
    back to the float witnesses when forced or when the exact layer refuses.
    """
    subsets = [S for size in range(spec.m + 1) for S in combinations(range(1, spec.m + 1), size)]
    bars = [alpha.conjugate() for alpha in spec.alphas]
    pairs, certified = [], True
    for J, L in product(subsets, subsets):
        chi = sh.CharacterExponent.trivial(spec.symbols, spec.n)
        for j in J:
            chi = chi * spec.alphas[j - 1]
        for l in L:
            chi = chi * bars[l - 1]
        chi = chi.unit()
        if force_float:
            certified, accept = False, is_trivial_on_lattice_float(chi, spec.lattice)
        else:
            try:
                accept = is_trivial_on_lattice(chi, spec.lattice)
            except SymbolProductUnrepresentable:
                certified, accept = False, is_trivial_on_lattice_float(chi, spec.lattice)
        if accept:
            pairs.append((J, L))
    return sorted(pairs), certified


def example1_specs(rng: random.Random) -> list[sh.SolvManifoldSpec]:
    """Six example1 specs, four with m = 2 and two with m = 4, under t = (r/s) pi and symbolic t in turn."""
    specs = []
    for index in range(6):
        a = [rng.choice([-1, 1]) * rng.randint(1, 4) for _ in range(1 + index // 4)]
        r, s = rng.choice([-1, 1]) * rng.randint(1, 4), rng.randint(1, 4)
        specs.append(sh.example1(a, "symbolic" if index % 2 else f"rational_pi({r},{s})"))
    return specs


def escaping_specs() -> list[sh.SolvManifoldSpec]:
    """The first six symbolic-scale specs of the float-regime cases in ``test_perfbench_contract``,
    three with m = 2 and three with m = 4: every non-trivial pair escapes the exact gate."""
    draws = scaled_draws(corpus, random.Random("float regime"))[:6]
    return [
        load_spec_dict(corpus._scaled_spec(f"scaled_{i}", a, s_witness, t_witness))
        for i, (a, s_witness, t_witness) in enumerate(draws)
    ]


def test_sweep_matches_the_literal_oracle():
    rng = random.Random(SEED)
    randoms = random_specs(rng)  # the same specs as the test above
    examples = example1_specs(rng)
    scaled = escaping_specs()
    # the random specs and the escaping ones exact, example1 exact and forced-float
    cases = [(spec, False) for spec in randoms + examples + scaled]
    cases += [(spec, True) for spec in examples]
    wider = escaped = 0
    for spec, force_float in cases:
        sweep = sweep_trivial_pairs(spec, force_float)
        assert (list(sweep.pairs), sweep.certified) == literal_sweep(spec, force_float), (spec.name, force_float)
        wider += len(sweep) > 1
        escaped += not (force_float or sweep.certified)
    # the cases reach m = 4, every scaled spec escapes unforced, and most admit more than ((), ())
    assert max(spec.m for spec, _ in cases) == 4
    assert escaped == len(scaled)
    assert wider >= len(cases) * 3 // 4
