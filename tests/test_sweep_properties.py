"""Seeded properties of the pair sweep that faster sweeps and cost caps rely on.

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

import solvhodge as sh
from solvhodge.cohomology import PairSweep, sweep_trivial_pairs, wedge_closure_report

from conftest import HYPERBOLIC, random_character

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
        assert sweep_trivial_pairs(spec, force_float=True).pair_set == sweep.pair_set, spec
    # the budget must exercise both claims on sweeps that admit more than ((), ()),
    # with n = 2 among them
    assert certified == BUDGET and admitting >= BUDGET // 4
    assert admitting_planes >= 4
