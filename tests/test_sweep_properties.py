"""Seeded properties of the pair sweep that faster sweeps and cost caps rely on.

On random specs with n = 1 and m <= 3, built from random characters over
the standard Gaussian lattice and from example1 under symbolic t and
under t = (r/s) pi:

- a certified sweep is closed under disjoint union, because the gate is
  additive, so wedge closure needs no pair loop there;
- the forced-float sweep admits exactly the pairs of a certified exact
  sweep.
"""

import random

import solvhodge as sh
from solvhodge.cohomology import sweep_trivial_pairs
from solvhodge.forms import wedge_closure_report

from conftest import random_character

SEED = 20261018
BUDGET = 40


def random_specs(rng: random.Random) -> list[sh.SolvManifoldSpec]:
    """BUDGET specs: half random characters, half example1 in both regimes."""
    table = sh.SymbolTable.base()
    specs = []
    for index in range(BUDGET // 2):
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
    for index in range(BUDGET // 2):
        exponent = rng.choice([-1, 1]) * rng.randint(1, 6)
        r, s = rng.choice([-1, 1]) * rng.randint(1, 4), rng.randint(1, 4)
        t_mode = "symbolic" if index % 2 else f"rational_pi({r},{s})"
        specs.append(sh.example1([exponent], t_mode))
    return specs


def test_certified_sweeps_are_union_closed_and_float_agrees():
    certified = admitting = 0
    for spec in random_specs(random.Random(SEED)):
        sweep = sweep_trivial_pairs(spec)
        if not sweep.certified:
            continue
        certified += 1
        admitting += len(sweep) > 1
        assert wedge_closure_report(spec, sweep).closed, spec
        assert sweep_trivial_pairs(spec, force_float=True).pair_set == sweep.pair_set, spec
    # the budget must exercise both claims on sweeps that admit more than ((), ())
    assert certified == BUDGET and admitting >= BUDGET // 4
