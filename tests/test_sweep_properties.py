"""Seeded properties of the pair sweep that faster sweeps and cost caps rely on.

The sweep matches ``reference.sweep``, a literal 4^m walk that shares no
code with the package, on the specs below, on symbolic-scale specs that
escape the exact gate, on example1 with m <= 4 and on the corpus, both
exact and forced-float, and on explicit spec dicts written without the
package's model. On the same cases a full ``analyze`` gives
``reference.report``'s mode, Hodge and Betti tables, condition, symmetry,
Serre, wedge-closure and harmonicity flags and Kaehler record.

On random specs with m <= 3 — random characters over the standard
Gaussian lattice of C^n for n = 1 and n = 2, example1 under symbolic t
and under t = (r/s) pi, and example2_n1 over hyperbolic unimodular
matrices:

- a certified sweep is closed under disjoint union, because the gate is
  additive, so wedge closure needs no pair loop there;
- the forced-float sweep admits exactly the pairs of a certified exact
  sweep.
"""

import ast
import random
from pathlib import Path

import solvhodge as sh
from solvhodge.cli import analyze
from solvhodge.cohomology import PairSweep, sweep_trivial_pairs, wedge_closure_report
from solvhodge.model import MAX_FORMS_DIM
from solvhodge.specfile import load_spec_dict, spec_to_dict

import reference
from conftest import HYPERBOLIC, corpus_specs, load_perfbench, random_character, scaled_draws

corpus = load_perfbench("corpus")

SEED = 20261018
BUDGET = 64  # 20 random with n = 1, 20 example1, 16 random with n = 2, 8 example2_n1


def periodic_character(rng: random.Random) -> sh.CharacterExponent:
    """exp(2 pi i (k_1 y_1 + k_2 y_2)) on C^2: trivial on the Gaussian lattice, not as a character."""
    a = tuple(
        sh.ComplexExact.make(re=sh.ExactScalar.pi_multiple(rng.randint(-1, 1)))
        for _ in range(2)
    )
    return sh.CharacterExponent(a, tuple(-c for c in a))


def plane_characters(m: int, rng: random.Random):
    """m characters on C^2, mixing random ones, inverses of earlier ones and periodic ones."""
    alphas = []
    for _ in range(m):
        kind = rng.randrange(3)
        if kind == 0 and alphas:
            alphas.append(rng.choice(alphas).inverse())
        elif kind == 1:
            alphas.append(periodic_character(rng))
        else:
            alphas.append(random_character(2, rng))
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
                alphas=tuple(random_character(1, rng) for _ in range(m)),
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
                alphas=plane_characters(m, rng),
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


def example1_specs(rng: random.Random) -> list[sh.SolvManifoldSpec]:
    """Six example1 specs, four with m = 2 and two with m = 4, under t = (r/s) pi and symbolic t in turn."""
    specs = []
    for index in range(6):
        a = [rng.choice([-1, 1]) * rng.randint(1, 4) for _ in range(1 + index // 4)]
        r, s = rng.choice([-1, 1]) * rng.randint(1, 4), rng.randint(1, 4)
        specs.append(sh.example1(a, "symbolic" if index % 2 else f"rational_pi({r},{s})"))
    return specs


def escaping_dicts() -> list[dict]:
    """The first six symbolic-scale spec dicts of the float-regime cases in ``test_perfbench_contract``,
    three with m = 2 and three with m = 4: every non-trivial pair escapes the exact gate."""
    draws = scaled_draws(corpus, random.Random("float regime"))[:6]
    return [
        corpus._scaled_spec(f"scaled_{i}", a, s_witness, t_witness)
        for i, (a, s_witness, t_witness) in enumerate(draws)
    ]


def matches_the_reference_report(spec, data, force_float=False) -> dict:
    """``reference.report`` of ``data``, after checking that ``analyze`` gives each of its fields;
    with forms wherever the spec is within the forms cap."""
    skip_forms = spec.complex_dim > MAX_FORMS_DIM
    expected = reference.report(data, force_float, skip_forms)
    record = analyze(spec, skip_forms=skip_forms, force_float=force_float)
    assert {key: record[key] for key in expected} == expected, (spec.name, force_float)
    return expected


def test_sweep_matches_the_literal_oracle():
    rng = random.Random(SEED)
    randoms = random_specs(rng)  # the same specs as the test above
    examples = example1_specs(rng)
    scaled = escaping_dicts()
    # the random specs and the escaping ones exact, example1 and the corpus exact and forced-float
    cases = [(spec, spec_to_dict(spec), False) for spec in randoms + examples + corpus_specs()]
    cases += [(load_spec_dict(data), data, False) for data in scaled]
    cases += [(spec, spec_to_dict(spec), True) for spec in examples + corpus_specs()]
    wider = escaped = violated = asymmetric = 0
    for spec, data, force_float in cases:
        sweep = sweep_trivial_pairs(spec, force_float)
        assert (list(sweep.pairs), sweep.certified) == reference.sweep(data, force_float), (spec.name, force_float)
        expected = matches_the_reference_report(spec, data, force_float)
        wider += len(sweep) > 1
        escaped += not (force_float or sweep.certified)
        violated += not expected["condition"]["holds"]
        asymmetric += not expected["symmetry"]
    # the cases reach m = 4, every scaled spec escapes unforced, and most admit more than ((), ());
    # some violate the condition, and some break the symmetry
    assert max(spec.m for spec, _, _ in cases) == 4
    assert escaped == len(scaled)
    assert wider >= len(cases) * 3 // 4
    assert violated >= 10 and asymmetric >= 3, (violated, asymmetric)


def random_scalar(rng: random.Random) -> dict:
    """A scalar literal: zero, a multiple of pi/2, a small rational or the symbol s."""
    return rng.choice([{}, {"pi": str(rng.randint(-2, 2))}, {"pi": f"{rng.randint(-3, 3)}/2"},
                       {"one": f"{rng.randint(-3, 3)}/{rng.randint(1, 3)}"}, {"s": "1"}])


def random_dicts(rng: random.Random, count: int) -> list[dict]:
    """Explicit spec dicts written directly, n and m up to 2 and 3, over Z[i]^n or a lattice scaled by s."""
    specs = []
    for index in range(count):
        n, m = rng.randint(1, 2), rng.randint(1, 3)
        scale = rng.choice(["one", "one", "s"])
        lattice = [
            [{part: {scale: "1"}} if k == j else {} for k in range(n)] for part in ("re", "im") for j in range(n)
        ]
        alphas = [
            {"real_exp": [random_scalar(rng) for _ in range(n)]} if rng.random() < 0.2
            else {key: [{"re": random_scalar(rng), "im": random_scalar(rng)} for _ in range(n)] for key in "ab"}
            for _ in range(m)
        ]
        specs.append({"name": f"explicit_{index}", "n": n, "m": m, "symbols": [{"name": "s", "value": 1.25}],
                      "alphas": alphas, "lattice": lattice})
    return specs


# two copies of exp(2i s y), y = Im z, on Z + i t Z: s t escapes the exact gate, and on the witnesses
# each copy passes the float gate at i t (|sin s t| = 8e-10) while their product does not (1.6e-9),
# so the float sweep is not closed under disjoint union
NEAR_RESONANT = {
    "name": "near_resonant", "n": 1, "m": 2,
    "symbols": [{"name": "s", "value": 8e-10}, {"name": "t", "value": 1.0}],
    "alphas": [{"a": [{}], "b": [{"re": {"s": "1"}}]}] * 2,
    "lattice": [[{"re": {"one": "1"}}], [{"im": {"t": "1"}}]],
}


def test_sweep_matches_the_reference_on_explicit_dicts():
    wider = escaped = violated = asymmetric = unclosed = 0
    for data in random_dicts(random.Random(SEED), 24) + [NEAR_RESONANT]:
        spec = load_spec_dict(data)
        sweep = sweep_trivial_pairs(spec)
        assert (list(sweep.pairs), sweep.certified) == reference.sweep(data), data["name"]
        expected = matches_the_reference_report(spec, data)
        wider += len(sweep) > 1
        escaped += not sweep.certified
        violated += not expected["condition"]["holds"]
        asymmetric += not expected["symmetry"]
        unclosed += expected["wedge_closure"] is False
    assert wider >= 6 and escaped >= 3, (wider, escaped)
    assert violated >= 6 and asymmetric >= 3, (violated, asymmetric)
    assert unclosed == 1


def test_reference_imports_only_the_standard_library():
    tree = ast.parse(Path(reference.__file__).read_text())
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names}
    imported |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert imported == {"cmath", "fractions", "itertools", "math"}
