from fractions import Fraction

import solvhodge as sh
from solvhodge.exact import ComplexExact, SymbolTable
from solvhodge.kahler import INCONCLUSIVE, OBSTRUCTED, kaehler_obstruction
from solvhodge.model import CharacterExponent

from conftest import corpus_specs


def unitary_rotation_spec():
    """A purely rotational action: exp(i x) on one fiber coordinate."""
    table = SymbolTable.base()
    half_i = ComplexExact.make(im=Fraction(1, 2))
    alpha = CharacterExponent((half_i,), (half_i,))
    assert alpha.is_unitary
    return sh.SolvManifoldSpec(
        name="rotation",
        n=1,
        m=1,
        alphas=(alpha,),
        lattice=sh.torus(1, 1).lattice,
        lattice_fiber=None,
        symbols=table,
    )


def test_example1_obstructed():
    verdict = kaehler_obstruction(sh.example1([1], "symbolic"))
    assert verdict["status"] == OBSTRUCTED
    assert verdict["witnesses"] == [1, 2]
    assert verdict["completely_solvable"]


def test_torus_inconclusive():
    verdict = kaehler_obstruction(sh.torus(2, 1))
    assert verdict["status"] == INCONCLUSIVE
    assert verdict["witnesses"] == []


def test_unitary_action_inconclusive():
    # the criterion has no positive direction: purely rotational actions
    # stay inconclusive even though they are not tori
    verdict = kaehler_obstruction(unitary_rotation_spec())
    assert verdict["status"] == INCONCLUSIVE
    assert not verdict["completely_solvable"]


def test_witnesses_match_unitarity():
    for spec in corpus_specs():
        verdict = kaehler_obstruction(spec)
        expected = [
            i for i, alpha in enumerate(spec.alphas, start=1) if not alpha.is_unitary
        ]
        assert verdict["witnesses"] == expected
        assert (verdict["status"] == OBSTRUCTED) == bool(expected)


def test_completely_solvable_with_nontrivial_action_is_obstructed():
    for spec in corpus_specs():
        verdict = kaehler_obstruction(spec)
        nontrivial = any(not alpha.is_trivial for alpha in spec.alphas)
        if verdict["completely_solvable"] and nontrivial:
            assert verdict["status"] == OBSTRUCTED
