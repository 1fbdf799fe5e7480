"""Pair-level verdicts against the literal enumerations they replace.

Conjugation symmetry and wedge closure are decided on the admitted fiber
pairs alone.  The literal checks below enumerate basis elements (and, for
the wedge, every product of two basis forms); they are kept here as
differential oracles, together with the 4^m walk behind the converse half
of the condition check.
"""

import ast
from itertools import product
from pathlib import Path

import pytest

import solvhodge as sh
from solvhodge import cli, cohomology, forms, report
from solvhodge.cohomology import (
    PairSweep,
    _subset_products,
    _subsets,
    all_basis_elements,
    basis_elements,
    conjugation_symmetry,
    sweep_trivial_pairs,
)
from solvhodge.forms import basis_form, wedge_closure_report

from conftest import corpus_specs


def literal_conjugation_symmetry(spec, sweep) -> bool:
    """Index swap maps the basis of every bidegree onto its mirror."""
    dim = spec.complex_dim
    return all(
        {el.swapped() for el in basis_elements(spec, p, q, sweep)}
        == set(basis_elements(spec, q, p, sweep))
        for p in range(dim + 1)
        for q in range(dim + 1)
    )


def literal_wedge_closure(spec, sweep) -> bool:
    """Every product of two basis forms lies in the exact span of the basis."""
    basis = [basis_form(spec, el, sweep) for el in all_basis_elements(spec, sweep)]
    span_keys = {(char, word) for form in basis for _, char, word in form.terms}
    return all(
        (char, word) in span_keys
        for f1 in basis
        for f2 in basis
        for _, char, word in f1.wedge(f2).terms
    )


def all_pairs(m):
    subsets = _subsets(m)
    return list(product(subsets, subsets))


def swap_closure(pairs):
    return pairs | {(L, J) for J, L in pairs}


def union_closure(pairs):
    closed = set(pairs)
    while True:
        grown = {
            (tuple(sorted(J1 + J2)), tuple(sorted(L1 + L2)))
            for J1, L1 in closed
            for J2, L2 in closed
            if not set(J1) & set(J2) and not set(L1) & set(L2)
        }
        if grown <= closed:
            return closed
        closed |= grown


class TestAgainstLiteralEnumeration:
    def test_conjugation_symmetry_on_corpus(self):
        for spec in corpus_specs():
            sweep = sweep_trivial_pairs(spec)
            assert conjugation_symmetry(spec, sweep) == literal_conjugation_symmetry(
                spec, sweep
            ), spec.name

    def test_wedge_closure_on_corpus(self):
        for spec in corpus_specs():
            if spec.complex_dim > 3:
                continue
            sweep = sweep_trivial_pairs(spec)
            got = wedge_closure_report(spec, sweep=sweep).closed
            assert got == literal_wedge_closure(spec, sweep), spec.name

    def test_random_stub_sweeps(self, rng):
        verdicts = {"symmetry": set(), "wedge": set()}
        for spec in (sh.torus(0, 2), sh.torus(1, 1)):
            pairs = all_pairs(spec.m)
            for trial in range(30):
                chosen = {pair for pair in pairs if rng.random() < 0.4}
                if trial % 3 == 1:
                    chosen = swap_closure(chosen)
                elif trial % 3 == 2:
                    chosen = union_closure(chosen)
                stub = PairSweep(tuple(sorted(chosen)), certified=True)
                symmetric = conjugation_symmetry(spec, stub)
                assert symmetric == literal_conjugation_symmetry(spec, stub), stub
                wedge = wedge_closure_report(spec, sweep=stub)
                assert wedge.closed == literal_wedge_closure(spec, stub), stub
                if not wedge.closed:
                    first, second = wedge.first_failure
                    assert first.I == first.K == second.I == second.K == ()
                    union = (
                        tuple(sorted(first.J + second.J)),
                        tuple(sorted(first.L + second.L)),
                    )
                    assert not set(first.J) & set(second.J)
                    assert not set(first.L) & set(second.L)
                    assert union not in stub
                verdicts["symmetry"].add(symmetric)
                verdicts["wedge"].add(wedge.closed)
        assert verdicts == {"symmetry": {True, False}, "wedge": {True, False}}


class TestTrivialCharactersAdmitted:
    """The converse half of the condition: alpha_J * conj(alpha)_L = 1 implies (J, L) admitted."""

    @staticmethod
    def trivial_character_pairs(spec):
        subsets = _subsets(spec.m)
        trivial = sh.CharacterExponent.trivial(spec.symbols, spec.n)
        alpha = _subset_products(spec.alphas, subsets, trivial)
        conj = _subset_products(tuple(a.conjugate() for a in spec.alphas), subsets, trivial)
        return [(J, L) for J, L in product(subsets, subsets) if (alpha[J] * conj[L]).is_trivial]

    @pytest.mark.parametrize("force_float", [False, True])
    def test_on_corpus(self, force_float):
        for spec in corpus_specs():
            sweep = sweep_trivial_pairs(spec, force_float)
            trivial = self.trivial_character_pairs(spec)
            assert ((), ()) in trivial
            assert all(pair in sweep for pair in trivial), spec.name


class TestOneSweepPerAnalyze:
    @pytest.mark.parametrize("force_float", [False, True])
    def test_sweep_runs_once(self, monkeypatch, force_float):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return sweep_trivial_pairs(*args, **kwargs)

        for module in (cli, cohomology, forms, report):
            monkeypatch.setattr(module, "sweep_trivial_pairs", counted)
        result = cli.analyze(
            sh.example1([1], "symbolic"), cli.AnalyzeOptions(force_float=force_float)
        )
        assert len(calls) == 1
        assert result.wedge_closure and result.harmonic_certified
        assert result.mode == ("float_fallback" if force_float else "exact")


def test_no_assert_statements_in_package():
    package = Path(sh.__file__).parent
    offenders = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert offenders == []
