"""Pair-level verdicts against the literal enumerations they replace.

Conjugation symmetry, wedge closure and the harmonicity flags are decided
on the admitted fiber pairs alone, the Hodge table on their histogram by
(|J|, |L|), and analyze's harmonicity verdict on one character per spec.
Symmetry, the Hodge table and the condition are held to ``reference``,
which shares no code with the package: its basis quadruples of a pair set,
the table counted from them, their swap symmetry, and the 4^m walk for the
pairs whose character product is identically 1, read off exponent vectors
of Fractions.  Wedge closure and harmonicity are held to the form algebra
of ``forms``: every product of two basis forms, and every basis form and
its stars.
"""

import ast
from fractions import Fraction
from pathlib import Path

import pytest

import solvhodge as sh
from solvhodge import cli, cohomology, forms, report
from solvhodge.cohomology import (
    BasisElement,
    PairSweep,
    all_basis_elements,
    check_condition,
    conjugation_symmetry,
    harmonic_rows,
    hodge_symmetry,
    hodge_table,
    sweep_trivial_pairs,
    wedge_closure_report,
)
from solvhodge.forms import basis_form, is_d_harmonic, is_dbar_coclosed, is_dbar_harmonic
from solvhodge.specfile import spec_to_dict

from conftest import basis_elements, corpus_specs, forms_corpus_specs
import reference
import smoke

FLAG_NAMES = ("co_closed", "d_harmonic")


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


def literal_harmonic_flags(spec, sweep):
    """Per basis element, the flags read off its exact form and the form's stars.

    The rows print dbar-closedness as a constant, so every form is checked
    to be dbar-closed here.
    """
    flags = []
    for element in all_basis_elements(spec, sweep):
        form = basis_form(spec, element, sweep)
        assert form.dbar().is_zero, (spec.name, element)
        flags.append((element, is_dbar_coclosed(form, spec), is_d_harmonic(form, spec)))
    return flags


def row_flags(rows):
    return [
        (BasisElement(*(tuple(row[key]) for key in "IJKL")), row["co_closed"], row["d_harmonic"])
        for row in rows
    ]


def random_stub(spec, rng):
    """A certified sweep stub: a random share of the 4^m fiber pairs, with ((), ()) always in."""
    chosen = {pair for pair in reference.all_pairs(spec.m) if rng.random() < 0.4} | {((), ())}
    return PairSweep(tuple(sorted(chosen)), certified=True)


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
            assert conjugation_symmetry(sweep) == reference.symmetric(reference.basis(sweep, spec.n)), spec.name

    def test_wedge_closure_on_corpus(self):
        for spec in corpus_specs():
            if spec.complex_dim > 3:
                continue
            sweep = sweep_trivial_pairs(spec)
            got = wedge_closure_report(spec, sweep=sweep) is None
            assert got == literal_wedge_closure(spec, sweep), spec.name

    def test_random_stub_sweeps(self, rng):
        verdicts = {"symmetry": set(), "wedge": set()}
        for spec in (sh.torus(0, 2), sh.torus(1, 1)):
            pairs = reference.all_pairs(spec.m)
            for trial in range(30):
                chosen = {pair for pair in pairs if rng.random() < 0.4}
                if trial % 3 == 1:
                    chosen = swap_closure(chosen)
                elif trial % 3 == 2:
                    chosen = union_closure(chosen)
                # not outputs of the exact gate, so the literal union check runs
                stub = PairSweep(tuple(sorted(chosen)), certified=False)
                symmetric = conjugation_symmetry(stub)
                assert symmetric == reference.symmetric(reference.basis(stub, spec.n)), stub
                failure = wedge_closure_report(spec, sweep=stub)
                assert (failure is None) == literal_wedge_closure(spec, stub), stub
                if failure is not None:
                    first, second = failure
                    assert first.I == first.K == second.I == second.K == ()
                    union = (
                        tuple(sorted(first.J + second.J)),
                        tuple(sorted(first.L + second.L)),
                    )
                    assert not set(first.J) & set(second.J)
                    assert not set(first.L) & set(second.L)
                    assert union not in stub
                verdicts["symmetry"].add(symmetric)
                verdicts["wedge"].add(failure is None)
        assert verdicts == {"symmetry": {True, False}, "wedge": {True, False}}


class TestHodgeTableAgainstPerPairSum:
    """The closed binomial count against the basis quadruples of the reference, counted one by one."""

    @staticmethod
    def assert_counted(spec, sweep):
        counted = reference.hodge(reference.basis(sweep, spec.n), spec.complex_dim)
        assert list(map(list, hodge_table(spec, sweep).rows())) == counted, (spec.name, sweep)

    def test_corpus(self):
        for spec in corpus_specs():
            for force_float in (False, True):
                self.assert_counted(spec, sweep_trivial_pairs(spec, force_float))

    def test_random_stub_sweeps(self, rng):
        for spec in (sh.torus(0, 3), sh.torus(1, 2), sh.torus(2, 2), sh.torus(3, 1)):
            for _ in range(15):
                self.assert_counted(spec, random_stub(spec, rng))


class TestBasisListing:
    """``all_basis_elements`` is the one listing; ``basis_elements`` reads its blocks."""

    @staticmethod
    def assert_listing(spec, sweep):
        listing = all_basis_elements(spec, sweep)
        keys = [(el.p, el.q, el.I, el.J, el.K, el.L) for el in listing]
        assert keys == sorted(set(keys)), "unsorted or duplicated"
        assert all((el.J, el.L) in sweep for el in listing)
        assert len(listing) == len(sweep) * 4**spec.n
        table = hodge_table(spec, sweep)
        dim = spec.complex_dim
        blocks = {(p, q): basis_elements(spec, p, q, sweep) for p in range(dim + 1) for q in range(dim + 1)}
        assert sum(blocks.values(), ()) == listing
        for (p, q), block in blocks.items():
            assert all((el.p, el.q) == (p, q) for el in block)
            assert len(block) == table.h[p][q], (p, q)

    def test_corpus(self):
        for spec in corpus_specs():
            self.assert_listing(spec, sweep_trivial_pairs(spec))

    def test_random_stub_sweeps(self, rng):
        for spec in (sh.torus(0, 3), sh.torus(1, 2), sh.torus(2, 2), sh.torus(3, 1)):
            for _ in range(15):
                self.assert_listing(spec, random_stub(spec, rng))


class TestSymmetryFromSwapClosure:
    """analyze's symmetry verdict is swap closure alone: it implies h[p][q] == h[q][p]."""

    def test_swap_closed_stub_has_symmetric_table(self, rng):
        for spec in (sh.torus(0, 3), sh.torus(1, 2), sh.torus(2, 2), sh.torus(3, 1)):
            pairs = reference.all_pairs(spec.m)
            for _ in range(15):
                chosen = swap_closure({pair for pair in pairs if rng.random() < 0.3} | {((), ())})
                stub = PairSweep(tuple(sorted(chosen)), certified=True)
                assert conjugation_symmetry(stub), stub
                assert hodge_symmetry(hodge_table(spec, stub)), stub

    def test_old_expression_agrees_on_corpus(self):
        for spec in corpus_specs():
            for force_float in (False, True):
                sweep = sweep_trivial_pairs(spec, force_float)
                old = hodge_symmetry(hodge_table(spec, sweep)) and conjugation_symmetry(sweep)
                new = cli.analyze(spec, skip_forms=True, force_float=force_float)["symmetry"]
                assert new == old, spec.name


class TestHarmonicRowsAgainstForms:
    def test_forms_corpus(self):
        for spec in forms_corpus_specs():
            sweep = sweep_trivial_pairs(spec)
            assert row_flags(harmonic_rows(spec, sweep)) == literal_harmonic_flags(
                spec, sweep
            ), spec.name

    def test_random_stub_sweeps(self, rng):
        # Stubs admit pairs the lattice gate rejects, whose characters are
        # nontrivial on the base, so d-harmonicity fails on some of them.
        # The builders' alphas are real (conj(alpha) = alpha) and multiply to
        # a unitary character, which makes every basis form co-closed.  The
        # generic specs have complex alphas; only the second multiplies to a
        # unitary character, and the third (n = 2) puts the supports on base
        # index 2 as well as 1.  The basis characters are holomorphic, so
        # dbar-closedness never fails.
        table = sh.SymbolTable.base()

        def complex_char(a_re, a_im, b_re, b_im):
            a = sh.ComplexExact.make(re=Fraction(a_re), im=Fraction(a_im))
            b = sh.ComplexExact.make(re=Fraction(b_re), im=Fraction(b_im))
            return sh.CharacterExponent((a,), (b,))

        def joined(*chars):
            return sh.CharacterExponent(sum((c.a for c in chars), ()), sum((c.b for c in chars), ()))

        def generic(name, *alphas, n=1):
            return sh.SolvManifoldSpec(
                name=name,
                n=n,
                m=2,
                alphas=alphas,
                lattice=sh.torus(n, 2).lattice,
                lattice_fiber=sh.torus(n, 2).lattice_fiber,
                symbols=table,
            )

        first = complex_char(1, "1/2", "1/2", -1)
        specs = (
            sh.torus(1, 1),
            sh.torus(2, 1),
            sh.example1([1], "rational_pi(1,1)"),
            sh.example2_n1([[2, 1], [1, 1]]),
            generic("generic", first, complex_char("-1/3", 1, 2, "-1/2")),
            generic("generic_unitary_product", first, complex_char(-1, 1, "-1/2", "5/2")),
            generic(
                "generic_n2",
                joined(first, complex_char(0, 0, "1/2", 1)),
                joined(complex_char("-1/3", 1, 2, "-1/2"), complex_char(1, -1, 0, 0)),
                n=2,
            ),
        )
        assert (first * specs[-2].alphas[1]).is_unitary
        false_flags = set()
        for trial in range(60):
            spec = specs[trial % len(specs)]
            chosen = [pair for pair in reference.all_pairs(spec.m) if rng.random() < 0.5]
            stub = PairSweep(tuple(sorted(chosen)), certified=True)
            rows = row_flags(harmonic_rows(spec, stub))
            assert rows == literal_harmonic_flags(spec, stub), (spec.name, stub)
            false_flags |= {
                name for row in rows for name, flag in zip(FLAG_NAMES, row[1:]) if not flag
            }
        assert false_flags == {"co_closed", "d_harmonic"}


CHARACTER_FAMILIES = ("trivial", "holomorphic", "antiholomorphic", "unitary", "real", "generic")


def random_family_character(n, family, rng):
    """A character of one of CHARACTER_FAMILIES, with exponent entries in {0, 1, -1, i, -i}."""
    units = [(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)]

    def vector():
        return tuple(sh.ComplexExact.make(*rng.choice(units)) for _ in range(n))

    zero = (sh.ComplexExact.zero(),) * n
    a, b = vector(), vector()
    if family == "trivial":
        a = b = zero
    elif family == "holomorphic":
        b = zero
    elif family == "antiholomorphic":
        a = zero
    elif family == "unitary":
        a = tuple(-c.conjugate() for c in b)
    elif family == "real":
        b = tuple(c.conjugate() for c in a)
    return sh.CharacterExponent(a, b)


def random_family_specs(rng, count):
    """Seeded specs with n + m <= 3 over the Gaussian lattice, each alpha from a random family."""
    table = sh.SymbolTable.base()
    specs = []
    for index in range(count):
        n, m = rng.choice(((1, 1), (1, 2), (2, 1)))
        alphas = tuple(
            random_family_character(n, rng.choice(CHARACTER_FAMILIES), rng)
            for _ in range(m)
        )
        specs.append(
            sh.SolvManifoldSpec(
                name=f"random_{index}",
                n=n,
                m=m,
                alphas=alphas,
                lattice=sh.torus(n, m).lattice,
                lattice_fiber=None,
                symbols=table,
            )
        )
    return specs


def literal_harmonic_verdict(spec, sweep) -> bool:
    """Every basis form dbar-harmonic and, when the condition holds, d-harmonic."""
    condition = not check_condition(spec, sweep)
    return all(
        is_dbar_harmonic(form, spec) and (not condition or is_d_harmonic(form, spec))
        for form in (basis_form(spec, el, sweep) for el in all_basis_elements(spec, sweep))
    )


class TestPairCharacterIdentities:
    """The identities behind harmonic_rows, on chi, chi_co and chi_lin formed literally."""

    def test_corpus_and_random_specs(self, rng):
        for spec in forms_corpus_specs() + random_family_specs(rng, 20):
            alphas = spec.alphas
            bars = tuple(alpha.conjugate() for alpha in alphas)
            trivial = sh.CharacterExponent.trivial(spec.n)

            def product_over(factors, indices):
                out = trivial
                for i in indices:
                    out = out * factors[i - 1]
                return out

            everything = tuple(range(1, spec.m + 1))
            c = (product_over(alphas, everything) * product_over(bars, everything)).b
            for J, L in reference.all_pairs(spec.m):
                Jc = tuple(s for s in everything if s not in J)
                Lc = tuple(s for s in everything if s not in L)
                chi = forms._basis_character(spec, J, L)
                gate = chi * product_over(alphas, J) * product_over(bars, L)
                chi_co = gate.conjugate() * (product_over(alphas, Jc) * product_over(bars, Lc)).inverse()
                chi_lin = gate * (product_over(bars, Jc) * product_over(alphas, Lc)).inverse()
                assert chi_co.b == tuple(-x for x in c), (spec.name, J, L)
                assert chi_lin.a == tuple(-x.conjugate() for x in c), (spec.name, J, L)
                assert chi_lin.b == tuple(-x.conjugate() - y for x, y in zip(chi.a, c))
                if (gate * chi.inverse()).is_trivial:
                    assert chi.is_trivial, (spec.name, J, L)


class TestHarmonicVerdictAgainstForms:
    """analyze's one-character verdict against every basis form and its stars."""

    def test_corpus_and_random_specs(self, rng):
        seen = set()
        for spec in forms_corpus_specs() + random_family_specs(rng, 60):
            oracle = {}
            for force_float in (False, True):
                result = cli.analyze(spec, force_float=force_float)
                sweep = sweep_trivial_pairs(spec, force_float)
                if sweep.pairs not in oracle:
                    oracle[sweep.pairs] = literal_harmonic_verdict(spec, sweep)
                assert result["harmonic_certified"] == oracle[sweep.pairs], (spec.name, force_float)
                seen.add((result["condition"]["holds"], result["harmonic_certified"]))
        assert seen == {(True, True), (True, False), (False, True), (False, False)}


class TestTrivialCharactersAdmitted:
    """The converse half of the condition: alpha_J * conj(alpha)_L = 1 implies (J, L) admitted."""

    @pytest.mark.parametrize("force_float", [False, True])
    def test_on_corpus(self, force_float):
        for spec in corpus_specs():
            sweep = sweep_trivial_pairs(spec, force_float)
            trivial = reference.trivial_pairs(spec_to_dict(spec))
            assert ((), ()) in trivial
            assert all(pair in sweep for pair in trivial), spec.name


def random_example1_specs(rng, count):
    """example1 with one or two exponents (m = 2 or 4), under symbolic t and under t = (r/s) pi."""
    specs = []
    for index in range(count):
        exponents = [rng.choice([-1, 1]) * rng.randint(1, 4) for _ in range(rng.randint(1, 2))]
        r, s = rng.choice([-1, 1]) * rng.randint(1, 3), rng.randint(1, 3)
        specs.append(sh.example1(exponents, "symbolic" if index % 2 else f"rational_pi({r},{s})"))
    return specs


class TestConditionAgainstProduct:
    """check_condition compares A_J with the inverse of Abar_L; the reference sums their exponents."""

    def test_corpus_and_random_example1(self, rng):
        failing = 0
        for spec in corpus_specs() + random_example1_specs(rng, 30):
            trivial = set(reference.trivial_pairs(spec_to_dict(spec)))
            for force_float in (False, True):
                sweep = sweep_trivial_pairs(spec, force_float)
                violations = check_condition(spec, sweep)
                literal = tuple(pair for pair in sweep if pair not in trivial)
                assert violations == literal, (spec.name, force_float)
                failing += bool(violations)
        # the resonant t = (r/s) pi specs must make the condition fail on some sweeps
        assert failing >= 10


class TestOneSweepPerAnalyze:
    @staticmethod
    def count_sweeps(monkeypatch) -> list:
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return sweep_trivial_pairs(*args, **kwargs)

        for module in (cli, cohomology, report):
            monkeypatch.setattr(module, "sweep_trivial_pairs", counted, raising=False)
        return calls

    @pytest.mark.parametrize("force_float", [False, True])
    def test_sweep_runs_once(self, monkeypatch, force_float):
        calls = self.count_sweeps(monkeypatch)
        result = cli.analyze(sh.example1([1], "symbolic"), force_float=force_float)
        assert len(calls) == 1
        assert result["wedge_closure"] and result["harmonic_certified"]
        assert result["mode"] == ("float_fallback" if force_float else "exact")

    def test_check_harmonic_sweeps_once(self, monkeypatch, tmp_path, capsys):
        path = tmp_path / "example1.json"
        sh.save_spec(sh.example1([1], "symbolic"), path)
        calls = self.count_sweeps(monkeypatch)
        assert cli.main(["check-harmonic", str(path)]) == cli.EXIT_OK
        assert len(calls) == 1
        assert "all dbar-harmonic: True" in capsys.readouterr().out


def test_no_assert_statements_in_package():
    package = Path(sh.__file__).parent
    offenders = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert offenders == []


def test_no_dataclass_in_package():
    package = Path(sh.__file__).parent
    offenders = [
        path.name for path in sorted(package.glob("*.py")) if "dataclass" in path.read_text()
    ]
    assert offenders == []


# The import contract, each rule run as its rows of smoke.py in fresh interpreters,
# so that modules this session loaded do not hide an import.
def test_cli_import_leaves_out_dataclasses_and_inspect():
    assert smoke.run_from_source(smoke.CLI_IMPORT) == 0


def test_package_import_loads_no_submodule():
    assert smoke.run_from_source(smoke.PACKAGE_IMPORT) == 0


def test_explicit_spec_loading_loads_three_submodules():
    assert smoke.run_from_source(smoke.EXPLICIT_SPEC_LOAD) == 0


def test_builder_node_loading_adds_manifold():
    assert smoke.run_from_source(smoke.BUILDER_NODE_LOAD) == 0


def test_cli_import_loads_every_module_but_forms():
    assert smoke.run_from_source(smoke.CLI_IMPORT) == 0


def test_lazy_namespace_resolves_each_public_name_to_its_submodule():
    assert smoke.run_from_source(smoke.STAR_IMPORT) == 0
