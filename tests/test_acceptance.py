"""Acceptance suite: one test per release criterion, exact tolerances.

Each test prints a single pass line; any failure shows up as a plain
pytest failure with the offending values.
"""

from itertools import product
from math import comb

import numpy as np

import solvhodge as sh
from solvhodge.cli import analyze
from solvhodge.cohomology import all_basis_elements, hodge_symmetry, sweep_trivial_pairs, wedge_closure_report
from solvhodge.exact import ComplexExact
from solvhodge.forms import (
    FrameForm,
    Generator,
    basis_form,
    bar_star,
    is_d_harmonic,
    is_dbar_harmonic,
    volume_form,
)
from solvhodge.kahler import INCONCLUSIVE, OBSTRUCTED, kaehler_obstruction
from solvhodge.manifold import validate

from conftest import (
    basis_elements,
    corpus_specs,
    dbar_residual,
    forms_corpus_specs,
    random_character,
    random_homogeneous_form,
    random_rational_complex,
    random_twisted_form,
    random_unitary_character,
    rational_value,
    witness_rows,
)

EXAMPLE1_HODGE = ((1, 1, 1, 1), (1, 3, 3, 1), (1, 3, 3, 1), (1, 1, 1, 1))
EXAMPLE1_BETTI = (1, 2, 5, 8, 5, 2, 1)


def done(label):
    print(f"[acceptance] {label}: PASS")


def test_criterion_01_torus_tables():
    for n in range(6):
        for m in range(6 - n):
            if n + m == 0:
                continue
            spec = sh.torus(n, m)
            dim = n + m
            sweep = sweep_trivial_pairs(spec)
            table = sh.hodge_table(spec, sweep)
            for p in range(dim + 1):
                for q in range(dim + 1):
                    assert table.h[p][q] == comb(dim, p) * comb(dim, q), (n, m, p, q)
            betti = sh.betti_numbers(table)
            assert betti == tuple(comb(2 * dim, r) for r in range(2 * dim + 1))
            assert not sh.check_condition(spec, sweep)
    done("criterion 1: torus tables are pure binomials")


def brute_force_example1_table():
    """Independent enumeration over all 4096 subset quadruples.

    Coordinates 1..3 name z_1, w_1, w_2.  A quadruple contributes when I, K
    pick base coordinates only, J, L pick fiber coordinates only, and the
    signed fiber exponents (+1 for w_1, -1 for w_2) cancel across J and L:
    with the generator i*t, t independent, the paired unitary character is
    trivial exactly when that integer sum is zero.
    """
    coordinates = (1, 2, 3)
    signs = {2: 1, 3: -1}
    subsets = [tuple(c for c in coordinates if mask & (1 << (c - 1))) for mask in range(8)]
    table = [[0] * 4 for _ in range(4)]
    checked = 0
    for I, J, K, L in product(subsets, repeat=4):
        checked += 1
        if any(c != 1 for c in I) or any(c != 1 for c in K):
            continue
        if 1 in J or 1 in L:
            continue
        if sum(signs[c] for c in J) + sum(signs[c] for c in L) != 0:
            continue
        table[len(I) + len(J)][len(K) + len(L)] += 1
    assert checked == 4096
    return tuple(tuple(row) for row in table)


def test_criterion_02_example1_against_brute_force():
    spec = sh.example1([1], "symbolic")
    sweep = sweep_trivial_pairs(spec)
    table = sh.hodge_table(spec, sweep)
    assert table.rows() == EXAMPLE1_HODGE
    assert brute_force_example1_table() == EXAMPLE1_HODGE
    for p in range(4):
        for q in range(4):
            assert len(basis_elements(spec, p, q, sweep)) == table.h[p][q]
    assert sh.betti_numbers(table) == EXAMPLE1_BETTI
    assert not sh.check_condition(spec, sweep)
    done("criterion 2: example 1 table equals the 4096-fold brute force")


def test_criterion_03_condition_dichotomy():
    symbolic = sh.example1([1], "symbolic")
    assert not sh.check_condition(symbolic, sweep_trivial_pairs(symbolic))
    symbolic_pairs = frozenset(sweep_trivial_pairs(symbolic))
    for r, s in ((1, 1), (2, 1), (3, 1)):
        resonant = sh.example1([1], f"rational_pi({r},{s})")
        violations = sh.check_condition(resonant, sweep_trivial_pairs(resonant))
        assert violations, (r, s)
        assert ((1,), (1,)) in violations
        reported = analyze(resonant, skip_forms=True)["condition"]["violations"]
        assert {"J": [1], "L": [1], "reason": "trivial_restriction_but_alpha_nontrivial"} in reported
        assert symbolic_pairs < frozenset(sweep_trivial_pairs(resonant)), (r, s)
    done("criterion 3: the resonance dichotomy and the growing pair set")


def test_criterion_04_symmetry_and_decomposition_pipeline():
    for spec in corpus_specs():
        sweep = sweep_trivial_pairs(spec)
        if sh.check_condition(spec, sweep):
            continue
        table = sh.hodge_table(spec, sweep)
        assert hodge_symmetry(table), spec.name
        assert sh.conjugation_symmetry(sweep), spec.name
        assert sh.serre_duality_check(table), spec.name
        betti = sh.betti_numbers(table)
        dim = spec.complex_dim
        for r in range(2 * dim + 1):
            column_sum = sum(
                table.h[p][r - p] for p in range(dim + 1) if 0 <= r - p <= dim
            )
            assert betti[r] == column_sum, (spec.name, r)
        assert analyze(spec, skip_forms=True)["certified_de_rham"], spec.name
    done("criterion 4: symmetry, conjugation, duality and decomposition")


def test_criterion_05_harmonicity_certificates():
    for spec in forms_corpus_specs():
        sweep = sweep_trivial_pairs(spec)
        condition_holds = not sh.check_condition(spec, sweep)
        for element in all_basis_elements(spec, sweep):
            form = basis_form(spec, element, sweep)
            assert is_dbar_harmonic(form, spec), (spec.name, element)
            if condition_holds:
                assert is_d_harmonic(form, spec), (spec.name, element)
    done("criterion 5: every basis form is harmonic, symbolically")


def test_criterion_06_wedge_closure():
    for spec in forms_corpus_specs():
        assert wedge_closure_report(spec, sweep_trivial_pairs(spec)) is None, spec.name
    done("criterion 6: harmonic wedge closure on the corpus")


def test_criterion_07_dga_laws(rng):
    checked = 0
    for n, m in ((1, 1), (2, 1), (1, 2)):
        for _ in range(70):
            f = random_twisted_form(n, m, rng)
            assert f.partial().partial().is_zero
            assert f.dbar().dbar().is_zero
            assert (f.partial().dbar() + f.dbar().partial()).is_zero
            g = random_homogeneous_form(n, m, rng)
            if not g.is_zero:
                sign = -1 if len(g.terms[0][2]) % 2 else 1
                assert g.wedge(f).d() == g.d().wedge(f) + g.wedge(f.d()).scaled(sign)
            checked += 1
    assert checked >= 200

    for n, m in ((1, 0), (0, 1), (2, 1), (1, 2), (3, 0)):
        spec = sh.torus(n, m)
        dim = n + m
        vol = volume_form(spec)
        holomorphic = [Generator("e", i) for i in range(1, n + 1)] + [
            Generator("f", i) for i in range(1, m + 1)
        ]
        letters = holomorphic + [g.conjugate() for g in holomorphic]
        signs = {}
        for bits in product((0, 1), repeat=2 * dim):
            word = tuple(g for g, bit in zip(letters, bits) if bit)
            chi = random_unitary_character(n, rng)
            coeff = random_rational_complex(rng)
            if coeff.is_zero:
                coeff = ComplexExact.one()
            u = FrameForm.monomial(coeff, chi, word)
            norm2 = coeff * coeff.conjugate()
            assert norm2.im.is_zero and rational_value(norm2.re) > 0
            assert u.wedge(bar_star(u, spec)) == vol.scaled(norm2)
            twice = bar_star(bar_star(u, spec), spec)
            sign = 1 if twice == u else -1
            if sign == -1:
                assert twice == u.scaled(-1)
            assert signs.setdefault(u.bidegree(), sign) == sign
    done("criterion 7: differential and star laws hold exactly")


def test_criterion_08_character_decomposition(rng):
    table = sh.SymbolTable.base()
    for _ in range(100):
        chi = random_character(1, rng)
        hol, unit = chi.hol(), chi.unit()
        assert hol * unit == chi
        assert unit.is_unitary
        assert hol.is_holomorphic

        def quotient(z):
            return chi.value_at([z], table) * unit.inverse().value_at([z], table)

        for _ in range(10):
            z = complex(rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3))
            assert dbar_residual(quotient, z) < 1e-6
            assert abs(abs(unit.value_at([z], table)) - 1) < 1e-9
    done("criterion 8: unique unitary factorisation, exact and numeric")


def test_criterion_09_kaehler_obstruction():
    for a in ([1], [1, -2], [2, 3]):
        verdict = kaehler_obstruction(sh.example1(a, "symbolic"))
        assert verdict["status"] == OBSTRUCTED
        assert verdict["completely_solvable"]
        assert verdict["witnesses"] == list(range(1, 2 * len(a) + 1))
    for n, m in ((1, 1), (2, 1), (1, 2), (2, 2)):
        verdict = kaehler_obstruction(sh.torus(n, m))
        assert verdict["status"] == INCONCLUSIVE
        assert verdict["witnesses"] == []
    done("criterion 9: obstruction verdicts")


def test_criterion_10_example2_validation():
    A = [[2, 1], [1, 1]]
    spec = sh.example2_n1(A)
    report = validate(spec)
    assert report["lattice_rank_ok"]
    assert report["fiber_preserved"] == "ok"

    # independent recomputation of the integrality data
    basis = np.array(witness_rows(spec.lattice_fiber, spec.symbols)).T
    for gen in spec.lattice.generators:
        point = [c.complex_value(spec.symbols) for c in gen]
        values = [alpha.value_at(point, spec.symbols) for alpha in spec.alphas]
        action = np.zeros((4, 4))
        for k, v in enumerate(values):
            action[k, k] = v.real
            action[k, 2 + k] = -v.imag
            action[2 + k, k] = v.imag
            action[2 + k, 2 + k] = v.real
        coeff = np.linalg.solve(basis, action @ basis)
        nearest = np.rint(coeff)
        assert np.abs(coeff - nearest).max() < 1e-6
        assert round(abs(np.linalg.det(nearest))) == 1
    done("criterion 10: hyperbolic fiber lattice is preserved")
