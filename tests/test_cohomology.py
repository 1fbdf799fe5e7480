import json
from fractions import Fraction
from math import comb

import pytest

import solvhodge as sh
from solvhodge import cli
from solvhodge.cohomology import (
    BasisElement,
    HodgeTable,
    PairSweep,
    all_basis_elements,
    betti_numbers,
    check_condition,
    conjugation_symmetry,
    hodge_symmetry,
    hodge_table,
    serre_duality_check,
    sweep_trivial_pairs,
)

from conftest import basis_elements, corpus_specs, oversized_torus

EXAMPLE1_PAIRS = {
    ((), ()),
    ((1,), (2,)),
    ((2,), (1,)),
    ((1, 2), (1, 2)),
    ((), (1, 2)),
    ((1, 2), ()),
}

EXAMPLE1_HODGE = ((1, 1, 1, 1), (1, 3, 3, 1), (1, 3, 3, 1), (1, 1, 1, 1))


def complex_character_spec():
    """n = 1, m = 2 with complex alphas: the gate admits ([1], [2]) but not ([2], [1])."""

    def char(a_re, a_im, b_re, b_im):
        a = sh.ComplexExact.make(re=Fraction(a_re), im=Fraction(a_im))
        b = sh.ComplexExact.make(re=Fraction(b_re), im=Fraction(b_im))
        return sh.CharacterExponent((a,), (b,))

    # unit(alpha_1) unit(conj alpha_2) is trivial because b_1 = -conj(a_2)
    alphas = (char(1, "1/2", "1/2", -1), char("-1/2", -1, 2, "-1/2"))
    torus = sh.torus(1, 2)
    return sh.SolvManifoldSpec(
        name="complex_characters",
        n=1,
        m=2,
        alphas=alphas,
        lattice=torus.lattice,
        lattice_fiber=torus.lattice_fiber,
        symbols=torus.symbols,
    )


class TestTrivialPairs:
    def test_torus_all_pairs(self):
        assert len(frozenset(sweep_trivial_pairs(sh.torus(1, 1)))) == 4

    def test_example1_symbolic(self):
        assert frozenset(sweep_trivial_pairs(sh.example1([1], "symbolic"))) == frozenset(EXAMPLE1_PAIRS)

    def test_example1_rational_pi_strictly_grows(self):
        symbolic = frozenset(sweep_trivial_pairs(sh.example1([1], "symbolic")))
        pi_pairs = frozenset(sweep_trivial_pairs(sh.example1([1], "rational_pi(1,1)")))
        assert symbolic < pi_pairs
        assert ((1,), (1,)) in pi_pairs

    def test_sweep_is_certified_on_corpus(self):
        for spec in corpus_specs():
            assert sweep_trivial_pairs(spec).certified, spec.name

    def test_fiber_cap_enforced(self):
        # the sweep refuses through the one size gate, on n + m as every command does
        for n, m in ((0, 13), (13, 0)):
            with pytest.raises(sh.DimensionCapExceeded, match="dimension 13 exceeds the counting cap 12"):
                sweep_trivial_pairs(oversized_torus(n, m))

    def test_cap_checked_before_any_work(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise RuntimeError("a character was multiplied before the counting cap was checked")

        monkeypatch.setattr(sh.CharacterExponent, "__mul__", refuse)
        with pytest.raises(sh.DimensionCapExceeded):
            sweep_trivial_pairs(oversized_torus(1, 12))

    def test_swap_closed_for_real_valued_actions(self):
        for spec in corpus_specs():
            if all(alpha.is_real_valued for alpha in spec.alphas):
                pairs = frozenset(sweep_trivial_pairs(spec))
                assert {(L, J) for J, L in pairs} == pairs, spec.name

    def test_matches_direct_lattice_test(self):
        # the sweep must agree with testing each pair directly, one factor at a time
        from itertools import combinations, product

        for spec in corpus_specs() + [complex_character_spec()]:
            betas = [alpha.unit() for alpha in spec.alphas]
            gammas = [alpha.conjugate().unit() for alpha in spec.alphas]
            subsets = [
                tuple(s)
                for size in range(spec.m + 1)
                for s in combinations(range(1, spec.m + 1), size)
            ]
            expected = set()
            for J, L in product(subsets, subsets):
                chi = sh.CharacterExponent.trivial(spec.n)
                for j in J:
                    chi = chi * betas[j - 1]
                for l in L:
                    chi = chi * gammas[l - 1]
                if sh.is_trivial_on_lattice(chi, spec.lattice):
                    expected.add((J, L))
            assert frozenset(sweep_trivial_pairs(spec)) == expected, spec.name


class TestFloatFallback:
    def symbolic_exponent_spec(self):
        """Character exponent and lattice entry both symbolic: the exact
        layer refuses their product and the sweep must degrade gracefully."""
        table = sh.SymbolTable.base().with_symbol("s", 0.5).with_symbol("t", 1.0)
        alpha = sh.CharacterExponent.from_real_exponent([sh.ExactScalar.symbol("s")])
        lattice = sh.LatticeBasis(
            1,
            (
                (sh.ComplexExact.make(re=1),),
                (sh.ComplexExact.make(im=sh.ExactScalar.symbol("t")),),
            ),
        )
        return sh.SolvManifoldSpec(
            name="symbolic_exponent",
            n=1,
            m=1,
            alphas=(alpha,),
            lattice=lattice,
            lattice_fiber=None,
            symbols=table,
        )

    def test_sweep_degrades_to_float(self):
        sweep = sweep_trivial_pairs(self.symbolic_exponent_spec())
        assert not sweep.certified
        # s*t = 0.5 is far from 2*pi*Z, so only the empty pair survives
        assert sweep.pairs == (((), ()),)

    def test_forced_float_mode(self):
        spec = sh.torus(1, 1)
        sweep = sweep_trivial_pairs(spec, force_float=True)
        assert not sweep.certified
        assert frozenset(sweep) == frozenset(sweep_trivial_pairs(spec))

    def test_check_harmonic_reports_mode(self, tmp_path, capsys):
        # check-harmonic decides its rows on the sweep, so it must flag float
        # witnesses as analyze does
        cases = ((self.symbolic_exponent_spec(), "float_fallback"), (sh.torus(1, 1), "exact"))
        for spec, mode in cases:
            path = tmp_path / f"{spec.name}.json"
            sh.save_spec(spec, path)
            cli.main(["check-harmonic", str(path), "--format", "json"])
            data = json.loads(capsys.readouterr().out)
            assert list(data)[:3] == ["schema_version", "name", "mode"]
            assert data["mode"] == mode, spec.name
            cli.main(["check-harmonic", str(path)])
            lines = capsys.readouterr().out.splitlines()
            assert lines[:2] == [f"manifold: {spec.name}", f"mode: {mode}"]


class TestBasisElements:
    def test_torus_bidegree_one_zero(self):
        got = basis_elements(sh.torus(1, 1), 1, 0, sweep_trivial_pairs(sh.torus(1, 1)))
        assert got == (
            BasisElement((), (1,), (), ()),
            BasisElement((1,), (), (), ()),
        )

    def test_example1_one_zero(self):
        spec = sh.example1([1], "symbolic")
        got = basis_elements(spec, 1, 0, sweep_trivial_pairs(spec))
        assert got == (BasisElement((1,), (), (), ()),)

    def test_example1_one_one(self):
        spec = sh.example1([1], "symbolic")
        got = basis_elements(spec, 1, 1, sweep_trivial_pairs(spec))
        assert len(got) == 3
        assert BasisElement((1,), (), (1,), ()) in got
        assert BasisElement((), (1,), (), (2,)) in got
        assert BasisElement((), (2,), (), (1,)) in got

    def test_out_of_range_rejected(self):
        spec = sh.torus(1, 1)
        sweep = sweep_trivial_pairs(spec)
        with pytest.raises(ValueError):
            basis_elements(spec, 3, 0, sweep)
        with pytest.raises(ValueError):
            basis_elements(spec, 0, -1, sweep)

    def test_unsorted_indices_rejected(self):
        with pytest.raises(ValueError):
            BasisElement((2, 1), (), (), ())
        with pytest.raises(ValueError):
            BasisElement((1, 1), (), (), ())

    def test_deterministic_order(self):
        spec = sh.example1([1], "symbolic")
        sweep = sweep_trivial_pairs(spec)
        assert basis_elements(spec, 1, 1, sweep) == basis_elements(spec, 1, 1, sweep)


class TestHodgeTable:
    @pytest.mark.parametrize("n,m", [(1, 1), (2, 1), (0, 2), (3, 0), (2, 2)])
    def test_torus_binomials(self, n, m):
        spec = sh.torus(n, m)
        table = hodge_table(spec, sweep_trivial_pairs(spec))
        dim = n + m
        for p in range(dim + 1):
            for q in range(dim + 1):
                assert table.h[p][q] == comb(dim, p) * comb(dim, q)

    def test_example1_table(self):
        spec = sh.example1([1], "symbolic")
        assert hodge_table(spec, sweep_trivial_pairs(spec)).rows() == EXAMPLE1_HODGE

    def test_example1_23_one_zero(self):
        # no nonempty exponent selection sums to zero with one pick
        spec = sh.example1([2, 3], "symbolic")
        table = hodge_table(spec, sweep_trivial_pairs(spec))
        assert table.h[1][0] == 1

    def test_counting_matches_enumeration(self):
        for spec in corpus_specs():
            sweep = sweep_trivial_pairs(spec)
            table = hodge_table(spec, sweep)
            dim = spec.complex_dim
            for p in range(dim + 1):
                for q in range(dim + 1):
                    assert table.h[p][q] == len(basis_elements(spec, p, q, sweep)), (
                        spec.name,
                        p,
                        q,
                    )

    def test_binomial_upper_bound(self):
        for spec in corpus_specs():
            table = hodge_table(spec, sweep_trivial_pairs(spec))
            dim = spec.complex_dim
            for p in range(dim + 1):
                for q in range(dim + 1):
                    assert table.h[p][q] <= comb(dim, p) * comb(dim, q)

    def test_shape_enforced(self):
        with pytest.raises(ValueError):
            HodgeTable(((1, 1),))
        with pytest.raises(ValueError):
            HodgeTable(((0, 1), (1, 1)))
        with pytest.raises(ValueError):
            HodgeTable([[1, 0], [0, 1]])
        for small in ((), ((1,),)):
            with pytest.raises(ValueError, match="at least two tuples"):
                HodgeTable(small)
        assert HodgeTable(((1, 1), (1, 1))).rows() == ((1, 1), (1, 1))


class TestCondition:
    def test_example1_symbolic_holds(self):
        spec = sh.example1([1], "symbolic")
        sweep = sweep_trivial_pairs(spec)
        assert check_condition(spec, sweep) == ()
        assert len(sweep) == 6

    def test_example1_rational_pi_fails(self):
        spec = sh.example1([1], "rational_pi(1,1)")
        violations = check_condition(spec, sweep_trivial_pairs(spec))
        assert violations
        assert ((1,), (1,)) in violations
        reported = cli.analyze(spec, skip_forms=True)["condition"]["violations"]
        assert {"J": [1], "L": [1], "reason": "trivial_restriction_but_alpha_nontrivial"} in reported

    def test_torus_holds(self):
        spec = sh.torus(2, 2)
        assert not check_condition(spec, sweep_trivial_pairs(spec))


class TestSymmetryChecks:
    def test_example1_both_symmetries(self):
        spec = sh.example1([1], "symbolic")
        sweep = sweep_trivial_pairs(spec)
        assert hodge_symmetry(hodge_table(spec, sweep))
        assert conjugation_symmetry(sweep)

    def test_torus(self):
        spec = sh.torus(1, 2)
        sweep = sweep_trivial_pairs(spec)
        assert hodge_symmetry(hodge_table(spec, sweep))
        assert conjugation_symmetry(sweep)

    def test_asymmetric_stub_breaks_symmetry(self):
        # a deliberately swap-open pair set: (J, L) admitted, (L, J) not
        spec = sh.torus(1, 1)
        stub = PairSweep(pairs=(((), ()), ((1,), ())), certified=True)
        assert not conjugation_symmetry(stub)
        table = hodge_table(spec, stub)
        assert not hodge_symmetry(table)
        assert not serre_duality_check(table)

    def test_serre_on_corpus(self):
        for spec in corpus_specs():
            assert serre_duality_check(hodge_table(spec, sweep_trivial_pairs(spec))), spec.name


def betti_of(spec):
    """The Betti sums and the condition's violations, which decide their de Rham certification."""
    sweep = sweep_trivial_pairs(spec)
    return betti_numbers(hodge_table(spec, sweep)), check_condition(spec, sweep)


class TestBetti:
    def test_example1_values(self):
        betti, violations = betti_of(sh.example1([1], "symbolic"))
        assert betti == (1, 2, 5, 8, 5, 2, 1)
        assert not violations

    def test_torus_values(self):
        betti, violations = betti_of(sh.torus(1, 1))
        assert betti == tuple(comb(4, r) for r in range(5))
        assert not violations

    def test_rational_pi_not_certified(self):
        spec = sh.example1([1], "rational_pi(1,1)")
        _, violations = betti_of(spec)
        assert violations
        assert cli.analyze(spec, skip_forms=True)["certified_de_rham"] is False

    def test_euler_characteristic_vanishes(self):
        for spec in corpus_specs():
            betti, _ = betti_of(spec)
            assert sum((-1) ** r * b for r, b in enumerate(betti)) == 0, spec.name


class TestPipelineInvariant:
    def test_condition_implies_full_symmetry(self):
        for spec in corpus_specs():
            sweep = sweep_trivial_pairs(spec)
            if check_condition(spec, sweep):
                continue
            table = hodge_table(spec, sweep)
            assert hodge_symmetry(table), spec.name
            assert conjugation_symmetry(sweep), spec.name
            assert serre_duality_check(table), spec.name
            assert cli.analyze(spec, skip_forms=True)["certified_de_rham"], spec.name

    def test_all_elements_cover_table(self):
        for spec in corpus_specs():
            sweep = sweep_trivial_pairs(spec)
            table = hodge_table(spec, sweep)
            total = sum(sum(row) for row in table.rows())
            assert len(all_basis_elements(spec, sweep)) == total, spec.name
