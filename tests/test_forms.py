from fractions import Fraction
from itertools import product

import pytest

import solvhodge as sh
from solvhodge.cohomology import (
    BasisElement,
    PairSweep,
    all_basis_elements,
    sweep_trivial_pairs,
    wedge_closure_report,
)
from solvhodge.exact import ComplexExact
from solvhodge.forms import (
    FrameForm,
    Generator,
    TwistedForm,
    bar_star,
    basis_form,
    dw,
    dwbar,
    dz,
    dzbar,
    from_frame,
    is_d_harmonic,
    is_dbar_harmonic,
    to_frame,
    volume_form,
)
from solvhodge.model import CharacterExponent, DimensionCapExceeded

from conftest import (
    forms_corpus_specs,
    random_homogeneous_form,
    random_rational_complex,
    random_twisted_form,
    random_unitary_character,
    rational_value,
    real_char,
    swapped,
)


@pytest.fixture
def torus11():
    return sh.torus(1, 1)


def one(table):
    return ComplexExact.one(table)


def monomial(spec, word, char=None, coeff=None):
    table = spec.symbols
    char = char if char is not None else CharacterExponent.trivial(table, spec.n)
    coeff = coeff if coeff is not None else one(table)
    return TwistedForm.monomial(coeff, char, word)


def holomorphic_char(table, n, coeffs):
    """exp(sum c_j z_j) with rational c_j."""
    zero = ComplexExact.zero(table)
    a = tuple(ComplexExact.make(table, re=Fraction(c)) for c in coeffs)
    return CharacterExponent(table, a, (zero,) * n)


def antiholomorphic_char(table, n, coeffs):
    """exp(sum c_j zbar_j) with rational c_j."""
    zero = ComplexExact.zero(table)
    b = tuple(ComplexExact.make(table, re=Fraction(c)) for c in coeffs)
    return CharacterExponent(table, (zero,) * n, b)


class TestWedge:
    def test_repeated_generator_vanishes(self, torus11):
        f = monomial(torus11, (dz(1),))
        assert f.wedge(f).is_zero

    def test_coefficient_carry(self, torus11):
        chi = holomorphic_char(torus11.symbols, 1, [-2])
        f = monomial(torus11, (dw(1),), char=chi)
        g = monomial(torus11, (dwbar(1),))
        expected = monomial(torus11, (dw(1), dwbar(1)), char=chi)
        assert f.wedge(g) == expected

    def test_basis_element_against_swapped_conjugate(self):
        # both sides carry dw_1, so the product dies on the repeated letter
        spec = sh.example1([1], "symbolic")
        el = BasisElement((), (1,), (), (2,))
        sweep = sweep_trivial_pairs(spec)
        f = basis_form(spec, el, sweep)
        g = basis_form(spec, swapped(el), sweep).conjugate()
        assert f.wedge(g).is_zero

    def test_graded_commutativity(self, torus11, rng):
        table = torus11.symbols
        for _ in range(50):
            f = random_homogeneous_form(table, 1, 1, rng)
            g = random_homogeneous_form(table, 1, 1, rng)
            if f.is_zero or g.is_zero:
                continue
            deg_f = len(f.terms[0][2])
            deg_g = len(g.terms[0][2])
            sign = -1 if (deg_f * deg_g) % 2 else 1
            assert f.wedge(g) == g.wedge(f).scaled(sign)

    def test_associativity(self, torus11, rng):
        table = torus11.symbols
        for _ in range(50):
            f = random_twisted_form(table, 1, 1, rng)
            g = random_twisted_form(table, 1, 1, rng)
            h = random_twisted_form(table, 1, 1, rng)
            assert f.wedge(g).wedge(h) == f.wedge(g.wedge(h))

    def test_bilinearity(self, torus11, rng):
        table = torus11.symbols
        for _ in range(50):
            f = random_twisted_form(table, 1, 1, rng)
            g = random_twisted_form(table, 1, 1, rng)
            h = random_twisted_form(table, 1, 1, rng)
            assert f.wedge(g + h) == f.wedge(g) + f.wedge(h)


class TestDifferentials:
    def test_partial_of_real_exponential(self, torus11):
        # exp(x) dw_1 has z-exponent 1/2
        chi = real_char(torus11.symbols, 1)
        f = monomial(torus11, (dw(1),), char=chi)
        expected = monomial(torus11, (dz(1), dw(1)), char=chi).scaled(Fraction(1, 2))
        assert f.partial() == expected

    def test_dbar_kills_holomorphic_twist(self, torus11):
        chi = holomorphic_char(torus11.symbols, 1, [-2])
        f = monomial(torus11, (dw(1), dwbar(1)), char=chi)
        assert f.dbar().is_zero

    def test_constant_forms_are_closed(self):
        spec = sh.torus(2, 0)
        f = monomial(spec, (dz(1), dzbar(1), dzbar(2)))
        assert f.d().is_zero

    def test_dbar_raises_q_partial_raises_p(self, torus11):
        chi = random_char = antiholomorphic_char(torus11.symbols, 1, [1])
        f = monomial(torus11, (dw(1),), char=chi)
        assert f.bidegree() == (1, 0)
        assert f.dbar().bidegree() == (1, 1)
        g = monomial(torus11, (dw(1),), char=real_char(torus11.symbols, 1))
        assert g.partial().bidegree() == (2, 0)

    def test_complex_on_random_forms(self, torus11, rng):
        table = torus11.symbols
        for _ in range(200):
            f = random_twisted_form(table, 1, 1, rng)
            assert f.partial().partial().is_zero
            assert f.dbar().dbar().is_zero
            assert (f.partial().dbar() + f.dbar().partial()).is_zero

    def test_leibniz_on_random_forms(self, torus11, rng):
        table = torus11.symbols
        for _ in range(100):
            f = random_homogeneous_form(table, 1, 1, rng)
            g = random_twisted_form(table, 1, 1, rng)
            deg_f = len(f.terms[0][2])
            sign = -1 if deg_f % 2 else 1
            lhs = f.wedge(g).d()
            rhs = f.d().wedge(g) + f.wedge(g.d()).scaled(sign)
            assert lhs == rhs


class TestFrameConversion:
    def test_twisted_fiber_monomial_becomes_unitary(self):
        # a fiber monomial twisted by the inverse holomorphic factor keeps
        # only the unitary part of the character once framed
        spec = sh.example1([1], "symbolic")
        hol, unit = spec.alphas[0].hol(), spec.alphas[0].unit()
        f = monomial(spec, (dw(1),), char=hol.inverse())
        framed = to_frame(f, spec)
        ((coeff, chi, word),) = framed.terms
        assert word == (Generator("f", 1),)
        assert chi == unit
        assert chi.is_unitary

    def test_pure_base_words_unchanged(self, torus11):
        f = monomial(torus11, (dz(1), dzbar(1)))
        framed = to_frame(f, torus11)
        ((_, chi, word),) = framed.terms
        assert chi.is_trivial
        assert word == (Generator("e", 1), Generator("ebar", 1))

    def test_round_trip_random(self, rng):
        spec = sh.example1([1], "symbolic")
        for _ in range(100):
            f = random_twisted_form(spec.symbols, 1, 2, rng)
            assert from_frame(to_frame(f, spec), spec) == f


class TestBarStar:
    def test_dimension_one_base(self):
        spec = sh.torus(1, 0)
        e1 = to_frame(monomial(spec, (dz(1),)), spec)
        starred = bar_star(e1, spec)
        assert starred.bidegree() == (0, 1)
        assert e1.wedge(starred) == volume_form(spec)

    def test_star_of_one_is_volume(self, torus11):
        unit = to_frame(monomial(torus11, ()), torus11)
        assert bar_star(unit, torus11) == volume_form(torus11)

    def test_star_of_volume_is_one(self, torus11):
        unit = to_frame(monomial(torus11, ()), torus11)
        assert bar_star(volume_form(torus11), torus11) == unit

    def test_mixed_bidegree_rejected(self, torus11):
        mixed = to_frame(monomial(torus11, (dz(1),)) + monomial(torus11, ()), torus11)
        with pytest.raises(ValueError):
            bar_star(mixed, torus11)

    @pytest.mark.parametrize("n,m", [(1, 0), (0, 1), (1, 1), (2, 1), (1, 2)])
    def test_frame_monomials_pair_to_volume(self, n, m, rng):
        # u ^ star(u) = |u|^2 vol for every frame monomial with a unitary
        # character and rational coefficient
        spec = sh.torus(n, m)
        table = spec.symbols
        dim = n + m
        vol = volume_form(spec)
        holomorphic = [Generator("e", i) for i in range(1, n + 1)] + [
            Generator("f", i) for i in range(1, m + 1)
        ]
        antiholomorphic = [g.conjugate() for g in holomorphic]
        for bits in product((0, 1), repeat=2 * dim):
            word = tuple(
                g for g, bit in zip(holomorphic + antiholomorphic, bits) if bit
            )
            coeff = random_rational_complex(table, rng)
            if coeff.is_zero:
                coeff = one(table)
            chi = random_unitary_character(table, n, rng)
            u = FrameForm.monomial(coeff, chi, word)
            norm2 = coeff * coeff.conjugate()
            assert norm2.im.is_zero and rational_value(norm2.re) > 0
            assert u.wedge(bar_star(u, spec)) == vol.scaled(norm2)

    @pytest.mark.parametrize("n,m", [(1, 0), (1, 1), (2, 1), (1, 2)])
    def test_double_star_sign_constant_per_bidegree(self, n, m):
        spec = sh.torus(n, m)
        table = spec.symbols
        dim = n + m
        signs: dict[tuple[int, int], int] = {}
        holomorphic = [Generator("e", i) for i in range(1, n + 1)] + [
            Generator("f", i) for i in range(1, m + 1)
        ]
        antiholomorphic = [g.conjugate() for g in holomorphic]
        for bits in product((0, 1), repeat=2 * dim):
            word = tuple(
                g for g, bit in zip(holomorphic + antiholomorphic, bits) if bit
            )
            u = FrameForm.monomial(one(table), CharacterExponent.trivial(table, n), word)
            twice = bar_star(bar_star(u, spec), spec)
            degree = u.bidegree()
            if twice == u:
                sign = 1
            else:
                assert twice == u.scaled(-1)
                sign = -1
            assert signs.setdefault(degree, sign) == sign

    def test_star_complements_bidegree(self):
        spec = sh.torus(2, 1)
        f = to_frame(monomial(spec, (dz(1), dw(1), dzbar(2))), spec)
        assert bar_star(f, spec).bidegree() == (1, 2)

    def test_distinct_monomials_pair_to_zero(self):
        # off-diagonal inner products: u ^ star(v) dies on a repeated letter
        # whenever u and v are different monomials of one bidegree, so the
        # complementation rule realises the metric pairing on the nose
        spec = sh.torus(1, 1)
        table = spec.symbols
        letters = [Generator("e", 1), Generator("f", 1)]
        words = [(letters[0],), (letters[1],)]
        chi = CharacterExponent.trivial(table, 1)
        u = FrameForm.monomial(one(table), chi, words[0])
        v = FrameForm.monomial(one(table), chi, words[1])
        assert u.wedge(bar_star(v, spec)).is_zero
        assert v.wedge(bar_star(u, spec)).is_zero

    def test_out_of_range_letter_rejected(self, torus11):
        stray = FrameForm.monomial(
            one(torus11.symbols),
            CharacterExponent.trivial(torus11.symbols, 1),
            (Generator("f", 3),),
        )
        with pytest.raises(ValueError):
            bar_star(stray, torus11)


class TestBasisForm:
    def test_pure_base_element(self):
        spec = sh.example1([1], "symbolic")
        el = BasisElement((1,), (), (), ())
        assert basis_form(spec, el, sweep_trivial_pairs(spec)) == monomial(spec, (dz(1),))

    def test_twisted_pair_element(self):
        # J = L = {1} in the resonant lattice: the twist is exp(-2z)
        spec = sh.example1([1], "rational_pi(1,1)")
        el = BasisElement((), (1,), (), (1,))
        form = basis_form(spec, el, sweep_trivial_pairs(spec))
        expected = monomial(
            spec, (dw(1), dwbar(1)), char=holomorphic_char(spec.symbols, 1, [-2])
        )
        assert form == expected

    def test_conjugate_is_swapped_element_up_to_sign(self):
        spec = sh.example1([1], "symbolic")
        sweep = sweep_trivial_pairs(spec)
        for el in all_basis_elements(spec, sweep):
            sign = -1 if (el.p * el.q) % 2 else 1
            lhs = basis_form(spec, el, sweep).conjugate()
            rhs = basis_form(spec, swapped(el), sweep).scaled(sign)
            assert lhs == rhs, el

    def test_rejected_outside_basis(self):
        spec = sh.example1([1], "symbolic")
        with pytest.raises(ValueError):
            basis_form(spec, BasisElement((), (1,), (), (1,)), sweep_trivial_pairs(spec))


class TestHarmonicity:
    def test_all_basis_forms_dbar_harmonic(self):
        for spec in forms_corpus_specs():
            sweep = sweep_trivial_pairs(spec)
            for el in all_basis_elements(spec, sweep):
                assert is_dbar_harmonic(basis_form(spec, el, sweep), spec), (spec.name, el)

    def test_antiholomorphic_twist_not_closed(self, torus11):
        chi = antiholomorphic_char(torus11.symbols, 1, [-2])
        f = monomial(torus11, (dw(1),), char=chi)
        assert not f.dbar().is_zero
        assert not is_dbar_harmonic(f, torus11)

    def test_constant_base_form_harmonic(self, torus11):
        assert is_dbar_harmonic(monomial(torus11, (dz(1),)), torus11)

    def test_d_harmonic_under_condition(self):
        for spec in forms_corpus_specs():
            sweep = sweep_trivial_pairs(spec)
            if sh.check_condition(spec, sweep):
                continue
            for el in all_basis_elements(spec, sweep):
                assert is_d_harmonic(basis_form(spec, el, sweep), spec), (spec.name, el)

    def test_torus_dz_d_harmonic(self, torus11):
        assert is_d_harmonic(monomial(torus11, (dz(1),)), torus11)

    def test_growing_exponential_not_d_harmonic(self, torus11):
        f = monomial(torus11, (dw(1),), char=real_char(torus11.symbols, 1))
        assert not f.d().is_zero
        assert not is_d_harmonic(f, torus11)

    def test_mixed_bidegree_rejected(self, torus11):
        mixed = monomial(torus11, (dz(1),)) + monomial(torus11, (dzbar(1),))
        assert mixed.bidegree() is None
        with pytest.raises(ValueError):
            is_dbar_harmonic(mixed, torus11)

    def test_non_unimodular_action_breaks_coclosure(self):
        # a single expanding character: the model has no chance of being
        # co-closed in the antidiagonal direction
        table = sh.SymbolTable.base()
        spec = sh.SolvManifoldSpec(
            name="expanding",
            n=1,
            m=1,
            alphas=(real_char(table, 2),),
            lattice=sh.torus(1, 1).lattice,
            lattice_fiber=None,
            symbols=table,
        )
        f = monomial(spec, (dzbar(1),))
        assert f.dbar().is_zero
        assert not is_dbar_harmonic(f, spec)


class Unwalkable(PairSweep):
    """A sweep whose pairs cannot be walked: proves that a check never iterates them.

    It declares no ``__slots__``, so the shared constructor reads PairSweep's fields.
    """

    def __iter__(self):
        raise RuntimeError("the pairs were walked")


class TestWedgeClosure:
    def test_torus(self, torus11):
        assert wedge_closure_report(torus11, sweep_trivial_pairs(torus11)) is None

    def test_example1(self):
        spec = sh.example1([1], "symbolic")
        assert wedge_closure_report(spec, sweep_trivial_pairs(spec)) is None

    def test_example1_two_pairs(self):
        spec = sh.example1([2, 3], "symbolic")
        assert wedge_closure_report(spec, sweep_trivial_pairs(spec)) is None

    def test_report_carries_no_failure(self):
        spec = sh.example1([1], "rational_pi(1,1)")
        assert wedge_closure_report(spec, sweep_trivial_pairs(spec)) is None

    def test_certified_sweep_is_closed_without_a_pair_loop(self):
        spec = sh.torus(1, 2)
        pairs = sweep_trivial_pairs(spec).pairs
        assert wedge_closure_report(spec, Unwalkable(pairs, True)) is None
        with pytest.raises(RuntimeError, match="walked"):
            wedge_closure_report(spec, Unwalkable(pairs, False))

    def test_dimension_cap(self):
        # the forms cap holds only the literal walk of an uncertified sweep, refused before it starts
        spec = sh.torus(3, 4)
        pairs = sweep_trivial_pairs(spec).pairs
        assert wedge_closure_report(spec, Unwalkable(pairs, True)) is None
        with pytest.raises(DimensionCapExceeded, match="exceeds the forms cap 6"):
            wedge_closure_report(spec, Unwalkable(pairs, False))
