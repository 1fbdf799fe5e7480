from fractions import Fraction

import pytest

from solvhodge.characters import NotUnitary, is_trivial_on_lattice, is_trivial_on_lattice_float
from solvhodge.cli import analyze
from solvhodge.exact import ComplexExact, ExactScalar, SymbolProductUnrepresentable, SymbolTable
from solvhodge.manifold import validate
from solvhodge.model import CharacterExponent, LatticeBasis, SolvManifoldSpec
from solvhodge.specfile import load_spec_dict

from conftest import dbar_residual, random_character, random_scalar, random_unitary_character, real_char


@pytest.fixture
def table():
    return SymbolTable.base().with_symbol("t", 1.0).with_symbol("leps", 0.9624)


def cc(table, re=0, im=0):
    return ComplexExact.make(table, re=re, im=im)


def unitary_y_char(table, c):
    """exp(i c y) on C; with y = (z - zbar)/2i this is a = c/2, b = -c/2."""
    half = Fraction(c) / 2
    return CharacterExponent(table, (cc(table, re=half),), (cc(table, re=-half),))


class TestMultiplyConjugate:
    def test_inverse_cancels(self, table, rng):
        for _ in range(20):
            chi = random_character(table, 2, rng)
            assert (chi * chi.inverse()).is_trivial

    def test_real_char_doubles(self, table):
        # exp(x) * exp(x) = exp(2x): the half-coefficients a = b = 1/2 double
        chi = real_char(table, 1)
        assert chi.a[0] == cc(table, re="1/2")
        assert chi * chi == real_char(table, 2)

    def test_opposite_unitary_pair_cancels(self, table):
        beta1 = unitary_y_char(table, -1)
        beta2 = unitary_y_char(table, 1)
        assert (beta1 * beta2).is_trivial

    def test_dimension_mismatch(self, table):
        with pytest.raises(ValueError):
            real_char(table, 1) * real_char(table, 1, 2)

    def test_conjugate_fixes_real_characters(self, table):
        chi = real_char(table, 3)
        assert chi.conjugate() == chi

    def test_conjugate_flips_unitary(self, table):
        assert unitary_y_char(table, -1).conjugate() == unitary_y_char(table, 1)

    def test_conjugate_of_holomorphic(self, table):
        a1 = cc(table, re="1/3", im=2)
        chi = CharacterExponent(table, (a1,), (ComplexExact.zero(table),))
        conj = chi.conjugate()
        assert conj.a[0].is_zero
        assert conj.b[0] == a1.conjugate()

    def test_conjugate_is_involution(self, table, rng):
        for _ in range(50):
            chi = random_character(table, 2, rng)
            assert chi.conjugate().conjugate() == chi


class TestDecompose:
    def test_exponential_of_2x(self, table):
        # exp(2x): holomorphic part exp(2z), unitary part exp(-z + zbar) = exp(-2iy)
        chi = real_char(table, 2)
        hol, unit = chi.hol(), chi.unit()
        assert hol.a == (cc(table, re=2),)
        assert hol.is_holomorphic
        assert unit == CharacterExponent(table, (cc(table, re=-1),), (cc(table, re=1),))
        assert unit.is_unitary

    def test_unitary_input_fixed(self, table):
        chi = unitary_y_char(table, 5)
        hol, unit = chi.hol(), chi.unit()
        assert hol.is_trivial and unit == chi

    def test_holomorphic_input_fixed(self, table):
        chi = CharacterExponent(table, (cc(table, re=1, im=2),), (ComplexExact.zero(table),))
        hol, unit = chi.hol(), chi.unit()
        assert unit.is_trivial and hol == chi

    def test_round_trip_random(self, table, rng):
        previous = CharacterExponent.trivial(table, 2)
        for _ in range(150):
            chi = random_character(table, 2, rng)
            hol, unit = chi.hol(), chi.unit()
            assert hol.is_holomorphic
            assert unit.is_unitary
            assert hol * unit == chi
            again_hol, again_unit = hol.hol(), hol.unit()
            assert again_hol == hol and again_unit.is_trivial
            # the parts of a product are the products of the parts, conjugates included:
            # the pair sweep's subset tables multiply the fibers' parts on this identity
            for part in (CharacterExponent.hol, CharacterExponent.unit):
                assert part(chi * previous) == part(chi) * part(previous)
                assert part(chi * previous.conjugate()) == part(chi) * part(previous.conjugate())
            previous = chi

    def test_uniqueness_witness(self, table, rng):
        for _ in range(50):
            chi = random_character(table, 1, rng)
            unit = chi.unit()
            other = random_unitary_character(table, 1, rng)
            if other == unit:
                continue
            assert not (chi * other.inverse()).is_holomorphic

    def test_float_oracle_quotient_is_holomorphic(self, table, rng):
        # numeric check, independent of the closed form: alpha / unit passes
        # a central-difference Cauchy-Riemann test and |unit| = 1
        for _ in range(25):
            chi = random_character(table, 1, rng)
            hol, unit = chi.hol(), chi.unit()

            def quotient(z):
                return chi.value_at([z]) * unit.inverse().value_at([z])

            for _ in range(10):
                z = complex(rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3))
                assert dbar_residual(quotient, z) < 1e-6
                assert abs(abs(unit.value_at([z])) - 1) < 1e-9

    def test_conjugate_unitary_part_matches_decomposition(self, table, rng):
        # closed form of the conjugate's unitary part: a' = -a, b' = conj(a)
        for _ in range(100):
            chi = random_character(table, 2, rng)
            closed_form = CharacterExponent(
                table, tuple(-c for c in chi.a), tuple(c.conjugate() for c in chi.a)
            )
            assert closed_form == chi.conjugate().unit()

    def test_conjugate_unitary_part_real_character(self, table):
        # for a real-valued character both unitary parts coincide
        chi = real_char(table, 2)
        gamma = chi.conjugate().unit()
        assert gamma == chi.unit()
        assert gamma == unitary_y_char(table, -2)

    def test_conjugate_unitary_part_of_unitary(self, table, rng):
        for _ in range(30):
            chi = random_unitary_character(table, 2, rng)
            assert chi.conjugate().unit() == chi.conjugate()

    def test_conjugate_unitary_part_holomorphic(self, table):
        chi = CharacterExponent(table, (cc(table, re=1),), (ComplexExact.zero(table),))
        gamma = chi.conjugate().unit()
        assert gamma.a == (cc(table, re=-1),)
        assert gamma.b == (cc(table, re=1),)
        quotient = chi.conjugate() * gamma.inverse()
        assert quotient.is_holomorphic

    def test_trivial_product_has_trivial_unitary_parts(self, table, rng):
        # whenever a product of characters and conjugates is trivial, the
        # product of the matching unitary parts is trivial as well
        for _ in range(50):
            alphas = [random_character(table, 1, rng) for _ in range(3)]
            product = alphas[0] * alphas[1] * alphas[2].conjugate()
            if not product.is_trivial:
                continue
            units = (
                alphas[0].unit()
                * alphas[1].unit()
                * alphas[2].conjugate().unit()
            )
            assert units.is_trivial


class TestExponentAt:
    def test_trivial_character(self, table):
        chi = CharacterExponent.trivial(table, 2)
        v = (cc(table, re=1, im=2), cc(table, re="1/3"))
        assert chi.exponent_at(v).is_zero

    def test_unitary_at_two_pi_i(self, table):
        chi = unitary_y_char(table, -1)
        v = (ComplexExact.make(table, im=ExactScalar.pi_multiple(table, 2)),)
        got = chi.exponent_at(v)
        assert got.re.is_zero
        assert got.im == ExactScalar.pi_multiple(table, -2)

    def test_unitary_kills_real_vector(self, table):
        chi = unitary_y_char(table, -1)
        v = (ComplexExact.make(table, re=ExactScalar.symbol(table, "t")),)
        assert chi.exponent_at(v).is_zero


    def test_unitary_exponent_has_no_real_part(self, table, rng):
        # is_trivial_on_lattice reads only the imaginary part: b = -conj(a) cancels the real one
        def random_vector(n):
            return tuple(ComplexExact(random_scalar(table, rng), random_scalar(table, rng)) for _ in range(n))

        outcomes = set()
        for n in (1, 2, 3):
            for symbolic in (False, True):
                for _ in range(30):
                    if symbolic:  # symbol entries, whose products with the lattice's may not exist
                        a = random_vector(n)
                        chi = CharacterExponent(table, a, tuple(-c.conjugate() for c in a))
                    else:
                        chi = random_unitary_character(table, n, rng)
                    gen = random_vector(n)
                    try:
                        exponent = chi.exponent_at(gen)
                    except SymbolProductUnrepresentable:
                        outcomes.add("unrepresentable")
                        continue
                    assert exponent.re.is_zero, (chi, gen)
                    outcomes.add("zero" if exponent.is_zero else "imaginary")
        assert outcomes == {"unrepresentable", "zero", "imaginary"}


class TestLatticeTriviality:
    def lattice(self, table, second_im):
        g1 = (ComplexExact.make(table, re=ExactScalar.symbol(table, "leps")),)
        g2 = (ComplexExact.make(table, im=second_im),)
        return LatticeBasis(1, (g1, g2))

    def test_trivial_character_always_trivial(self, table):
        lattice = self.lattice(table, ExactScalar.symbol(table, "t"))
        assert is_trivial_on_lattice(CharacterExponent.trivial(table, 1), lattice)

    def test_independent_t_not_trivial(self, table):
        # imaginary part -2t is no even multiple of pi when t is independent
        lattice = self.lattice(table, ExactScalar.symbol(table, "t"))
        assert not is_trivial_on_lattice(unitary_y_char(table, -2), lattice)

    def test_pi_generator_trivial(self, table):
        lattice = self.lattice(table, ExactScalar.pi_multiple(table, 1))
        assert is_trivial_on_lattice(unitary_y_char(table, -2), lattice)

    def test_not_unitary_raises(self, table):
        lattice = self.lattice(table, ExactScalar.symbol(table, "t"))
        with pytest.raises(NotUnitary):
            is_trivial_on_lattice(real_char(table, 1), lattice)

    def test_products_of_trivial_stay_trivial(self, table):
        lattice = self.lattice(table, ExactScalar.pi_multiple(table, 1))
        chi1 = unitary_y_char(table, -2)
        chi2 = unitary_y_char(table, 4)
        assert is_trivial_on_lattice(chi1, lattice)
        assert is_trivial_on_lattice(chi2, lattice)
        assert is_trivial_on_lattice(chi1 * chi2, lattice)

    def test_float_fallback_agrees(self, table):
        for second in (ExactScalar.symbol(table, "t"), ExactScalar.pi_multiple(table, 1)):
            lattice = self.lattice(table, second)
            for c in (-2, 2, 4):
                chi = unitary_y_char(table, c)
                assert is_trivial_on_lattice_float(chi, lattice) == is_trivial_on_lattice(
                    chi, lattice
                )

    @pytest.mark.parametrize("c", [10**200, 10**400], ids=["exponent_overflows", "coefficient_overflows"])
    def test_float_fallback_refuses_a_non_finite_exponent(self, table, c):
        lattice = self.lattice(table, ExactScalar.rational(table, 10**200))
        assert not is_trivial_on_lattice_float(unitary_y_char(table, c), lattice)


class TestLatticeBasis:
    @staticmethod
    def rank_report(table, basis):
        """``validate`` on the manifold over ``basis`` with no fiber."""
        return validate(SolvManifoldSpec(
            name="base_only", n=1, m=0, alphas=(), lattice=basis, lattice_fiber=None, symbols=table
        ))

    def test_standard_lattice_rank(self, table):
        one = ExactScalar.rational(table, 1)
        basis = LatticeBasis(
            1,
            ((ComplexExact.make(table, re=one),), (ComplexExact.make(table, im=one),)),
        )
        report = self.rank_report(table, basis)
        assert report["lattice_rank_ok"] and report["details"] == []

    def test_degenerate_lattice_fails(self, table):
        gen = (ComplexExact.make(table, re=1),)
        report = self.rank_report(table, LatticeBasis(1, (gen, gen)))
        (detail,) = report["details"]
        smallest = float(detail.rpartition(" ")[2])
        assert not report["lattice_rank_ok"] and smallest < 1e-9

    def test_generator_count_enforced(self, table):
        with pytest.raises(ValueError):
            LatticeBasis(1, ((ComplexExact.make(table, re=1),),))


@pytest.mark.xfail(
    strict=True,
    reason="the gate forms the whole exponent, so s * lambda in its unused real part escapes to"
    " floats; the imaginary-part-only gate of ROADMAP items 2 and 5 waits on the benchmark fix of"
    " item 1, and this marker goes when it lands",
)
def test_symbol_product_in_the_real_part_keeps_the_sweep_exact():
    # alpha = e^{s x}, lattice (lambda, i): the exponent at lambda has real part s * lambda,
    # which no test reads, and imaginary part 0
    data = {
        "name": "real_part_escape", "n": 1, "m": 1,
        "symbols": [{"name": "s", "value": 1.5}, {"name": "lambda", "value": 2.5}],
        "alphas": [{"real_exp": [{"s": "1"}]}],
        "lattice": [[{"re": {"lambda": "1"}}], [{"im": {"one": "1"}}]],
    }
    assert analyze(load_spec_dict(data), skip_forms=True)["mode"] == "exact"
