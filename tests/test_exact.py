import math
from fractions import Fraction

import pytest

from solvhodge.exact import (
    ComplexExact,
    ExactScalar,
    SymbolProductUnrepresentable,
    SymbolTable,
    parse_rational,
)
from solvhodge.model import CharacterExponent, LatticeBasis, SolvManifoldSpec

from conftest import random_fraction, random_scalar


@pytest.fixture
def table():
    return SymbolTable.base().with_symbol("t", 1.0)


def scalar(**coeffs):
    return ExactScalar.make({k: Fraction(v) for k, v in coeffs.items()})


class TestSymbolTable:
    def test_base_has_one_and_pi(self):
        table = SymbolTable.base()
        assert table.witness("one") == 1.0
        assert table.witness("pi") == math.pi
        assert "one" in table and "pi" in table

    def test_duplicate_symbol_rejected(self, table):
        with pytest.raises(ValueError):
            table.with_symbol("t", 2.0)

    def test_zero_witness_rejected(self, table):
        with pytest.raises(ValueError):
            table.with_symbol("u", 0.0)

    def test_nonfinite_witness_rejected(self, table):
        with pytest.raises(ValueError):
            table.with_symbol("u", math.inf)

    def test_missing_one_rejected(self):
        with pytest.raises(ValueError):
            SymbolTable((("pi", math.pi),))


class TestAdd:
    def test_rational_halves(self):
        assert scalar(one="3/2") + scalar(one="1/2") == scalar(one=2)

    def test_pi_cancels(self):
        assert (scalar(pi=1) + scalar(pi=-1)).is_zero

    def test_mixed_symbols(self):
        got = scalar(t=2, one=3) + scalar(t=1)
        assert got == scalar(t=3, one=3)

    def test_sum_naming_an_undeclared_symbol_is_refused_by_the_spec(self, table):
        # scalars add whatever they name; the spec that holds them refuses a symbol its table lacks
        total = scalar(one=1) + ExactScalar.symbol("u")
        lattice = LatticeBasis(1, ((ComplexExact.make(re=1),), (ComplexExact.make(im=total),)))
        with pytest.raises(ValueError, match="undeclared symbol 'u'"):
            SolvManifoldSpec("x", 1, 0, (), lattice, None, table)

    def test_ring_axioms_random(self, table, rng):
        for _ in range(200):
            a = random_scalar(table, rng)
            b = random_scalar(table, rng)
            c = random_scalar(table, rng)
            assert (a + b) + c == a + (b + c)
            assert a + b == b + a
            assert a - a == ExactScalar.zero()


class TestMul:
    def test_rational_times_pi(self):
        assert scalar(one=2) * scalar(pi=3) == scalar(pi=6)

    def test_symbol_product_unrepresentable(self):
        with pytest.raises(SymbolProductUnrepresentable):
            scalar(t=1) * scalar(pi=1)

    def test_zero_absorbs(self):
        assert (ExactScalar.zero() * scalar(t=1)).is_zero

    def test_rational_scaling_distributes(self, table, rng):
        for _ in range(200):
            a = random_scalar(table, rng)
            b = random_scalar(table, rng)
            q1 = random_fraction(rng, 3, 3)
            q2 = random_fraction(rng, 3, 3)
            assert (a + b).scaled(q1) == a.scaled(q1) + b.scaled(q1)
            assert a.scaled(q1 * q2) == a.scaled(q1).scaled(q2)
            assert ExactScalar.rational(q1) * a == a.scaled(q1)


class TestTwoPiMembership:
    def test_minus_two_pi(self):
        assert scalar(pi=-2).is_multiple_of_2pi()

    def test_plain_one_is_not(self):
        # under the declared independence 1 is not in 2*pi*Z
        assert not scalar(one=1).is_multiple_of_2pi()

    def test_fractional_pi_is_not(self):
        assert not scalar(pi="2/3").is_multiple_of_2pi()

    def test_four_pi_is(self):
        assert scalar(pi=4).is_multiple_of_2pi()

    def test_odd_pi_is_not(self):
        assert not scalar(pi=3).is_multiple_of_2pi()

    def test_zero_is(self):
        assert ExactScalar.zero().is_multiple_of_2pi()

    def test_closed_under_addition(self, rng):
        for _ in range(100):
            x = scalar(pi=2 * rng.randint(-5, 5))
            y = scalar(pi=2 * rng.randint(-5, 5))
            assert (x + y).is_multiple_of_2pi()


class TestFloatValue:
    def test_two_pi(self, table):
        assert scalar(pi=2).float_value(table) == pytest.approx(2 * math.pi)

    def test_zero(self, table):
        assert ExactScalar.zero().float_value(table) == 0.0

    def test_one_plus_t(self, table):
        assert scalar(one=1, t=1).float_value(table) == pytest.approx(2.0)

    def test_homomorphism_random(self, table, rng):
        for _ in range(200):
            a = random_scalar(table, rng)
            b = random_scalar(table, rng)
            q = random_fraction(rng, 3, 3)
            lhs = (a + b).float_value(table)
            rhs = a.float_value(table) + b.float_value(table)
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)
            assert a.scaled(q).float_value(table) == pytest.approx(
                float(q) * a.float_value(table), rel=1e-12, abs=1e-12
            )


class TestLiterals:
    def test_parse_rational(self):
        assert parse_rational("3/2") == Fraction(3, 2)
        assert parse_rational("-7") == Fraction(-7)

    @pytest.mark.parametrize("bad", ["", "3/0", "1/-2", "x", "1.5", "2 / 3"])
    def test_parse_rational_rejects(self, bad):
        with pytest.raises(ValueError):
            parse_rational(bad)

    def test_undeclared_symbol_rejected(self, table):
        chi = CharacterExponent.from_real_exponent([ExactScalar.make({"nope": Fraction(1)})])
        lattice = LatticeBasis(1, ((ComplexExact.make(re=1),), (ComplexExact.make(im=1),)))
        with pytest.raises(ValueError, match="undeclared symbol 'nope'"):
            SolvManifoldSpec("x", 1, 1, (chi,), lattice, None, table)


class TestComplexExact:
    def test_conjugation_negates_im(self):
        z = ComplexExact.make(re="1/2", im=3)
        assert z.conjugate().re == z.re
        assert z.conjugate().im == -z.im
        assert z.conjugate().conjugate() == z

    def test_multiplication_matches_floats(self, table, rng):
        for _ in range(100):
            z = ComplexExact.make(re=random_fraction(rng), im=random_fraction(rng))
            w = ComplexExact.make(re=random_fraction(rng), im=random_fraction(rng))
            exact = (z * w).complex_value(table)
            approx = z.complex_value(table) * w.complex_value(table)
            assert exact == pytest.approx(approx, rel=1e-12, abs=1e-12)

    def test_symbolic_product_raises(self):
        z = ComplexExact.make(re=ExactScalar.symbol("t"))
        w = ComplexExact.make(im=ExactScalar.pi_multiple(1))
        with pytest.raises(SymbolProductUnrepresentable):
            z * w
