import math
from fractions import Fraction

import numpy as np
import pytest

from solvhodge import manifold
from solvhodge.cli import analyze
from solvhodge.exact import ComplexExact, ExactScalar, SymbolTable
from solvhodge.manifold import (
    FIBER_NOT_CHECKED,
    FIBER_OK,
    FIBER_UNDECIDED,
    FIBER_VIOLATED,
    example1,
    example2_n1,
    torus,
    validate,
)
from solvhodge.model import CharacterExponent, DimensionCapExceeded, LatticeBasis, SolvManifoldSpec
from solvhodge.specfile import load_spec_dict, spec_to_dict

from conftest import corpus_specs, hyperbolic_family
from smoke import NOT_UNIMODULAR


def exponent_data(chi):
    """Exponent coefficients, comparable across symbol tables."""
    return tuple((c.re.coeffs, c.im.coeffs) for c in chi.a + chi.b)


class TestTorus:
    def test_basic_shape(self):
        spec = torus(1, 1)
        assert spec.n == 1 and spec.m == 1
        assert len(spec.alphas) == 1 and spec.alphas[0].is_trivial
        assert len(spec.lattice.generators) == 2
        assert len(spec.lattice_fiber.generators) == 2

    def test_degenerate_base(self):
        spec = torus(0, 2)
        assert spec.n == 0 and spec.lattice.generators == ()
        assert all(alpha.n == 0 for alpha in spec.alphas)

    def test_degenerate_fiber(self):
        spec = torus(2, 0)
        assert spec.m == 0 and spec.alphas == ()

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            torus(0, 0)

    def test_validates_clean(self):
        report = validate(torus(1, 1))
        assert report["lattice_rank_ok"] and report["fiber_preserved"] == FIBER_OK


class TestExample1:
    def test_characters_pair_up(self):
        spec = example1([1], "symbolic")
        assert spec.n == 1 and spec.m == 2
        assert exponent_data(spec.alphas[0]) == exponent_data(
            CharacterExponent.from_real_exponent([1])
        )
        assert exponent_data(spec.alphas[1]) == exponent_data(
            CharacterExponent.from_real_exponent([-1])
        )

    def test_symbolic_lattice(self):
        spec = example1([1], "symbolic")
        g1, g2 = spec.lattice.generators
        assert g1[0].im.is_zero and g1[0].re == ExactScalar.symbol("lambda")
        assert g2[0].re.is_zero and g2[0].im == ExactScalar.symbol("t")

    def test_rational_pi_lattice(self):
        spec = example1([1], "rational_pi(1,2)")
        g2 = spec.lattice.generators[1]
        assert g2[0].im == ExactScalar.pi_multiple("1/2")

    def test_tuple_t_mode(self):
        assert example1([1], (1, 2)) == example1([1], "rational_pi(1,2)")

    def test_zero_exponent_rejected(self):
        with pytest.raises(ValueError):
            example1([1, 0])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            example1([])

    def test_bad_t_mode_rejected(self):
        with pytest.raises(ValueError):
            example1([1], "sometimes")
        with pytest.raises(ValueError):
            example1([1], "rational_pi(1,0)")

    def test_deterministic(self):
        assert example1([1, -2], "symbolic") == example1([1, -2], "symbolic")

    def test_no_fiber_data(self):
        assert example1([1]).lattice_fiber is None
        assert validate(example1([1]))["fiber_preserved"] == FIBER_NOT_CHECKED


class TestExample2:
    def test_accepted_and_preserved(self):
        spec = example2_n1([[2, 1], [1, 1]])
        assert spec.n == 1 and spec.m == 2
        report = validate(spec)
        assert report["lattice_rank_ok"]
        assert report["fiber_preserved"] == FIBER_OK

    def test_logeps_witness(self):
        spec = example2_n1([[2, 1], [1, 1]])
        assert spec.symbols.witness("logeps") == pytest.approx(
            math.log((3 + math.sqrt(5)) / 2)
        )

    def test_identity_rejected(self):
        with pytest.raises(ValueError):
            example2_n1([[1, 0], [0, 1]])

    def test_elliptic_rejected(self):
        with pytest.raises(ValueError):
            example2_n1([[0, -1], [1, 0]])

    def test_wrong_determinant_rejected(self):
        with pytest.raises(ValueError):
            example2_n1([[2, 0], [0, 1]])

    @pytest.mark.parametrize(
        "matrix", [[[2, 1]], [[2, 1], [1, 1], [0, 0]], [[2, 1, 0], [1, 1, 0]], [[2, 1], [1]]],
        ids=["one_row", "three_rows", "three_columns", "ragged"],
    )
    def test_non_2x2_rejected(self, matrix):
        with pytest.raises(ValueError, match="^expected a 2x2 integer matrix$"):
            example2_n1(matrix)

    def test_sqrt_d_a_multiple_of_c1(self):
        # D = 32, so sqrtD = 4 c1 on the witnesses too; no exact verdict reads a fiber symbol
        spec = example2_n1([[5, 4], [1, 1]])
        assert spec.symbols.witness("sqrtD") == 4 * spec.symbols.witness("c1")
        report = validate(spec)
        assert report["lattice_rank_ok"] and report["fiber_preserved"] == FIBER_OK

    def test_negative_trace_accepted(self):
        spec = example2_n1([[-2, 1], [1, -1]])
        assert validate(spec)["fiber_preserved"] == FIBER_OK

    def test_matches_example1_characters(self):
        ex1 = example1([1], "symbolic")
        ex2 = example2_n1([[2, 1], [1, 1]])
        assert [exponent_data(a) for a in ex1.alphas] == [
            exponent_data(a) for a in ex2.alphas
        ]

    def test_fiber_preservation_numeric_oracle(self):
        # independent check straight from the input matrix: multiplying the
        # fiber generators by the eigenvalue diagonal must reproduce the
        # integer combinations read off from A itself
        A = [[2, 1], [1, 1]]
        spec = example2_n1(A)
        eps = math.exp(spec.symbols.witness("logeps"))
        gens = [
            np.array([c.complex_value(spec.symbols) for c in gen]) for gen in spec.lattice_fiber.generators
        ]
        diag = np.array([eps, 1.0 / eps])
        # real-part generators: columns of the dual eigenvector matrix
        for j in range(2):
            image = diag * gens[j]
            combo = A[0][j] * gens[0] + A[1][j] * gens[1]
            assert np.abs(image - combo).max() < 1e-6
        # imaginary-part generators transform by the same integer matrix
        for j in range(2):
            image = diag * gens[2 + j]
            combo = A[0][j] * gens[2] + A[1][j] * gens[3]
            assert np.abs(image - combo).max() < 1e-6


def scaled_fiber_spec(exponent, m=1) -> SolvManifoldSpec:
    """n = 1 with standard lattices and each fiber coordinate scaled by exp(exponent * Re z)."""
    standard = torus(1, m)
    return SolvManifoldSpec(
        name="broken",
        n=1,
        m=m,
        alphas=tuple(CharacterExponent.from_real_exponent([exponent]) for _ in range(m)),
        lattice=standard.lattice,
        lattice_fiber=standard.lattice_fiber,
        symbols=standard.symbols,
    )


def paired_fiber_spec(exponent, lattice_fiber=None) -> SolvManifoldSpec:
    """n = 1, m = 2 with the characters exp(+-exponent * Re z): a unimodular action, whose fiber
    lattice, Z[i]^2 unless given, it need not preserve."""
    standard = torus(1, 2)
    return SolvManifoldSpec(
        name="paired",
        n=1,
        m=2,
        alphas=tuple(CharacterExponent.from_real_exponent([k]) for k in (exponent, -exponent)),
        lattice=standard.lattice,
        lattice_fiber=lattice_fiber or standard.lattice_fiber,
        symbols=standard.symbols,
    )


class TestValidate:
    def test_violation_detected(self):
        # irrational scaling (e w_1, w_2 / e) cannot stay in the Gaussian integer span
        report = validate(paired_fiber_spec(1))
        assert report["fiber_preserved"] == FIBER_VIOLATED
        assert any("residual" in line for line in report["details"])

    def test_base_rank_deficient(self):
        standard = torus(1, 1)
        gen = standard.lattice.generators[0]
        report = validate(SolvManifoldSpec(
            name="flat_base", n=1, m=1, alphas=standard.alphas, lattice=LatticeBasis(1, (gen, gen)),
            lattice_fiber=standard.lattice_fiber, symbols=standard.symbols,
        ))
        assert not report["lattice_rank_ok"]
        assert report["details"][0] == "base lattice rank not certified: witness matrix singular"
        assert report["fiber_preserved"] == FIBER_OK

    def test_one_deficient_lattice_as_base_and_fiber(self):
        # one LatticeBasis object held twice gets the rank detail of each role
        standard = torus(1, 1)
        gen = standard.lattice.generators[0]
        flat = LatticeBasis(1, (gen, gen))
        report = validate(SolvManifoldSpec(
            name="flat_both", n=1, m=1, alphas=standard.alphas, lattice=flat,
            lattice_fiber=flat, symbols=standard.symbols,
        ))
        assert not report["lattice_rank_ok"]
        assert report["details"][:2] == [
            "base lattice rank not certified: witness matrix singular",
            "fiber lattice rank not certified: witness matrix singular",
        ]
        assert report["fiber_preserved"] == FIBER_VIOLATED

    def test_character_value_past_the_float_range(self):
        # exp(2000) overflows a float: reported as undecided, not raised
        report = validate(paired_fiber_spec(2000))
        assert report["fiber_preserved"] == FIBER_UNDECIDED
        assert report["details"][0] == "base generator 1: a fiber character's value is past the float range"
        assert report["details"][1].startswith("base generator 2: integer matrix recovered")

    def test_action_past_the_float_range_is_not_a_singular_basis(self):
        # e^709 is finite and the fiber basis 10 Z[i]^2 is well-conditioned, but e^709 * 10 is past
        # the float range; C~ is exact, and the error of the value e^709 makes the bound about 10^295:
        # undecided, not violated
        ten = ComplexExact.make(re=10)
        fiber = LatticeBasis(2, tuple(tuple(ten * c for c in gen) for gen in torus(1, 2).lattice_fiber.generators))
        report = validate(paired_fiber_spec(709, fiber))
        assert report["lattice_rank_ok"]
        assert report["fiber_preserved"] == FIBER_UNDECIDED
        first = report["details"][0]
        assert first.startswith("base generator 1: integrality undecided, error bound ")
        assert first.endswith("e+295 not below 1/2")
        assert report["details"][1].startswith("base generator 2: integer matrix recovered")

    def test_doubling_is_not_an_automorphism(self):
        # z -> 2z maps Z[i] into itself, with index 4: integer coefficients, but det D = 4,
        # decided from the characters before any generator is read
        standard = [[{"re": {"one": "1"}}], [{"im": {"one": "1"}}]]
        report = validate(load_spec_dict({
            "name": "doubling", "n": 1, "m": 1,
            "symbols": [{"name": "l2", "value": math.log(2)}],
            "alphas": [{"real_exp": [{"l2": "1"}]}],
            "lattice": standard, "lattice_fiber": standard,
        }))
        assert report["fiber_preserved"] == FIBER_VIOLATED
        assert report["details"] == [NOT_UNIMODULAR]

    @pytest.mark.parametrize("sign", [1, -1])
    def test_determinant_decides_where_rounding_cannot(self, sign):
        # at N = 10^6 the rounded C is noise, but e^x e^{-x/2} is not unitary: det D = eps = 2.618
        data = spec_to_dict(example2_n1(hyperbolic_family(10**6, sign)))
        quarter = [{"re": {"one": "-1/4"}, "im": {}}]
        data["alphas"][1] = {"a": quarter, "b": quarter}  # e^{-x/2}
        report = validate(load_spec_dict(data))
        assert report["fiber_preserved"] == FIBER_VIOLATED
        assert report["details"] == [NOT_UNIMODULAR]

    def test_modulus_past_the_float_range_is_violated(self):
        # e^(710 + i pi/4) has finite parts but a modulus past the float range
        standard = torus(1, 1)
        table = standard.symbols
        a = ComplexExact.make(re=355, im=ExactScalar.pi_multiple(Fraction(1, 8)))
        report = validate(SolvManifoldSpec(
            name="overflowing_modulus", n=1, m=1, alphas=(CharacterExponent((a,), (a,)),),
            lattice=standard.lattice, lattice_fiber=standard.lattice_fiber, symbols=table,
        ))
        assert report["fiber_preserved"] == FIBER_VIOLATED
        assert report["details"] == [NOT_UNIMODULAR]

    @pytest.mark.parametrize("m", [1, 11])
    def test_huge_determinant_is_one_short_line(self, m):
        # exp(700) makes det D = exp(1400 m), past the float range: one short
        # detail line, and nothing raises
        report = validate(scaled_fiber_spec(700, m))
        assert report["fiber_preserved"] == FIBER_VIOLATED
        assert "not a lattice automorphism" in report["details"][0]
        assert all(len(line) < 150 for line in report["details"])

    def test_near_unimodular_action_is_violated(self):
        # det D = exp(2 * 10^-9) at x = 1 is within any float tolerance of 1, but the product
        # exp(x / 10^9) is not unitary: no lattice automorphism, and no harmonic basis
        spec = scaled_fiber_spec(Fraction(1, 10**9))
        assert not spec.is_unimodular
        report = validate(spec)
        assert report["fiber_preserved"] == FIBER_VIOLATED
        assert report["details"] == [NOT_UNIMODULAR]
        assert analyze(spec)["harmonic_certified"] is False

    def test_corpus_validates_clean(self):
        for spec in corpus_specs():
            report = validate(spec)
            assert report["lattice_rank_ok"], spec.name
            assert report["fiber_preserved"] != FIBER_VIOLATED, spec.name


class TestBuilderCaps:
    @pytest.mark.parametrize(
        "build",
        [lambda: torus(0, 13), lambda: torus(13, 0), lambda: example1([1] * 6)],
        ids=["torus_fiber", "torus_base", "example1"],
    )
    def test_refused_before_any_work(self, monkeypatch, build):
        def refuse(*args, **kwargs):
            raise RuntimeError("the builder did work before the counting cap was checked")

        monkeypatch.setattr(manifold, "_standard_lattice", refuse)
        monkeypatch.setattr(manifold, "_parse_t_mode", refuse)
        with pytest.raises(DimensionCapExceeded, match="dimension 13 exceeds the counting cap 12"):
            build()


class TestSpecInvariants:
    def test_character_count_enforced(self):
        table = SymbolTable.base()
        with pytest.raises(ValueError):
            SolvManifoldSpec(
                name="bad",
                n=1,
                m=2,
                alphas=(CharacterExponent.trivial(1),),
                lattice=torus(1, 1).lattice,
                lattice_fiber=None,
                symbols=table,
            )

    def test_character_dimension_enforced(self):
        table = SymbolTable.base()
        with pytest.raises(ValueError):
            SolvManifoldSpec(
                name="bad",
                n=1,
                m=1,
                alphas=(CharacterExponent.trivial(2),),
                lattice=torus(1, 1).lattice,
                lattice_fiber=None,
                symbols=table,
            )


class TestBuilderIntegers:
    @pytest.mark.parametrize(
        "build, parameter",
        [
            (lambda: example1([1.5]), "a[0]"),
            (lambda: example1([1], [1.5, 2]), "t_mode[0]"),
            (lambda: example2_n1([[2.5, 1], [1, 1]]), "matrix[0][0]"),
            (lambda: torus(True, 1), "n"),
            (lambda: torus(2.7, 1), "n"),
        ],
        ids=["example1_a_float", "t_mode_float", "example2_entry_float", "torus_n_bool",
             "torus_n_float"],
    )
    def test_non_integer_refused(self, build, parameter):
        # never rounded into a manifold with a coerced name or parameter
        with pytest.raises(ValueError) as err:
            build()
        assert str(err.value).startswith(f"{parameter} must be an integer")
