"""The witness linear algebra of ``manifold.validate`` against numpy.

The package computes its witness diagnostics (the lattice rank certificate
from an exact inverse, and the action on the fiber basis computed exactly
from that same inverse) in pure Python and never imports numpy; numpy serves
here only as the reference implementation, on float witness matrices that
``conftest.witness_rows`` sums apart from ``validate``'s exact ones.
``example2_n1``'s fiber basis is exact over Q(sqrt D), and is checked
exactly there, with its one witness ``sqrtD``.
"""

import copy
import itertools
import json
import math
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import solvhodge as sh
from solvhodge.manifold import (
    FIBER_OK,
    FIBER_UNDECIDED,
    FIBER_VIOLATED,
    _exact_matrix,
    _fiber_action,
    _inverse,
    _norm,
    _to_float,
)
from solvhodge.cli import analyze
from solvhodge.specfile import load_spec_dict, spec_to_dict

from conftest import hyperbolic_family, witness_rows

SRC = Path(__file__).resolve().parent.parent / "src"
PINNED = Path(__file__).resolve().parent / "pinned"

HYPERBOLIC = [
    ((a, b), (c, d))
    for a, b, c, d in itertools.product(range(-4, 5), repeat=4)
    if a * d - b * c == 1 and abs(a + d) > 2
]


def realified_diagonal(values):
    m = len(values)
    out = np.zeros((2 * m, 2 * m))
    for k, v in enumerate(values):
        out[k, k] = out[m + k, m + k] = v.real
        out[k, m + k] = -v.imag
        out[m + k, k] = v.imag
    return out


def random_orthogonal(gen, size):
    q, r = np.linalg.qr(gen.standard_normal((size, size)))
    return q * np.sign(np.diag(r))


def exact_inverse(matrix):
    """``_inverse`` of the float matrix read exactly, after checking it against numpy's inverse."""
    matrix = np.asarray(matrix, dtype=float)
    inverse = _inverse([[Fraction(x) for x in row] for row in matrix.tolist()])
    if inverse is not None:
        got = np.array([[float(x) for x in row] for row in inverse])
        expected = np.linalg.inv(matrix)
        scale = np.linalg.cond(matrix, np.inf) * np.abs(expected).max()
        assert np.abs(got - expected).max() <= 1e-13 * scale, (got, expected)
    return inverse


def distance_to_singular(matrix) -> float:
    """1 / ||W^-1|| in the infinity norm: the distance from W to the nearest singular matrix in that norm."""
    inverse = exact_inverse(matrix)
    return 0.0 if inverse is None else float(1 / _norm(inverse))


class TestSmallestSingularValue:
    """The rank certificate: the smallest perturbation that makes W singular, the infinity-norm
    counterpart of its smallest singular value, is 1 / ||W^-1|| (Gastinel-Kahan), read off the
    exact inverse, which numpy's inverse cross-checks."""

    def test_random_matrices(self):
        gen = np.random.default_rng(20261018)
        for n in range(1, 7):
            for trial in range(20):
                size = 2 * n
                matrix = gen.uniform(-3.0, 3.0, (size, size))
                inverse = exact_inverse(matrix)
                exact = [[Fraction(x) for x in row] for row in matrix.tolist()]
                if trial == 0:  # the inverse is exact: W W^-1 is the identity, with no rounding
                    product = [[sum(a * b for a, b in zip(row, col)) for col in zip(*inverse)] for row in exact]
                    assert product == [[int(r == c) for c in range(size)] for r in range(size)]
                condition = float(_norm(exact) * _norm(inverse))
                assert math.isclose(condition, np.linalg.cond(matrix, np.inf), rel_tol=1e-9)
                integers = gen.integers(-4, 5, (size, size))
                assert (exact_inverse(integers) is None) == (np.linalg.matrix_rank(integers) < size)

    def test_near_singular_matrices(self):
        gen = np.random.default_rng(7)
        verdicts = set()
        for n in range(1, 7):
            size = 2 * n
            # a W whose smallest singular value is between 1e-10 and 1e-8 has W^-1 of norm
            # between about 1e8 and 1e10, so an error of norm 1e-9 is certified on one side only
            for target in np.logspace(-10, -8, 8):
                sigma = np.sort(gen.uniform(0.5, 3.0, size))[::-1]
                sigma[-1] = target
                matrix = random_orthogonal(gen, size) @ np.diag(sigma) @ random_orthogonal(gen, size).T
                distance = distance_to_singular(matrix)
                assert target / math.sqrt(size) <= distance * (1 + 1e-6) and distance <= target * math.sqrt(size) * (1 + 1e-6)
                verdicts.add(distance > 1e-9)
        assert verdicts == {True, False}

    def test_exactly_degenerate_matrices(self):
        gen = np.random.default_rng(3)
        for n in range(1, 7):
            size = 2 * n
            for kind in range(3):
                matrix = gen.integers(-4, 5, (size, size)).astype(float)
                if kind == 0:
                    matrix[-1] = matrix[0]
                elif kind == 1:
                    matrix[-1] = 0.0
                elif size > 2:
                    matrix[-1] = matrix[0] + 2.0 * matrix[1]
                else:
                    matrix[:, -1] = 3.0 * matrix[:, 0]
                assert exact_inverse(matrix) is None
                assert np.linalg.matrix_rank(matrix) < size

    def test_entries_whose_squares_overflow(self):
        # entries near 1e+-300, whose squares, and whose condition products, are past the float range
        gen = np.random.default_rng(11)
        for exponent in (-300, -200, 155, 200, 300):
            for size in (2, 4, 6):
                assert exact_inverse(gen.uniform(-3.0, 3.0, (size, size)) * 10.0**exponent) is not None
        table = sh.SymbolTable.base()
        big, minus_big = (sh.ExactScalar.rational(v) for v in (10**200, -(10**200)))
        lattice = sh.LatticeBasis(
            1, ((sh.ComplexExact.make(re=big, im=big),), (sh.ComplexExact.make(re=minus_big, im=big),))
        )
        spec = sh.SolvManifoldSpec(
            name="huge_base", n=1, m=0, alphas=(), lattice=lattice, lattice_fiber=None, symbols=table
        )
        assert sh.validate(spec)["lattice_rank_ok"]
        assert math.isclose(distance_to_singular(witness_rows(lattice, table)), 1e200, rel_tol=1e-12)
        # diag(1e300, 1e-300) is exact and certified, and its condition number 1e600 reads as inf
        exact = [[Fraction(10**300), 0], [0, Fraction(1, 10**300)]]
        assert _to_float(_norm(exact) * _norm(_inverse(exact))) == math.inf

    def test_lattice_rank_certificate(self):
        for A in HYPERBOLIC[:8]:
            spec = sh.example2_n1(A)
            assert sh.validate(spec)["lattice_rank_ok"]
            _, errors = _exact_matrix(spec.lattice_fiber.generators, spec.symbols)
            error = max(errors)
            # half an ulp of each witness, against the distance to the nearest singular matrix
            assert 0 < error < 1e-15
            assert distance_to_singular(witness_rows(spec.lattice_fiber, spec.symbols)) > 1e6 * float(error)
        # the empty base lattice of a torus over C^0 has full rank
        assert sh.validate(sh.torus(0, 1))["lattice_rank_ok"]

    def test_a_small_full_rank_lattice_passes(self):
        tenth = {"one": "1/10000000000"}
        data = {
            "name": "small_lattice", "n": 1, "m": 1,
            "alphas": [{"real_exp": [{}]}],
            "lattice": [[{"re": tenth}], [{"im": tenth}]],
            "lattice_fiber": [[{"re": {"one": "1"}}], [{"im": {"one": "1"}}]],
        }
        assert analyze(load_spec_dict(data), skip_forms=True)["validation"]["lattice_rank_ok"] is True

    def test_scaled_gaussian_lattices(self):
        # c * Z[i] with c = 10^k, exact rationals that name only "one", is certified at every scale,
        # below 10^-308 too, where the floats of c are subnormal or 0
        for k in range(-330, 301):
            c = {"one": str(10**k) if k >= 0 else f"1/{10**-k}"}
            data = {
                "name": "scaled_gaussian", "n": 1, "m": 1,
                "alphas": [{"real_exp": [{}]}],
                "lattice": [[{"re": c}], [{"im": c}]],
                "lattice_fiber": [[{"re": c}], [{"im": c}]],
            }
            report = sh.validate(load_spec_dict(data))
            assert report["lattice_rank_ok"] and report["fiber_preserved"] == FIBER_OK, (k, report["details"])

    def test_rationally_dependent_lattice_is_deficient(self):
        # s + i and 2s + 2i span a line over R whatever s is: W is singular on any witness
        data = {
            "name": "dependent", "n": 1, "m": 0,
            "symbols": [{"name": "s", "value": 1.25}],
            "alphas": [],
            "lattice": [[{"re": {"s": "1"}, "im": {"one": "1"}}], [{"re": {"s": "2"}, "im": {"one": "2"}}]],
        }
        report = sh.validate(load_spec_dict(data))
        assert not report["lattice_rank_ok"]
        assert report["details"] == ["base lattice rank not certified: witness matrix singular"]

    def test_a_lattice_singular_within_its_witness_error_is_refused(self):
        # W = [[r2, r6], [1, r3]] is singular, as sqrt 2 sqrt 3 = sqrt 6, but not on the witnesses;
        # the matrices within half an ulp of each witness include the singular one, so no certificate
        data = {
            "name": "sqrt_relation", "n": 1, "m": 0,
            "symbols": [{"name": f"r{k}", "value": math.sqrt(k)} for k in (2, 3, 6)],
            "alphas": [],
            "lattice": [[{"re": {"r2": "1"}, "im": {"r6": "1"}}], [{"re": {"one": "1"}, "im": {"r3": "1"}}]],
        }
        spec = load_spec_dict(data)
        assert exact_inverse(witness_rows(spec.lattice, spec.symbols)) is not None
        report = sh.validate(spec)
        assert not report["lattice_rank_ok"]
        (detail,) = report["details"]
        assert detail.startswith("base lattice rank not certified: error bound ") and detail.endswith(" not below 1")
        assert float(detail.split("error bound ")[1].split()[0]) >= 1


def action(exact, values):
    """``_fiber_action`` on float character values, read exactly, as numpy's C rather than its C^T."""
    pairs = [(Fraction(v.real), Fraction(v.imag)) for v in values]
    return np.array([[float(x) for x in row] for row in _fiber_action(exact, _inverse(exact), pairs)]).T


class TestFiberCoefficients:
    def test_hyperbolic_matrices(self):
        assert len(HYPERBOLIC) == 72
        for A in HYPERBOLIC:
            spec = sh.example2_n1(A)
            report = sh.validate(spec)
            assert report["fiber_preserved"] == FIBER_OK, A
            basis = np.array(witness_rows(spec.lattice_fiber, spec.symbols)).T
            exact, _ = _exact_matrix(spec.lattice_fiber.generators, spec.symbols)
            # the real base generator acts by A times the trace's sign on each block, the imaginary one trivially
            sign = 1 if A[0][0] + A[1][1] > 0 else -1
            known = [sign * np.kron(np.eye(2), A), np.eye(4)]
            for gen, detail, integers in zip(spec.lattice.generators, report["details"], known):
                point = [c.complex_value(spec.symbols) for c in gen]
                values = [alpha.value_at(point, spec.symbols) for alpha in spec.alphas]
                expected = np.linalg.solve(basis, realified_diagonal(values) @ basis)
                got = action(exact, values)
                assert np.abs(got - expected).max() < 1e-12, A
                nearest = np.rint(expected)
                assert np.abs(expected - nearest).max() < 1e-12, A
                assert (np.rint(got) == integers).all(), (A, got)
                # numpy's det of the rounded C cross-checks the det D = 1 that the detail names
                assert abs(round(np.linalg.det(nearest))) == 1, A
                assert detail.endswith("determinant 1"), (A, detail)
                residual = float(detail.split("residual ")[1].split(",")[0])
                assert residual < 1e-12

    def test_random_complex_actions(self):
        # the builders' characters act by real scalars; complex values exercise
        # the mixing of the Re and Im blocks
        gen = np.random.default_rng(11)
        for m in range(1, 7):
            for _ in range(10):
                basis = gen.uniform(-2.0, 2.0, (2 * m, 2 * m))
                values = [complex(*gen.uniform(-2.0, 2.0, 2)) for _ in range(m)]
                expected = np.linalg.solve(basis, realified_diagonal(values) @ basis)
                exact = [[Fraction(x) for x in col] for col in basis.T.tolist()]  # W^T, as validate holds it
                got = action(exact, values)
                scale = np.linalg.cond(basis) * max(1.0, np.abs(expected).max())
                assert np.abs(got - expected).max() <= 1e-12 * scale, (m, values)

    def test_singular_basis(self):
        torus = sh.torus(1, 1)
        gen = torus.lattice_fiber.generators[0]
        spec = sh.SolvManifoldSpec(
            name="singular_fiber",
            n=1,
            m=1,
            alphas=torus.alphas,
            lattice=torus.lattice,
            lattice_fiber=sh.LatticeBasis(1, (gen, gen)),
            symbols=torus.symbols,
        )
        basis = np.array(witness_rows(spec.lattice_fiber, spec.symbols)).T
        try:
            np.linalg.solve(basis, basis)
        except np.linalg.LinAlgError:
            pass
        else:
            raise AssertionError("numpy solved a singular system")
        assert _inverse(_exact_matrix(spec.lattice_fiber.generators, spec.symbols)[0]) is None
        report = sh.validate(spec)
        assert report["fiber_preserved"] == FIBER_VIOLATED
        assert "base generator 1: fiber basis is numerically singular" in report["details"]

    def test_fiber_entries_that_are_sums_of_symbols(self):
        # W = diag(1 + s, 1 + s/3) with s = sqrt 2: each entry is a sum of two terms, which validate
        # reads off its exact matrix; the trivial action is the identity on the fiber basis
        s = {"one": "1", "s": "1"}
        data = {
            "name": "sum_fiber", "n": 1, "m": 1,
            "symbols": [{"name": "s", "value": math.sqrt(2)}],
            "alphas": [{"real_exp": [{}]}],
            "lattice": [[{"re": {"one": "1"}}], [{"im": {"one": "1"}}]],
            "lattice_fiber": [[{"re": s}], [{"im": {"one": "1", "s": "1/3"}}]],
        }
        spec = load_spec_dict(data)
        report = sh.validate(spec)
        assert report["lattice_rank_ok"] and report["fiber_preserved"] == FIBER_OK, report["details"]
        assert report["details"][0].startswith("base generator 1: integer matrix recovered"), report["details"]
        exact, _ = _exact_matrix(spec.lattice_fiber.generators, spec.symbols)
        one, zero = Fraction(1), Fraction(0)
        assert _fiber_action(exact, _inverse(exact), [(one, zero)]) == [[one, zero], [zero, one]]

    @pytest.mark.parametrize(
        "re, im", [("1", f"1/{10**200}"), (f"1/{10**300}", f"1/{10**320}"), (str(10**300), f"1/{10**300}")],
        ids=["unit_and_tiny", "both_tiny", "huge_and_tiny"],
    )
    def test_exact_ill_conditioned_bases(self, re, im):
        # the basis (re, i im) names only one, so W, its inverse and the trivial action are exact: C is the
        # identity, with residual 0 and a bound of 0, whatever cond(W), up to 10^600 here
        data = {
            "name": "exact_fiber", "n": 1, "m": 1,
            "alphas": [{"real_exp": [{}]}],
            "lattice": [[{"re": {"one": "1"}}], [{"im": {"one": "1"}}]],
            "lattice_fiber": [[{"re": {"one": re}}], [{"im": {"one": im}}]],
        }
        report = sh.validate(load_spec_dict(data))
        assert report == {
            "lattice_rank_ok": True,
            "fiber_preserved": FIBER_OK,
            "details": [
                f"base generator {k}: integer matrix recovered, residual 0.000e+00, determinant 1" for k in (1, 2)
            ],
        }


class TestIntegralityPrecision:
    """``validate`` judges integrality against the bound beta on the error of its exact C~, computed
    from the witnesses' error and the character values'."""

    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(st.one_of(st.integers(-(2 * 10**5), 2 * 10**5), st.integers(-(2**56), 2**56)), st.sampled_from([1, -1]))
    def test_family_is_never_violated(self, N, sign):
        report = sh.validate(sh.example2_n1(hyperbolic_family(N, sign)))
        assert report["fiber_preserved"] != FIBER_VIOLATED, (N, sign, report["details"])
        if abs(N) <= 10**5:
            assert report["fiber_preserved"] == FIBER_OK, (N, sign, report["details"])

    @pytest.mark.parametrize(
        "N, status",
        [(3000, FIBER_OK), (7000, FIBER_OK), (10**4, FIBER_OK), (10**5, FIBER_OK), (10**6, FIBER_UNDECIDED)],
    )
    def test_family_verdicts(self, N, status):
        for sign in (1, -1):
            report = sh.validate(sh.example2_n1(hyperbolic_family(N, sign)))
            assert report["fiber_preserved"] == status
            first = report["details"][0]
            if status == FIBER_UNDECIDED:
                assert first.startswith("base generator 1: integrality undecided, error bound "), first
            else:
                assert first.startswith("base generator 1: integer matrix recovered"), first
            assert report["details"][1].startswith("base generator 2: integer matrix recovered")

    def test_family_at_powers_of_ten_is_never_violated(self):
        # from N = 10^6 the bound reaches 1/2, and past 10^16 the rank is not certified and the bound is
        # infinite: undecided, as the lattice is preserved by construction
        for k in range(301):
            for sign in (1, -1):
                report = sh.validate(sh.example2_n1(hyperbolic_family(10**k, sign)))
                assert report["fiber_preserved"] != FIBER_VIOLATED, (k, sign, report["details"])
                assert report["lattice_rank_ok"] == (k <= 16), (k, sign, report["details"])

    def test_perturbed_witness_is_violated(self):
        for N in range(-10, 11):
            for sign in (1, -1):
                data = spec_to_dict(sh.example2_n1(hyperbolic_family(N, sign)))
                for name in ("sqrtD", "logeps"):
                    perturbed = copy.deepcopy(data)
                    next(e for e in perturbed["symbols"] if e["name"] == name)["value"] += 1e-3
                    report = sh.validate(load_spec_dict(perturbed))
                    assert report["fiber_preserved"] == FIBER_VIOLATED, (N, sign, name)

    def test_small_matrices_keep_their_details(self):
        # every record reads ok; the residuals are those of the exact C~
        pinned = json.loads((PINNED / "example2_hyperbolic.validate.json").read_text())
        assert [entry["matrix"] for entry in pinned] == [[list(row) for row in A] for A in HYPERBOLIC]
        for entry in pinned:
            report = sh.validate(sh.example2_n1(entry["matrix"]))
            assert report["lattice_rank_ok"] == entry["lattice_rank_ok"]
            assert report["fiber_preserved"] == entry["fiber_preserved"] == FIBER_OK
            assert report["details"] == entry["details"], entry["matrix"]


def root_field_times(x, y, disc):
    """(p + q sqrt D)(u + v sqrt D), each number of Q(sqrt D) a pair (rational part, sqrt D part)."""
    (p, q), (u, v) = x, y
    return p * u + q * v * disc, p * v + q * u


class TestExample2Inverse:
    def test_dual_matrix_inverts_eigenvectors(self):
        # the fiber basis adj(E), read off the generators, times E is det(E) I, exactly over Q(sqrt D)
        for A in HYPERBOLIC:
            spec = sh.example2_n1(A)
            (a11, a12), (a21, a22) = A
            trace, sign = a11 + a22, (1 if a11 + a22 > 0 else -1)
            disc, half = trace * trace - 4, Fraction(trace, 2)
            # E = [[a12, a12], [lam - a11, mu - a11]], lam = (tr + s sqrt D) / 2 and mu = (tr - s sqrt D) / 2
            eig = [[(a12, 0), (a12, 0)], [(half - a11, Fraction(sign, 2)), (half - a11, Fraction(-sign, 2))]]
            gens, i = spec.lattice_fiber.generators, sh.ComplexExact.make(im=1)
            assert {x for gen in gens for z in gen for part in (z.re, z.im) for x, _ in part.coeffs} <= {"one", "sqrtD"}
            assert all(z.im.is_zero for gen in gens[:2] for z in gen)
            assert [[i * z for z in gen] for gen in gens[:2]] == [list(gen) for gen in gens[2:]]
            adj = [[(g[r].re.coefficient("one"), g[r].re.coefficient("sqrtD")) for g in gens[:2]] for r in (0, 1)]
            product = [
                [tuple(map(sum, zip(*(root_field_times(eig[r][k], adj[k][c], disc) for k in (0, 1))))) for c in (0, 1)]
                for r in (0, 1)
            ]
            det = (0, -sign * a12)  # a12 (mu - lam)
            assert product == [[det, (0, 0)], [(0, 0), det]], A

    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(st.one_of(st.integers(3, 2**26), st.integers(2**27, 2**500)), st.sampled_from([1, -1]))
    def test_sqrt_witness_is_the_nearest_float(self, trace, sign):
        # D = trace^2 - 4 runs below and above 2^53, up to 2^1000; the midpoints from the witness to
        # its two float neighbours bracket sqrt D, checked on exact squares
        disc = trace * trace - 4
        root = sh.example2_n1([[sign * trace, -1], [1, 0]]).symbols.witness("sqrtD")
        below, above = (Fraction(root) + Fraction(math.nextafter(root, to)) for to in (0, math.inf))
        assert (below / 2) ** 2 < disc < (above / 2) ** 2, trace


def test_cli_never_imports_numpy(tmp_path):
    # one fresh interpreter runs every subcommand that touches the witness code
    script = f"""
import sys
sys.path.insert(0, {str(SRC)!r})
import solvhodge
from solvhodge.cli import main
tmp = {str(tmp_path)!r}
assert main(["emit-example", "torus", "--n", "1", "--m", "2", "--out", tmp + "/torus.json"]) == 0
assert main(["emit-example", "example2_n1", "--out", tmp + "/ex2.json"]) == 0
assert main(["emit-example", "example2_n1"]) == 0
for name in ("torus.json", "ex2.json"):
    assert main(["analyze", tmp + "/" + name, "--format", "json"]) == 0
    assert main(["check-harmonic", tmp + "/" + name]) == 0
print("numpy" in sys.modules)
"""
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "False"
