import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import solvhodge as sh
from solvhodge import cli, cohomology, manifold, model, report
from solvhodge.cli import (
    EXIT_BROKEN_PIPE,
    EXIT_CHECK_FAILED,
    EXIT_MALFORMED,
    EXIT_OK,
    EXIT_TOO_LARGE,
    analyze,
    emit_example,
    main,
)
from solvhodge.cohomology import coclosed_mask, harmonic_rows, sweep_trivial_pairs
from solvhodge.exact import ExactScalar
from solvhodge.report import (
    failed_checks,
    harmonic_rows_json,
    render_harmonic_text,
    render_latex,
    render_text,
)
from solvhodge.specfile import SpecFileError, load_spec, load_spec_dict, save_spec, spec_to_dict

from conftest import corpus_specs, oversized_torus
import smoke


def report_canon(report):
    """Comparable run report: everything except timings."""
    data = dict(report)
    data.pop("timings_ms", None)
    return data


def lone_expanding_character():
    """n = 1 with the single fiber character e^x: the characters do not multiply to 1."""
    table = sh.SymbolTable.base()
    return sh.SolvManifoldSpec(
        name="lone_expanding",
        n=1,
        m=1,
        alphas=(sh.CharacterExponent.from_real_exponent([1]),),
        lattice=sh.torus(1, 1).lattice,
        lattice_fiber=None,
        symbols=table,
    )


DRAWN_TABLE = sh.SymbolTable.base().with_symbol("s", 1.3)
scalars = st.dictionaries(
    st.sampled_from(("one", "pi", "s")), st.fractions(-2, 2, max_denominator=3), max_size=3
).map(ExactScalar.make)
complexes = st.builds(lambda re, im: sh.ComplexExact.make(re=re, im=im), scalars, scalars)


@st.composite
def drawn_specs(draw):
    """m <= 3 characters on C^n, n <= 2, with rational, pi and symbol coefficients, and whether
    the last one was drawn to close the product to a unitary character, as it is in half the draws."""
    n, m = draw(st.integers(1, 2)), draw(st.integers(1, 3))
    vectors = st.lists(complexes, min_size=n, max_size=n).map(tuple)
    alphas = [sh.CharacterExponent(draw(vectors), draw(vectors)) for _ in range(m)]
    closed = draw(st.booleans())
    if closed:
        a = draw(vectors)
        rest = math.prod(alphas[:-1], start=sh.CharacterExponent.trivial(n))
        alphas[-1] = sh.CharacterExponent(a, tuple(-c.conjugate() for c in a)) * rest.inverse()
    spec = sh.SolvManifoldSpec(
        name="drawn", n=n, m=m, alphas=tuple(alphas), lattice=sh.torus(n, 0).lattice,
        lattice_fiber=None, symbols=DRAWN_TABLE,
    )
    return spec, closed


def symbolic_scale_data(**fields):
    """File data for n = m = 1 with the character e^{s x} and the lattice (1, i t); ``fields`` override."""
    return {
        "name": "scaled", "n": 1, "m": 1,
        "symbols": [{"name": "s", "value": 1.5}, {"name": "t", "value": 2.5}],
        "alphas": [{"real_exp": [{"s": "1"}]}],
        "lattice": [[{"re": {"one": "1"}}], [{"im": {"t": "1"}}]],
        **fields,
    }


BIG = 10**400
# the matrices have determinant 1 and |trace| > 2; 10**20 - lam rounds to 10**20, so the
# float eigenvectors of the second one are parallel, and lam - 10**8 cancels to 0.0 in the
# third, which would give a fiber symbol the witness -0.0
_BIG_MATRICES = [
    [[BIG, 1], [BIG - 1, 1]],
    [[10**20, 1], [10**20 * (3 - 10**20) - 1, 3 - 10**20]],
    [[10**8, 1], [-1, 0]],
]
PAST_FLOAT_RANGE = [
    *(
        ({"builder": "example2_n1", "A": matrix},
         ["example2_n1", "--matrix", *(str(v) for row in matrix for v in row)],
         "error: $: builder 'example2_n1' rejected its parameters:"
         " matrix entries are too large for its float eigenvectors\n")
        for matrix in _BIG_MATRICES
    ),
    ({"builder": "example1", "a": [1], "t_mode": [BIG, 1]},
     ["example1", "--a", "1", "--t-mode", f"rational_pi({BIG},1)"],
     "error: $: builder 'example1' rejected its parameters:"
     " t_mode rational_pi(r, s) is past the float range\n"),
    # a spec file stores a / 2, which 10**309 takes past the float range
    ({"builder": "example1", "a": [1, 10**309]},
     ["example1", "--a", "1", str(10**309)],
     "error: $: builder 'example1' rejected its parameters: a[1] / 2 is past the float range\n"),
]
PAST_FLOAT_RANGE_IDS = [
    "example2_n1_overflow", "example2_n1_parallel_eigenvectors", "example2_n1_cancelled_eigenvector",
    "example1_t_mode", "example1_a",
]


class TestSpecFileRoundTrip:
    @pytest.mark.parametrize("spec", corpus_specs(), ids=lambda s: s.name)
    def test_dict_round_trip(self, spec):
        assert load_spec_dict(spec_to_dict(spec)) == spec

    def test_file_round_trip(self, tmp_path):
        spec = sh.example1([1, -2], "rational_pi(2,3)")
        path = tmp_path / "spec.json"
        save_spec(spec, path)
        assert load_spec(path) == spec

    # forms_corpus_specs() is the part of corpus_specs() with n + m <= 4
    @pytest.mark.parametrize("spec", corpus_specs(), ids=lambda s: s.name)
    def test_corpus_file_round_trip(self, tmp_path, spec):
        path = tmp_path / "spec.json"
        save_spec(spec, path)
        assert load_spec(path) == spec

    @pytest.mark.parametrize("literal", [{}, {"one": "0"}, {"one": "0/7"}], ids=["empty", "0", "0/7"])
    def test_zero_literals_load_to_the_zero_scalar(self, literal):
        data = spec_to_dict(sh.torus(1, 1))
        data["lattice"][0][0]["im"] = literal
        spec = load_spec_dict(data)
        assert spec.lattice.generators[0][0].im == ExactScalar.zero()
        assert spec == sh.torus(1, 1)

    def test_builder_shorthand(self):
        data = {"builder": "example1", "a": [1, -2], "t_mode": "symbolic"}
        assert load_spec_dict(data) == sh.example1([1, -2], "symbolic")

    def test_builder_shorthand_torus(self):
        assert load_spec_dict({"builder": "torus", "n": 2, "m": 1}) == sh.torus(2, 1)

    def test_builder_shorthand_example2(self):
        data = {"builder": "example2_n1", "A": [[2, 1], [1, 1]]}
        assert load_spec_dict(data) == sh.example2_n1([[2, 1], [1, 1]])

    def test_builder_shorthand_default_t_mode(self):
        assert load_spec_dict({"builder": "example1", "a": [1, -2]}) == sh.example1([1, -2])

    def test_emitted_files_carry_schema_version(self):
        assert spec_to_dict(sh.torus(1, 1))["schema_version"] == 1

    def test_real_exp_shorthand(self):
        explicit = spec_to_dict(sh.example1([1], "symbolic"))
        shorthand = dict(explicit)
        shorthand["alphas"] = [{"real_exp": [{"one": "1"}]}, {"real_exp": [{"one": "-1"}]}]
        assert load_spec_dict(shorthand) == sh.example1([1], "symbolic")


class TestSpecFileErrors:
    def test_bad_rational_has_path(self):
        data = spec_to_dict(sh.torus(1, 1))
        data["lattice"][0][0]["re"] = {"one": "1.5"}
        with pytest.raises(SpecFileError) as err:
            load_spec_dict(data)
        assert "$.lattice[0][0].re" in str(err.value)

    def test_missing_field(self):
        with pytest.raises(SpecFileError):
            load_spec_dict({"name": "x", "n": 1, "m": 1})

    def test_unknown_builder(self):
        with pytest.raises(SpecFileError):
            load_spec_dict({"builder": "moebius"})

    def test_builder_name_must_be_a_string(self):
        with pytest.raises(SpecFileError) as err:
            load_spec_dict({"builder": [["torus"]]})
        assert err.value.where == "$.builder"

    def test_undeclared_symbol(self):
        data = spec_to_dict(sh.torus(1, 1))
        data["lattice"][0][0]["re"] = {"ghost": "1"}
        with pytest.raises(SpecFileError):
            load_spec_dict(data)

    def test_invalid_json_position(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"name": \n bad}')
        with pytest.raises(SpecFileError) as err:
            load_spec(path)
        assert "line 2" in str(err.value)

    def test_wrong_character_count(self):
        data = spec_to_dict(sh.torus(1, 1))
        data["alphas"] = []
        with pytest.raises(SpecFileError):
            load_spec_dict(data)


    @pytest.mark.parametrize(
        "data, where",
        [
            ({"builder": "example1", "a": [1.5, -2]}, "$.a[0]"),
            ({"builder": "example1", "a": [1], "t_mode": [1.5, 2]}, "$.t_mode[0]"),
            ({"builder": "torus", "n": 2.7}, "$.n"),
            ({"builder": "torus", "n": "2"}, "$.n"),
            ({"builder": "torus", "m": True}, "$.m"),
            ({"builder": "example2_n1", "A": [[2.5, 1], [1, 1]]}, "$.A[0][0]"),
        ],
        ids=["example1_a_float", "t_mode_float", "torus_n_float", "torus_n_string",
             "torus_m_bool", "example2_entry_float"],
    )
    def test_builder_numbers_must_be_integers(self, data, where):
        with pytest.raises(SpecFileError) as err:
            load_spec_dict(data)
        assert err.value.where == where

    @pytest.mark.parametrize("version", [99, "x", True, 1.0, None, [1]])
    def test_full_form_schema_version_must_be_1(self, version):
        data = spec_to_dict(sh.torus(1, 1))
        data["schema_version"] = version
        with pytest.raises(SpecFileError) as err:
            load_spec_dict(data)
        assert err.value.where == "$.schema_version"

    def test_full_form_n_must_not_be_bool(self):
        data = spec_to_dict(sh.torus(1, 1))
        data["n"] = True
        with pytest.raises(SpecFileError) as err:
            load_spec_dict(data)
        assert err.value.where == "$.n"

    @pytest.mark.parametrize(
        "data, where",
        [
            ({"builder": "torus", "n": 2, "mm": 3}, "$.mm"),
            ({"builder": "example1", "a": [1], "n": 1}, "$.n"),
            ({"builder": "example2_n1", "A": [[2, 1], [1, 1]], "schema_version": 1},
             "$.schema_version"),
        ],
        ids=["torus_mm", "example1_foreign_parameter", "builder_schema_version"],
    )
    def test_unknown_builder_key(self, data, where):
        with pytest.raises(SpecFileError) as err:
            load_spec_dict(data)
        assert err.value.where == where

    def test_unknown_top_level_key(self):
        data = spec_to_dict(sh.example2_n1([[2, 1], [1, 1]]))
        data["lattice_fibre"] = data.pop("lattice_fiber")
        with pytest.raises(SpecFileError) as err:
            load_spec_dict(data)
        assert err.value.where == "$.lattice_fibre"

    def test_unknown_symbol_key(self):
        data = spec_to_dict(sh.example1([1], "symbolic"))
        data["symbols"][2]["witness"] = 1.0
        with pytest.raises(SpecFileError) as err:
            load_spec_dict(data)
        assert err.value.where == "$.symbols[2].witness"

    @pytest.mark.parametrize("name", ["x", "one", "pi"])
    def test_repeated_symbol(self, name):
        value = {"x": 2.0, "one": 1.0, "pi": math.pi}[name]
        data = spec_to_dict(sh.torus(1, 1))
        data["symbols"] = [{"name": name, "value": value}] * 2
        with pytest.raises(SpecFileError) as err:
            load_spec_dict(data)
        assert str(err.value) == f"$.symbols[1]: symbol {name!r} already declared"

    def test_witness_must_not_be_bool(self):
        data = spec_to_dict(sh.example1([1], "symbolic"))
        index = next(i for i, entry in enumerate(data["symbols"]) if entry["name"] == "t")
        data["symbols"][index]["value"] = True
        with pytest.raises(SpecFileError) as err:
            load_spec_dict(data)
        assert err.value.where == f"$.symbols[{index}].value"


class TestAnalyze:
    def test_example1_report(self):
        report = analyze(sh.example1([1], "symbolic"))
        hodge = tuple(map(tuple, report["hodge"]))
        assert hodge == ((1, 1, 1, 1), (1, 3, 3, 1), (1, 3, 3, 1), (1, 1, 1, 1))
        assert tuple(report["betti"]) == (1, 2, 5, 8, 5, 2, 1)
        assert report["condition"]["holds"]
        assert report["symmetry"] and report["serre"]
        assert report["wedge_closure"] and report["harmonic_certified"]
        assert report["kaehler"]["status"] == "obstructed"
        assert report["mode"] == "exact"

    def test_file_matches_in_memory(self, tmp_path):
        path = tmp_path / "ex1.json"
        emit_example("example1", {"a": [1], "t_mode": "symbolic"}, path)
        assert report_canon(analyze(path)) == report_canon(analyze(sh.example1([1], "symbolic")))

    def test_skip_forms(self):
        report = analyze(sh.torus(1, 1), skip_forms=True)
        assert report["wedge_closure"] is None and report["harmonic_certified"] is None

    def test_float_mode_flag(self):
        report = analyze(sh.torus(1, 1), force_float=True, skip_forms=True)
        assert report["mode"] == "float_fallback"

    def test_forms_cap_raises(self):
        # a forced-float run always walks its pairs for wedge closure
        with pytest.raises(sh.DimensionCapExceeded, match="exceeds the forms cap 6"):
            analyze(sh.torus(4, 3), force_float=True)

    def test_forms_cap_checked_before_any_work(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise RuntimeError("work started before the forms cap was checked")

        monkeypatch.setattr(cli, "validate", refuse)
        monkeypatch.setattr(cli, "sweep_trivial_pairs", refuse)
        with pytest.raises(sh.DimensionCapExceeded):
            analyze(sh.torus(4, 3), force_float=True)

    def test_harmonic_rows_refuse_past_forms_cap(self):
        # one row per basis monomial, 4^7 of them here
        spec = sh.torus(3, 4)
        with pytest.raises(sh.DimensionCapExceeded, match="exceeds the forms cap 6"):
            harmonic_rows(spec, sweep_trivial_pairs(spec))

    @pytest.mark.parametrize(
        "spec", [sh.torus(3, 4), sh.example1([1, 2, 3], "symbolic")], ids=lambda s: s.name
    )
    def test_certified_sweep_past_forms_cap_gets_full_report(self, spec):
        # a certified sweep is wedge-closed with no pair walk, so n + m = 7 needs no cap
        report = analyze(spec)
        assert spec.complex_dim == 7 and report["mode"] == "exact"
        assert report["wedge_closure"] is True and report["harmonic_certified"] is True
        assert not failed_checks(report)

    def test_lone_expanding_character_is_not_harmonic(self):
        report = analyze(lone_expanding_character())
        assert report["harmonic_certified"] is False
        assert "harmonicity" in failed_checks(report)

    @pytest.mark.parametrize(
        "path, value, failed",
        [
            (("validation", "lattice_rank_ok"), False, ["lattice_rank"]),
            (("validation", "fiber_preserved"), "violated", ["fiber_preservation"]),
            (("validation", "fiber_preserved"), "undecided", []),
            (("symmetry",), False, ["symmetry"]),
            (("wedge_closure",), False, ["wedge_closure"]),
            (("wedge_closure",), None, []),
        ],
        ids=[
            "lattice_rank", "fiber_violated", "fiber_undecided", "symmetry", "wedge_closure", "skipped_forms"
        ],
    )
    def test_failed_checks_names_each_failure(self, path, value, failed):
        record = analyze(sh.torus(1, 1))
        assert failed_checks(record) == []
        *parents, key = path
        node = record
        for parent in parents:
            node = node[parent]
        node[key] = value
        assert failed_checks(record) == failed

    def test_rows_agree_with_coclosed_mask(self):
        for spec in corpus_specs() + [lone_expanding_character()]:
            rows = harmonic_rows(spec, sweep_trivial_pairs(spec))
            co_closed = all(row["co_closed"] for row in rows)
            assert co_closed == (coclosed_mask(spec) == 0) == spec.is_unimodular, spec.name

    @settings(derandomize=True, database=None, max_examples=60, deadline=None)
    @given(drawn_specs())
    def test_unimodular_is_coclosure_on_drawn_characters(self, drawn):
        # c = b(P) + conj(a(P)) for the product P of the characters: 0 exactly when P is unitary
        spec, closed = drawn
        assert spec.is_unimodular == (coclosed_mask(spec) == 0)
        assert spec.is_unimodular or not closed

    def test_rational_pi_still_passes_checks(self):
        report = analyze(sh.example1([1], "rational_pi(1,1)"))
        assert not report["condition"]["holds"]
        assert not report["certified_de_rham"]
        assert report["symmetry"] and report["serre"]
        assert report["harmonic_certified"] and report["wedge_closure"]


class TestCli:
    def run(self, *argv):
        return main(list(argv))

    def test_closed_stdout_exits_141_without_a_diagnostic(self, tmp_path):
        # about 250 kB of rows, past a pipe's buffer: the command is still writing when
        # the reader closes the pipe after one line, as `| head -1` does
        path = tmp_path / "t.json"
        save_spec(sh.torus(2, 3), path)
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
        argv = [sys.executable, "-m", "solvhodge.cli", "check-harmonic", str(path), "--format", "json"]
        with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
            assert proc.stdout.readline() == b"{\n"
            proc.stdout.close()
            assert proc.wait(timeout=60) == EXIT_BROKEN_PIPE == 141
            assert proc.stderr.read() == b""

    @pytest.mark.parametrize("redirect", ["2>&-", "2</dev/null"], ids=["closed", "read_only"])
    def test_unwritable_stderr_keeps_the_exit_code(self, tmp_path, redirect):
        # with standard error closed Python has no sys.stderr, and read-only it refuses the write;
        # either way the diagnostic is lost, and neither the exit code nor stdout changes; argparse's
        # usage errors included, whose usage text would otherwise fall back to stdout
        big = tmp_path / "big.json"
        big.write_text(json.dumps({"builder": "torus", "n": 13, "m": 0}))
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
        cases = [
            (["analyze", str(tmp_path / "missing.json")], EXIT_MALFORMED),
            (["analyze", str(big)], EXIT_TOO_LARGE),
            (["analyze"], EXIT_MALFORMED),
            (["analyze", "--bogus", str(big)], EXIT_MALFORMED),
            (["analyze", "--format", "yaml", str(big)], EXIT_MALFORMED),
            (["frobnicate"], EXIT_MALFORMED),
        ]
        for args, code in cases:
            command = f'exec "$@" {redirect}'
            argv = ["sh", "-c", command, "sh", sys.executable, "-m", "solvhodge.cli", *args]
            done = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=60)
            assert (done.returncode, done.stdout) == (code, ""), (args, done.stderr)

    def test_analyze_ok(self, tmp_path, capsys):
        path = tmp_path / "t.json"
        save_spec(sh.torus(1, 1), path)
        assert self.run("analyze", str(path)) == EXIT_OK
        out = capsys.readouterr().out
        assert "hodge table" in out

    def test_analyze_json_deterministic(self, tmp_path, capsys):
        path = tmp_path / "e.json"
        save_spec(sh.example1([1], "symbolic"), path)
        outputs = []
        for _ in range(2):
            assert self.run("analyze", str(path), "--format", "json") == EXIT_OK
            data = json.loads(capsys.readouterr().out)
            assert data["schema_version"] == 1
            data.pop("timings_ms")
            outputs.append(json.dumps(data, sort_keys=False))
        assert outputs[0] == outputs[1]

    def test_analyze_latex(self, tmp_path, capsys):
        path = tmp_path / "t.json"
        save_spec(sh.torus(1, 1), path)
        assert self.run("analyze", str(path), "--format", "latex") == EXIT_OK
        out = capsys.readouterr().out
        assert out.startswith("% torus_1_1")
        assert "\\begin{tabular}" in out

    def test_malformed_file_exit_2(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{nope")
        assert self.run("analyze", str(path)) == EXIT_MALFORMED
        assert "line 1" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["analyze", "check-harmonic"])
    def test_foreign_schema_version_exit_2(self, tmp_path, capsys, command):
        path = tmp_path / "future.json"
        path.write_text(json.dumps({**spec_to_dict(sh.torus(1, 1)), "schema_version": 99}))
        assert self.run(command, str(path)) == EXIT_MALFORMED
        assert "$.schema_version" in capsys.readouterr().err

    @pytest.mark.parametrize("literal", [5, 0, "1", [], None], ids=repr)
    def test_non_object_scalar_exit_2(self, tmp_path, capsys, literal):
        data = spec_to_dict(sh.torus(1, 1))
        data["lattice"][0][0]["re"] = literal
        path = tmp_path / "scalar.json"
        path.write_text(json.dumps(data))
        assert self.run("analyze", str(path)) == EXIT_MALFORMED
        assert capsys.readouterr() == ("", "error: $.lattice[0][0].re: scalar literal must be an object\n")

    def test_unknown_complex_field_exit_2(self, tmp_path, capsys):
        data = spec_to_dict(sh.torus(1, 1))
        data["lattice"][1][0]["imag"] = {"one": "1"}
        path = tmp_path / "complex.json"
        path.write_text(json.dumps(data))
        assert self.run("analyze", str(path)) == EXIT_MALFORMED
        assert capsys.readouterr() == ("", "error: $.lattice[1][0]: unknown complex fields ['imag']\n")

    def test_missing_file_exit_2(self, tmp_path):
        assert self.run("analyze", str(tmp_path / "absent.json")) == EXIT_MALFORMED

    def test_too_large_exit_3(self, tmp_path, capsys):
        path = tmp_path / "big.json"
        save_spec(sh.torus(4, 3), path)
        for command in (["analyze", "--float"], ["check-harmonic"]):
            assert self.run(command[0], str(path), *command[1:]) == EXIT_TOO_LARGE
            assert capsys.readouterr() == (
                "", "error: dimension 7 exceeds the forms cap 6 (use --skip-forms with analyze)\n"
            )
        assert self.run("analyze", str(path), "--float", "--skip-forms") == EXIT_OK
        capsys.readouterr()

    def test_escaping_sweep_past_forms_cap_exit_3(self, tmp_path, capsys):
        # symbolic exponents and lattice: the sweep leaves the exact layer, so closure needs the walk
        exponents = (1, -1, 2, -2, 3, -3)
        path = tmp_path / "scaled.json"
        path.write_text(json.dumps(symbolic_scale_data(
            m=6, alphas=[{"real_exp": [{"s": str(v)}]} for v in exponents]
        )))
        assert self.run("analyze", str(path)) == EXIT_TOO_LARGE
        assert capsys.readouterr() == (
            "", "error: dimension 7 exceeds the forms cap 6 (use --skip-forms with analyze)\n"
        )
        assert self.run("analyze", str(path), "--skip-forms", "--format", "json") == EXIT_OK
        assert json.loads(capsys.readouterr().out)["mode"] == "float_fallback"

    @pytest.mark.parametrize("command", ["analyze", "check-harmonic"])
    def test_max_dim_is_not_an_option(self, tmp_path, capsys, command):
        path = tmp_path / "t.json"
        save_spec(sh.torus(1, 1), path)
        with pytest.raises(SystemExit) as exc:
            self.run(command, str(path), "--max-dim", "7")
        assert exc.value.code == EXIT_MALFORMED
        assert capsys.readouterr().out == ""
        with pytest.raises(TypeError):
            analyze(sh.torus(1, 1), max_dim=7)

    def test_fiber_cap_exit_3(self, tmp_path, capsys):
        path = tmp_path / "fiber.json"
        save_spec(oversized_torus(0, 13), path)
        assert self.run("analyze", str(path), "--skip-forms") == EXIT_TOO_LARGE
        capsys.readouterr()

    def test_check_harmonic_counting_cap_exit_3(self, tmp_path, monkeypatch, capsys):
        # the counting cap comes first, so m = 12 never reaches a 4^12 pair sweep
        def refuse(*args, **kwargs):
            raise RuntimeError("the pair sweep started before the counting cap was checked")

        for module in (cli, cohomology, report):
            monkeypatch.setattr(module, "sweep_trivial_pairs", refuse, raising=False)
        path = tmp_path / "wide.json"
        save_spec(oversized_torus(1, 12), path)
        assert self.run("check-harmonic", str(path)) == EXIT_TOO_LARGE
        assert "counting cap" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["analyze", "check-harmonic"])
    def test_torus_node_refused_before_build(self, tmp_path, monkeypatch, capsys, command):
        # the lattices of a torus node grow as n^2 + m^2, so the cap comes first
        def refuse(*args, **kwargs):
            raise RuntimeError("the torus lattice was built before the counting cap was checked")

        monkeypatch.setattr(manifold, "_standard_lattice", refuse)
        path = tmp_path / "node.json"
        path.write_text(json.dumps({"builder": "torus", "n": 6, "m": 7}))
        assert self.run(command, str(path)) == EXIT_TOO_LARGE
        assert "counting cap" in capsys.readouterr().err

    def test_emit_torus_past_counting_cap_exit_3(self, capsys):
        assert self.run("emit-example", "torus", "--n", "13") == EXIT_TOO_LARGE
        out, err = capsys.readouterr()
        assert out == "" and "counting cap" in err

    @pytest.mark.parametrize("out", [False, True], ids=["stdout", "out_file"])
    def test_emit_example1_past_counting_cap_exit_3(self, tmp_path, capsys, out):
        path = tmp_path / "ex7.json"
        args = ["emit-example", "example1", "--a", "1", "2", "3", "4", "5", "6", "7"]
        assert self.run(*args, *(["--out", str(path)] if out else [])) == EXIT_TOO_LARGE
        assert capsys.readouterr() == ("", "error: dimension 15 exceeds the counting cap 12\n")
        assert not path.exists()

    @pytest.mark.parametrize("command", ["analyze", "check-harmonic"])
    def test_example1_node_refused_before_build(self, tmp_path, monkeypatch, capsys, command):
        def refuse(*args, **kwargs):
            raise RuntimeError("example1 read its t_mode before the counting cap was checked")

        monkeypatch.setattr(manifold, "_parse_t_mode", refuse)
        path = tmp_path / "node.json"
        path.write_text(json.dumps({"builder": "example1", "a": list(range(1, 20001))}))
        assert self.run(command, str(path)) == EXIT_TOO_LARGE
        assert "dimension 40001 exceeds the counting cap" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "node, code, err",
        [
            # the cap comes before example1's nonzero check, and after torus's sign check
            ({"builder": "example1", "a": [0] * 7}, EXIT_TOO_LARGE,
             "error: dimension 15 exceeds the counting cap 12\n"),
            ({"builder": "torus", "n": -1, "m": 14}, EXIT_MALFORMED,
             "error: $: builder 'torus' rejected its parameters: need n, m >= 0 with n + m >= 1\n"),
        ],
        ids=["example1_zero_exponents", "torus_negative_n"],
    )
    def test_builder_node_error_order(self, tmp_path, capsys, node, code, err):
        path = tmp_path / "node.json"
        path.write_text(json.dumps(node))
        assert self.run("analyze", str(path)) == code
        assert capsys.readouterr() == ("", err)

    @pytest.mark.parametrize(
        "node, missing",
        [
            ({"builder": "torus", "m": 1}, "n"),
            ({"builder": "torus", "n": 1}, "m"),
            ({"builder": "torus"}, "n"),
            ({"builder": "example1"}, "a"),
            ({"builder": "example1", "t_mode": "symbolic"}, "a"),
            ({"builder": "example2_n1"}, "A"),
        ],
        ids=["torus_n", "torus_m", "torus_both", "example1_a", "example1_a_with_t_mode", "example2_n1_A"],
    )
    def test_builder_node_missing_parameter_exit_2(self, tmp_path, capsys, node, missing):
        path = tmp_path / "node.json"
        path.write_text(json.dumps(node))
        assert self.run("analyze", str(path)) == EXIT_MALFORMED
        assert capsys.readouterr() == ("", f'error: $: missing required field "{missing}"\n')

    def test_explicit_file_refused_before_parsing(self):
        # the alphas and lattice are never read, so their defects go unreported
        data = {"name": "wide", "n": 6, "m": 7, "alphas": "not read", "lattice": None}
        with pytest.raises(model.DimensionCapExceeded, match="dimension 13 exceeds the counting cap"):
            load_spec_dict(data)

    @pytest.mark.parametrize(
        "patch, where",
        [
            ({"symbols": [{"name": "s", "value": 10**400}]}, "$.symbols[0].value"),
            ({"lattice": [[{"re": {"one": "1" + "0" * 400}}], [{"im": {"one": "1"}}]]},
             "$.lattice[0][0].re"),
            ({"alphas": [{"real_exp": [{"s": "1" + "0" * 400}]}]}, "$.alphas[0].real_exp[0]"),
        ],
        ids=["witness", "lattice_entry", "real_exp"],
    )
    def test_float_overflow_at_load_exit_2(self, tmp_path, capsys, patch, where):
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(symbolic_scale_data(**patch)))
        assert self.run("analyze", str(path), "--skip-forms") == EXIT_MALFORMED
        err = capsys.readouterr().err
        assert err.startswith(f"error: {where}:") and err.count("\n") == 1

    def test_float_gate_refuses_an_overflowed_exponent(self, tmp_path, capsys):
        # finite witnesses and literals whose product overflows at the generator i*t*10^200
        big = "1" + "0" * 200
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps(symbolic_scale_data(
            alphas=[{"real_exp": [{"s": big}]}],
            lattice=[[{"re": {"one": "1"}}], [{"im": {"t": big}}]],
        )))
        # only ((), ()) is admitted, so Serre duality fails: exit 1 with a full report
        assert self.run("analyze", str(path), "--skip-forms", "--format", "json") == EXIT_CHECK_FAILED
        data = json.loads(capsys.readouterr().out)
        assert data["mode"] == "float_fallback"
        assert data["hodge"] == [[1, 1, 0], [1, 1, 0], [0, 0, 0]]

    def test_failed_certificate_exit_1(self, tmp_path, capsys):
        # single expanding character over the Gaussian lattice: the fiber is
        # not preserved and the basis is not co-closed, both must flag
        table = sh.SymbolTable.base()
        spec = sh.SolvManifoldSpec(
            name="expanding",
            n=1,
            m=1,
            alphas=(sh.CharacterExponent.from_real_exponent([2]),),
            lattice=sh.torus(1, 1).lattice,
            lattice_fiber=sh.torus(1, 1).lattice_fiber,
            symbols=table,
        )
        path = tmp_path / "expanding.json"
        save_spec(spec, path)
        assert self.run("analyze", str(path)) == EXIT_CHECK_FAILED
        capsys.readouterr()

    def test_not_harmonic_exit_1(self, tmp_path, capsys):
        path = tmp_path / "lone.json"
        save_spec(lone_expanding_character(), path)
        assert self.run("analyze", str(path)) == EXIT_CHECK_FAILED
        assert "harmonic basis certified: NO" in capsys.readouterr().out

    def test_coerced_number_exit_2(self, tmp_path, capsys):
        path = tmp_path / "float_exponent.json"
        path.write_text(json.dumps({"builder": "example1", "a": [1.5, -2]}))
        assert self.run("analyze", str(path)) == EXIT_MALFORMED
        assert "$.a[0]" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["analyze", "check-harmonic"])
    def test_directory_exit_2(self, tmp_path, capsys, command):
        assert self.run(command, str(tmp_path)) == EXIT_MALFORMED
        assert capsys.readouterr().err.startswith("error:")

    def test_not_utf8_exit_2(self, tmp_path, capsys):
        path = tmp_path / "utf16.json"
        path.write_bytes(b"\xff\xfe" + '{"builder": "torus"}'.encode("utf-16-le"))
        assert self.run("analyze", str(path)) == EXIT_MALFORMED
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize(
        "text",
        ["[" * 100_000, '{"builder": "example1", "a": ' + "[" * 1200 + "]" * 1200 + "}"],
        ids=["unclosed", "deep_builder_parameter"],
    )
    def test_deep_nesting_exit_2(self, tmp_path, capsys, text):
        path = tmp_path / "deep.json"
        path.write_text(text)
        assert self.run("analyze", str(path)) == EXIT_MALFORMED
        assert capsys.readouterr().err.startswith("error:")

    def test_integer_past_digit_limit_exit_2(self, tmp_path, capsys):
        # json.loads raises a plain ValueError for an integer literal longer
        # than the interpreter's int-string conversion limit (4,300 digits)
        path = tmp_path / "huge.json"
        path.write_text('{"builder": "torus", "n": ' + "9" * 5000 + "}")
        assert self.run("analyze", str(path)) == EXIT_MALFORMED
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert len(err) < 200, err

    @pytest.mark.parametrize(
        "data",
        [
            {"builder": "[" * 1200 + "]" * 1200},
            {"builder": '"' + "x" * 3000 + '"'},
            {"builder": '"example1"', "a": "[1]", "t_mode": '"' + "y" * 3000 + '"'},
            {"builder": '"torus"', "z" * 3000: "1"},
            {"name": '"x"', "n": "1", "m": "0", "alphas": "[]",
             "lattice": '[[{"re": {"one": "' + "9" * 3000 + '."}}], [{"im": {"one": "1"}}]]'},
            {"name": '"x"', "n": "1", "m": "0", "alphas": "[]",
             "lattice": '[[{"re": {"' + "q" * 3000 + '": "1"}}], [{"im": {"one": "1"}}]]'},
            {"name": '"x"', "n": "1", "m": "0", "alphas": "[]", "lattice": "[[{}], [{}]]",
             "symbols": '[{"name": "' + "s" * 3000 + '", "value": 2}, {"name": "' + "s" * 3000
             + '", "value": 3}]'},
            {"name": json.dumps("a\n\\end{tabular}"), "n": "1", "m": "0", "alphas": "[]",
             "lattice": '[[{"re": {"one": "1"}}], [{"im": {"one": "1"}}]]'},
        ],
        ids=["deep_builder", "long_builder", "long_t_mode", "long_field", "long_literal",
             "long_symbol", "repeated_long_symbol", "name_line_break"],
    )
    def test_echoed_value_is_capped_exit_2(self, tmp_path, capsys, data):
        path = tmp_path / "long.json"
        path.write_text("{" + ", ".join(f'"{key}": {value}' for key, value in data.items()) + "}")
        assert self.run("analyze", str(path)) == EXIT_MALFORMED
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error:") and err.count("\n") == 1
        assert len(err) < 200, err

    def test_short_echo_unchanged(self):
        with pytest.raises(SpecFileError) as err:
            load_spec_dict({"builder": "moebius"})
        assert str(err.value) == "$.builder: unknown builder 'moebius'"

    def test_emit_out_directory_exit_2(self, tmp_path, capsys):
        assert self.run("emit-example", "torus", "--out", str(tmp_path)) == EXIT_MALFORMED
        assert capsys.readouterr().err.startswith("error:")

    def test_emit_round_trip(self, tmp_path, capsys):
        path = tmp_path / "em.json"
        code = self.run(
            "emit-example", "example2_n1", "--matrix", "2", "1", "1", "1", "--out", str(path)
        )
        assert code == EXIT_OK
        assert load_spec(path) == sh.example2_n1([[2, 1], [1, 1]])
        capsys.readouterr()

    def test_emit_to_stdout(self, capsys):
        assert self.run("emit-example", "torus", "--n", "2", "--m", "1") == EXIT_OK
        data = json.loads(capsys.readouterr().out)
        assert load_spec_dict(data) == sh.torus(2, 1)

    def test_emit_rational_pi(self, tmp_path, capsys):
        path = tmp_path / "pi.json"
        code = self.run(
            "emit-example", "example1", "--a", "1", "--t-mode", "rational_pi(1,1)",
            "--out", str(path),
        )
        assert code == EXIT_OK
        assert load_spec(path) == sh.example1([1], "rational_pi(1,1)")
        capsys.readouterr()

    def test_emit_rejects_bad_parameters(self, capsys):
        assert self.run("emit-example", "example1", "--a", "0") == EXIT_MALFORMED
        capsys.readouterr()

    @pytest.mark.parametrize("node, argv, err", PAST_FLOAT_RANGE, ids=PAST_FLOAT_RANGE_IDS)
    def test_builder_past_float_range_exit_2(self, tmp_path, capsys, node, argv, err):
        path = tmp_path / "node.json"
        path.write_text(json.dumps(node))
        assert self.run("analyze", str(path)) == EXIT_MALFORMED
        assert capsys.readouterr() == ("", err)

    @pytest.mark.parametrize("node, argv, err", PAST_FLOAT_RANGE, ids=PAST_FLOAT_RANGE_IDS)
    def test_emit_past_float_range_exit_2(self, tmp_path, capsys, node, argv, err):
        path = tmp_path / "out.json"
        assert self.run("emit-example", *argv, "--out", str(path)) == EXIT_MALFORMED
        assert capsys.readouterr() == ("", err)
        assert not path.exists()

    def test_check_harmonic_text(self, tmp_path, capsys):
        path = tmp_path / "e.json"
        save_spec(sh.example1([1], "symbolic"), path)
        assert self.run("check-harmonic", str(path)) == EXIT_OK
        out = capsys.readouterr().out
        assert "dbar_closed=True" in out
        assert "all dbar-harmonic: True" in out

    def test_check_harmonic_resonant_flags(self, tmp_path, capsys):
        # in the resonant lattice the twisted pairs stay dbar-harmonic but
        # lose d-harmonicity; the rows must show both facts
        path = tmp_path / "pi.json"
        save_spec(sh.example1([1], "rational_pi(1,1)"), path)
        assert self.run("check-harmonic", str(path), "--format", "json") == EXIT_OK
        data = json.loads(capsys.readouterr().out)
        assert data["all_dbar_harmonic"] is True
        twisted = [el for el in data["elements"] if el["J"] == [1] and el["L"] == [1]]
        assert twisted and all(not el["d_harmonic"] for el in twisted)
        assert all(el["dbar_closed"] and el["co_closed"] for el in data["elements"])

    def test_check_harmonic_not_harmonic_exit_1(self, tmp_path, capsys):
        path = tmp_path / "lone.json"
        save_spec(lone_expanding_character(), path)
        assert self.run("check-harmonic", str(path)) == EXIT_CHECK_FAILED
        assert "all dbar-harmonic: False" in capsys.readouterr().out
        assert self.run("check-harmonic", str(path), "--format", "json") == EXIT_CHECK_FAILED
        out = capsys.readouterr().out
        assert '"all_dbar_harmonic": false' in out
        assert any(not el["co_closed"] for el in json.loads(out)["elements"])

    def test_check_harmonic_json(self, tmp_path, capsys):
        path = tmp_path / "e.json"
        save_spec(sh.torus(1, 1), path)
        assert self.run("check-harmonic", str(path), "--format", "json") == EXIT_OK
        data = json.loads(capsys.readouterr().out)
        assert data["schema_version"] == 1
        assert len(data["elements"]) == 16
        assert data["all_dbar_harmonic"] is True

    def test_version(self, capsys):
        assert self.run("version") == EXIT_OK
        assert capsys.readouterr().out.strip() == f"solvhodge {sh.__version__}"

    def test_version_as_module(self):
        assert smoke.VERSION == sh.__version__
        assert smoke.run_from_source(smoke.VERSION_TEXT) == 0

    def test_version_json(self, capsys):
        assert self.run("version", "--format", "json") == EXIT_OK
        data = json.loads(capsys.readouterr().out)
        assert data == {"schema_version": 1, "name": "solvhodge", "version": sh.__version__}


class TestCliPrintsLibraryRecord:
    """Each command prints the record its library function returns, untranslated."""

    @pytest.mark.parametrize(
        "flags", [(), ("--skip-forms",), ("--float",)], ids=["plain", "skip-forms", "float"]
    )
    def test_analyze(self, tmp_path, capsys, flags):
        options = {"skip_forms": "--skip-forms" in flags, "force_float": "--float" in flags}
        for index, spec in enumerate(corpus_specs()):
            path = tmp_path / f"{index}.json"
            save_spec(spec, path)
            record = analyze(path, **options)
            code = EXIT_CHECK_FAILED if failed_checks(record) else EXIT_OK
            printed = {}
            for fmt in ("json", "text", "latex"):
                assert main(["analyze", str(path), "--format", fmt, *flags]) == code, spec.name
                printed[fmt] = capsys.readouterr().out
            data = json.loads(printed["json"])
            assert data["timings_ms"].keys() == record["timings_ms"].keys(), spec.name
            assert report_canon(data) == report_canon(record), spec.name
            assert printed["text"] == render_text(record), spec.name
            assert printed["latex"] == render_latex(record), spec.name

    def test_check_harmonic(self, tmp_path, capsys):
        for index, spec in enumerate(corpus_specs()):
            path = tmp_path / f"{index}.json"
            save_spec(spec, path)
            sweep = sweep_trivial_pairs(spec)
            record = harmonic_rows_json(spec.name, sweep, harmonic_rows(spec, sweep))
            code = EXIT_OK if record["all_dbar_harmonic"] else EXIT_CHECK_FAILED
            assert main(["check-harmonic", str(path), "--format", "json"]) == code, spec.name
            assert json.loads(capsys.readouterr().out) == record, spec.name
            assert main(["check-harmonic", str(path)]) == code, spec.name
            assert capsys.readouterr().out == render_harmonic_text(record), spec.name


PINNED = Path(__file__).parent / "pinned"


class TestPinnedRecords:
    """Complete printed records, held as literal text so that key order, ``mode``,
    ``checked_pairs`` and the violation ``reason`` cannot drift with the code that
    both prints and checks them."""

    @pytest.mark.parametrize(
        "spec, options, pinned",
        [
            (sh.example1([1], "rational_pi(1,1)"), {}, "example1_1_pi_1_1.analyze.json"),
            (sh.torus(1, 1), {"skip_forms": True}, "torus_1_1.analyze_skip_forms.json"),
            (sh.example1([1, 2]), {"force_float": True}, "example1_1_2.analyze_float.json"),
        ],
        ids=["rational_pi_violations", "torus_skip_forms", "forced_float"],
    )
    def test_analyze_record(self, spec, options, pinned):
        record = report_canon(analyze(spec, **options))
        assert json.dumps(record, indent=2) + "\n" == (PINNED / pinned).read_text()

    def test_check_harmonic_record(self, tmp_path, capsys):
        path = tmp_path / "t.json"
        save_spec(sh.torus(1, 1), path)
        assert main(["check-harmonic", str(path), "--format", "json"]) == EXIT_OK
        assert capsys.readouterr().out == (PINNED / "torus_1_1.check_harmonic.json").read_text()
