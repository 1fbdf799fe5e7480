"""What the benchmark reads of the package, held in Tier-1.

``perfbench/oracle.py`` answers example1, torus, example2_n1 and
symbolic-scale specs, exact or on float witnesses, in plain integers,
sharing no code with solvhodge; its :func:`check` must find no problem in
any report ``analyze`` gives.  The float-regime and example2_n1 cases are
drawn with the generators of ``perfbench/corpus.py``, and their reports
must also give every field of ``reference.report``; each of their specs is
unimodular exactly when the reference certifies its basis harmonic.
``perfbench/tracer.py`` names package functions by their qualified names;
each name must still resolve, or its per-layer timings silently read 0.
The three files are loaded by path, and none is edited here.
"""

import importlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import solvhodge as sh
from solvhodge.cli import analyze, emit_example
from solvhodge.cohomology import hodge_table, sweep_trivial_pairs
from solvhodge.specfile import load_spec_dict, spec_to_dict

import reference
from conftest import load_perfbench, scaled_draws

oracle = load_perfbench("oracle")
tracer = load_perfbench("tracer")
corpus = load_perfbench("corpus")


def manifest_item(
    family: str, params: dict, skip_forms: bool, force_float: bool = False, **oracle_params
) -> tuple[dict, dict, tuple]:
    """The spec's manifest item as the benchmark corpus writes it, its report, and the
    arguments of ``reference.report`` for the same run."""
    spec = emit_example(family, params, None)
    item = {
        "name": spec.name,
        "family": family,
        "forms": not skip_forms,
        "float_mode": force_float,
        **oracle_params,
    }
    report = analyze(spec, skip_forms=skip_forms, force_float=force_float)
    return item, report, (spec_to_dict(spec), force_float, skip_forms)


def example1_item(a: list[int], t, skip_forms: bool, force_float: bool = False) -> tuple[dict, dict, tuple]:
    t_mode = "symbolic" if t is None else f"rational_pi({t[0]},{t[1]})"
    return manifest_item(
        "example1", {"a": a, "t_mode": t_mode}, skip_forms, force_float,
        n=1, m=2 * len(a), a=a, t=None if t is None else list(t),
    )


def example2_item(matrix: tuple[int, int, int, int], skip_forms: bool) -> tuple[dict, dict, tuple]:
    a11, a12, a21, a22 = matrix
    return manifest_item(
        "example2_n1", {"A": [[a11, a12], [a21, a22]]}, skip_forms,
        n=1, m=2, a=[1], t=None, matrix=list(matrix),
    )


def scaled_item(a: list[int], s_witness: float, t_witness: float, skip_forms: bool) -> tuple[dict, dict, tuple]:
    """A symbolic-scale spec, whose exact gate escapes to floats at every non-trivial pair."""
    name = "scaled_" + "_".join(str(v) for v in a)
    data = corpus._scaled_spec(name, a, s_witness, t_witness)
    item = {
        "name": name, "family": "scaled", "forms": not skip_forms, "float_mode": True,
        "n": 1, "m": 2 * len(a), "a": a, "t": None,
    }
    return item, analyze(load_spec_dict(data), skip_forms=skip_forms), (data, False, skip_forms)


def torus_item(n: int, m: int, skip_forms: bool) -> tuple[dict, dict, tuple]:
    return manifest_item("torus", {"n": n, "m": m}, skip_forms, n=n, m=m)


nonzero = st.integers(-4, 4).filter(bool)
ratios = st.tuples(st.integers(-5, 5).filter(bool), st.integers(1, 5))
tori = st.tuples(st.integers(0, 4), st.integers(0, 4)).filter(lambda nm: 1 <= sum(nm) <= 4)
items = st.one_of(
    st.builds(example1_item, st.lists(nonzero, min_size=1, max_size=2), st.none() | ratios, st.booleans()),
    st.builds(lambda nm, skip: torus_item(*nm, skip), tori, st.booleans()),
)


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(items)
def test_integer_oracle_agrees(item_and_report):
    item, report, _ = item_and_report
    assert oracle.check(item, oracle.expected(item), report) == []


def float_regime_cases() -> list[tuple]:
    """(item builder, its arguments) of each case, drawn derandomized as the corpus draws them."""
    rng = random.Random("float regime")
    cases = [
        (scaled_item, (a, s_witness, t_witness, skip))
        for a, s_witness, t_witness in scaled_draws(corpus, rng)
        for skip in (True, False)
    ]
    taken: set = set()
    for k in (1, 2) * 3:
        a = corpus._draw(rng, k, False, taken)
        assert corpus._float_gate_decided(a, 1.0)  # at the builder's witness of t
        cases.append((example1_item, (a, None, k == 2, True)))
        cases.append((example1_item, (*corpus._draw(rng, k, False, taken, wrapping=True), k == 1, True)))
    for i, matrix in enumerate(rng.sample(corpus._hyperbolic_matrices(), 6)):
        cases.append((example2_item, (matrix, i % 2 == 0)))
    return cases


FLOAT_REGIME = float_regime_cases()


@pytest.mark.parametrize(
    "build, args", FLOAT_REGIME,
    ids=[f"{i:02d}-{build.__name__}" for i, (build, _) in enumerate(FLOAT_REGIME)],
)
def test_integer_oracle_agrees_on_float_runs_and_example2(build, args):
    item, report, reference_args = build(*args)
    assert oracle.check(item, oracle.expected(item), report) == []
    expected = reference.report(*reference_args)
    assert {key: report[key] for key in expected} == expected
    assert load_spec_dict(reference_args[0]).is_unimodular == reference.harmonic_certified(reference_args[0])


def test_oracle_catches_perturbed_reports():
    item, report, _ = example1_item([1], (1, 1), False)
    assert report["condition"]["violations"]
    assert oracle.selftest([item], [oracle.expected(item)], [report]) == []


# names of code that no longer exists, still listed by the tracer
STALE = {
    "solvhodge.cohomology.trivial_pairs",
    "solvhodge.forms.harmonic_wedge_closure",
    "solvhodge.forms.wedge_closure_report",
    "solvhodge.report.harmonic_rows",
}


def test_tracer_names_resolve():
    names = {tracer.SWEEP, tracer.HODGE, tracer.EXACT_TEST, tracer.FLOAT_TEST, tracer.ANALYZE}
    names |= set(tracer._BUCKETS) | set(tracer.STAGES)
    for short in tracer.MODULES:
        importlib.import_module(f"solvhodge.{short}")
    for module in tracer._MODULE_BUCKETS:
        importlib.import_module(module)
    for name in sorted(names - STALE):
        module, attr = name.rsplit(".", 1)
        function = getattr(importlib.import_module(module), attr, None)
        assert function is not None, name
        assert f"{function.__module__}.{function.__name__}" == name


def test_tracer_notes_read_their_results():
    spec = sh.example1([1], "rational_pi(1,1)")
    sweep = sweep_trivial_pairs(spec)
    table = hodge_table(spec, sweep)
    assert tracer._NOTES[tracer.SWEEP](sweep) == len(sweep.pairs) == 8
    assert tracer._NOTES[tracer.HODGE](table) == sum(sum(row) for row in table.h)
