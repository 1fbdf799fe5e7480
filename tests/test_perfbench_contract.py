"""What the benchmark reads of the package, held in Tier-1.

``perfbench/oracle.py`` answers example1 and torus specs in plain integers,
sharing no code with solvhodge; its :func:`check` must find no problem in
any report ``analyze`` gives.  ``perfbench/tracer.py`` names package
functions by their qualified names; each name must still resolve, or its
per-layer timings silently read 0.  Both files are loaded by path, and
neither is edited here.
"""

import importlib
import importlib.util
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

import solvhodge as sh
from solvhodge.cli import analyze, emit_example
from solvhodge.cohomology import hodge_table, sweep_trivial_pairs

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


oracle = load("oracle")
tracer = load("tracer")


def manifest_item(family: str, params: dict, skip_forms: bool, **oracle_params) -> tuple[dict, dict]:
    """The spec's manifest item as the benchmark corpus writes it, and its report."""
    spec = emit_example(family, params, None)
    item = {
        "name": spec.name,
        "family": family,
        "forms": not skip_forms,
        "float_mode": False,
        **oracle_params,
    }
    return item, analyze(spec, skip_forms=skip_forms)


def example1_item(a: list[int], t, skip_forms: bool) -> tuple[dict, dict]:
    t_mode = "symbolic" if t is None else f"rational_pi({t[0]},{t[1]})"
    return manifest_item(
        "example1", {"a": a, "t_mode": t_mode}, skip_forms,
        n=1, m=2 * len(a), a=a, t=None if t is None else list(t),
    )


def torus_item(n: int, m: int, skip_forms: bool) -> tuple[dict, dict]:
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
    item, report = item_and_report
    assert oracle.check(item, oracle.expected(item), report) == []


def test_oracle_catches_perturbed_reports():
    item, report = example1_item([1], (1, 1), False)
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
