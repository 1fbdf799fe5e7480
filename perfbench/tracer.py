"""Spans at solvhodge's module boundaries, recorded from outside the package.

:func:`install` rebinds every public function that a solvhodge module holds
as a global (its own, or one imported from a sibling module) to a wrapper
that records one span per call.  A span is named after the importing
module, as in ``solvhodge.cli.hodge_table`` or
``solvhodge.cohomology.is_trivial_on_lattice``, because that is the name
the caller looks up.  Each span keeps its start, end, parent span and the
index of the spec being analyzed.  The arithmetic layer is too fine for
spans: calls to ``ExactScalar`` add, mul and make and to the form wedge are
only counted.  Spans stay in memory until the run ends.

:func:`layer_metrics` derives the per-layer figures from the spans.  It
runs in the benchmark's parent process and imports nothing from solvhodge.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import Counter, defaultdict

MODULES = ("specfile", "manifold", "cohomology", "characters", "exact", "forms", "report", "kahler", "cli")

SWEEP = "solvhodge.cohomology.sweep_trivial_pairs"
HODGE = "solvhodge.cohomology.hodge_table"
EXACT_TEST = "solvhodge.characters.is_trivial_on_lattice"
FLOAT_TEST = "solvhodge.characters.is_trivial_on_lattice_float"
ANALYZE = "solvhodge.cli.analyze"
ESCAPE = "SymbolProductUnrepresentable"

# What a span keeps of its result, besides its times.
_NOTES = {
    SWEEP: len,
    HODGE: lambda table: sum(map(sum, table.rows())),
}

# Time buckets.  A span of a listed function opens its bucket; every other
# span, and a call into the same module from inside a bucket (betti_numbers
# recomputing hodge_table, say), is charged to the bucket of its caller.
_BUCKETS = {
    ANALYZE: "cli.other",
    "solvhodge.manifold.validate": "manifold.validate",
    SWEEP: "cohomology.sweep",
    "solvhodge.cohomology.trivial_pairs": "cohomology.sweep",
    EXACT_TEST: "characters.lattice",
    FLOAT_TEST: "characters.lattice",
    HODGE: "cohomology.hodge",
    "solvhodge.cohomology.check_condition": "cohomology.condition",
    "solvhodge.cohomology.hodge_symmetry": "cohomology.symmetry",
    "solvhodge.cohomology.conjugation_symmetry": "cohomology.symmetry",
    "solvhodge.cohomology.serre_duality_check": "cohomology.symmetry",
    "solvhodge.cohomology.betti_numbers": "cohomology.betti",
    "solvhodge.forms.wedge_closure_report": "forms.wedge_closure",
    "solvhodge.forms.harmonic_wedge_closure": "forms.wedge_closure",
    "solvhodge.report.harmonic_rows": "report.harmonic_rows",
    "solvhodge.kahler.kaehler_obstruction": "kahler",
}
_MODULE_BUCKETS = {"solvhodge.specfile": "specfile.load", "solvhodge.report": "report.render"}
ROOT_BUCKET = "outside"

# Stages of the report's own timings_ms block and the spans that cover them.
STAGES = {
    "solvhodge.manifold.validate": "validate",
    SWEEP: "pairs",
    HODGE: "hodge",
    "solvhodge.cohomology.check_condition": "condition",
    "solvhodge.cohomology.hodge_symmetry": "symmetry",
    "solvhodge.cohomology.conjugation_symmetry": "symmetry",
    "solvhodge.cohomology.betti_numbers": "betti",
    "solvhodge.forms.wedge_closure_report": "forms",
    "solvhodge.report.harmonic_rows": "forms",
    "solvhodge.kahler.kaehler_obstruction": "kaehler",
}


class Recorder:
    """Spans and counts of one traced worker process."""

    def __init__(self):
        self.names: list[str] = []
        self.functions: list[str] = []
        self.spans: list[list] = []  # [name index, start, end, parent, spec, note]
        self.stack = [-1]
        self.spec = -1
        self.counts: Counter = Counter()

    def spanned(self, name: str, fn):
        qualname = f"{fn.__module__}.{fn.__name__}"
        index = len(self.names)
        self.names.append(name)
        self.functions.append(qualname)
        note = _NOTES.get(qualname)
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [index, 0.0, 0.0, stack[-1], self.spec, None]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                record[5] = type(exc).__name__
                raise
            finally:
                record[2] = clock()
                stack.pop()
            if note is not None:
                record[5] = note(result)
            return result

        return wrapper

    def counted(self, key: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def dump(self) -> dict:
        return {
            "names": self.names,
            "functions": self.functions,
            "spans": self.spans,
            "counts": dict(self.counts),
        }


def _is_package_function(obj) -> bool:
    if inspect.isclass(obj) or not callable(obj):
        return False
    module = getattr(obj, "__module__", None) or ""
    return module.startswith("solvhodge.") and inspect.isfunction(inspect.unwrap(obj))


def install(recorder: Recorder):
    """Wrap every public function global of the traced modules, and count scalar ops."""
    for short in MODULES:
        module = importlib.import_module(f"solvhodge.{short}")
        for attr, obj in list(vars(module).items()):
            if not attr.startswith("_") and _is_package_function(obj):
                setattr(module, attr, recorder.spanned(f"{module.__name__}.{attr}", obj))
    exact = importlib.import_module("solvhodge.exact")
    scalar = exact.ExactScalar
    for attr in ("__add__", "__mul__", "__rmul__"):
        setattr(scalar, attr, recorder.counted("exact.scalar_ops", vars(scalar)[attr]))
    make = vars(scalar)["make"].__func__
    scalar.make = classmethod(recorder.counted("exact.scalar_ops", make))
    forms = importlib.import_module("solvhodge.forms")
    forms.TwistedForm.wedge = recorder.counted("forms.wedge", forms.TwistedForm.wedge)


def _bucket_of(function: str) -> str | None:
    if function in _BUCKETS:
        return _BUCKETS[function]
    return _MODULE_BUCKETS.get(function.rsplit(".", 1)[0])


def layer_metrics(trace: dict, timings: list[dict]) -> tuple[dict, dict]:
    """Per-layer metrics of one traced round, and the stage gaps by stage.

    ``timings`` holds each spec's ``timings_ms`` block from its report.  A
    gap is the report's stage time minus the time of the spans that cover
    that stage, in ms, summed over the specs.
    """
    functions = [trace["functions"][span[0]] for span in trace["spans"]]
    spans = trace["spans"]
    buckets: list[str] = []
    children = [0.0] * len(spans)
    for i, (_, start, end, parent, _, _) in enumerate(spans):
        own = _bucket_of(functions[i])
        caller = buckets[parent] if parent >= 0 else ROOT_BUCKET
        same_layer = caller.split(".")[0] == functions[i].split(".")[1]
        if own is None or (caller != ROOT_BUCKET and same_layer):
            buckets.append(caller)
        else:
            buckets.append(own)
        if parent >= 0:
            children[parent] += end - start
    self_ms: dict[str, float] = defaultdict(float)
    for i, (_, start, end, _, _, _) in enumerate(spans):
        self_ms[buckets[i]] += (end - start - children[i]) * 1000.0

    def calls(function):
        return [span for f, span in zip(functions, spans) if f == function]

    sweeps = calls(SWEEP)
    exact_tests = calls(EXACT_TEST)
    escapes = sum(1 for span in exact_tests if span[5] == ESCAPE)
    float_tests = len(calls(FLOAT_TEST))
    examined = len(exact_tests) - escapes + float_tests
    admitted = sum(span[5] for span in sweeps if isinstance(span[5], int))
    basis = sum(
        span[5] for f, span, b in zip(functions, spans, buckets)
        if f == HODGE and b == "cohomology.hodge" and isinstance(span[5], int)
    )
    counts = trace["counts"]
    metrics = {
        "specfile.load_ms": self_ms["specfile.load"],
        "manifold.validate_ms": self_ms["manifold.validate"],
        "kahler.ms": self_ms["kahler"],
        "report.render_ms": self_ms["report.render"],
        "cohomology.sweep_ms": self_ms["cohomology.sweep"],
        "cohomology.sweep_calls": len(sweeps),
        "cohomology.pairs_examined": examined,
        "cohomology.pairs_admitted": admitted,
        "cohomology.admit_ratio": admitted / examined if examined else 0.0,
        "characters.lattice_ms": self_ms["characters.lattice"],
        "characters.exact_tests": len(exact_tests),
        "characters.float_tests": float_tests,
        "characters.exact_escapes": escapes,
        "exact.scalar_ops": counts.get("exact.scalar_ops", 0),
        "cohomology.hodge_ms": self_ms["cohomology.hodge"],
        "cohomology.betti_ms": self_ms["cohomology.betti"],
        "cohomology.symmetry_ms": self_ms["cohomology.symmetry"],
        "cohomology.condition_ms": self_ms["cohomology.condition"],
        "cohomology.basis_size": basis,
        "forms.wedge_closure_ms": self_ms["forms.wedge_closure"],
        "forms.wedge_products": counts.get("forms.wedge", 0),
        "forms.basis_forms": len(calls("solvhodge.forms.basis_form")),
        "forms.star_calls": len(calls("solvhodge.forms.bar_star")),
        "report.harmonic_rows_ms": self_ms["report.harmonic_rows"],
        "cli.analyze_ms": sum((span[2] - span[1]) * 1000.0 for span in calls(ANALYZE)),
        "cli.other_ms": self_ms["cli.other"],
    }
    covered: dict[tuple[int, str], float] = defaultdict(float)
    for f, span in zip(functions, spans):
        parent = span[3]
        if f in STAGES and parent >= 0 and functions[parent] == ANALYZE:
            covered[span[4], STAGES[f]] += (span[2] - span[1]) * 1000.0
    gaps: dict[str, float] = defaultdict(float)
    for spec, stages in enumerate(timings):
        for stage, ms in stages.items():
            gaps[stage] += ms - covered.get((spec, stage), 0.0)
    return metrics, dict(gaps)
