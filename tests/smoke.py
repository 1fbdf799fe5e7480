"""Runtime smoke of a plain install: the command line's exit codes and verdicts, and the import contract.

Usage: python smoke.py PYTHON CLI

PYTHON is the interpreter that runs the import probes and CLI the command
that is ``solvhodge``. Each is one command line, split as a shell splits it:
a virtual environment's ``python`` and ``solvhodge`` after ``pip install .``,
or, from a checkout, ``python -S`` and ``python -S -m solvhodge.cli`` with
``PYTHONPATH=src`` (``tests/test_smoke.py``). Either way no site-packages is
on the path, so nothing the test extra installs can hide a missing import.
Paths must be absolute. This script imports only the standard library.

The rows run in order, each as a fresh process in one temporary directory,
so that a row reads the files earlier rows wrote. Why each group exists:

- Import probes. Importing ``solvhodge`` loads no submodule: its public
  names resolve on first use. Every entry point loads what it needs and no
  more: an explicit spec file loads ``exact``, ``model`` and ``specfile``, a
  builder node adds ``manifold``, whose validation numerics do not load the
  lattice gate of ``characters``, and neither the CLI nor a star import loads
  ``forms``, the reference algebra the tests check against. Importing the
  CLI loads no ``dataclasses`` or ``inspect``. The numpy-free CLI is held by
  ``test_witness_linalg::test_cli_never_imports_numpy``, which runs where
  numpy is installed and so can fail.
- The size gate. An oversized builder node and an oversized
  ``emit-example`` exit 3 and write nothing. torus(3, 4) is past the forms
  cap but gets its full report, because a certified sweep is union-closed
  without a pair walk; its forced-float run, which must walk its pairs,
  exits 3 with no stdout.
- Malformed input exits 2: a builder node without a required parameter
  names it, a spec name with a line break prints nothing (it would break
  the LaTeX table), and an example1 exponent whose half, the literal a spec
  file stores, has no float writes no file. A usage error (no file, an
  unknown command) prints argparse's usage on stderr and nothing on stdout.
- Every JSON output carries the schema version, and ``version`` prints the
  package's version, also as ``python -m solvhodge.cli``.
- Verdicts. The resonant example1 at t = pi has an exact sweep whose
  condition fails with its two violations and no de Rham certification. On
  the hyperbolic matrices A_N = [[N, 1], [N(3-N)-1, 3-N]], fiber
  preservation is "ok" at N = 5000 and "undecided" at N = 10^4, where the
  float witnesses cannot settle integrality; neither run fails a check. The
  doubling action z -> 2z on Z[i] exits 1: det D = 4, not a lattice
  automorphism. So does the action of e^{x / 10^9}, whose det D is within
  any float tolerance of 1: unimodularity is decided exactly, before any
  generator is read. The exact lattice 1e-10 * Z[i] has certified full rank
  at any scale.
- The README's example commands run as documented.
"""

import json
import os
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

VERSION = "0.1.0"
SCHEMA_VERSION = 1


def row(*argv, code=0, check=lambda done, here: True, files=None):
    """One check: ``argv`` starts with "python" or "solvhodge", which stand for the
    commands under test; ``files`` (name -> JSON value) are written before it runs."""
    return argv, files or {}, code, check


def loads(*names, absent=()):
    """stdout lists the modules a probe loaded: of the package exactly
    ``solvhodge`` and the submodules ``names``, and none of ``absent``."""
    expected = ["solvhodge", *(f"solvhodge.{name}" for name in names)]

    def check(done, here):
        loaded = done.stdout.split()
        return [m for m in loaded if m.split(".")[0] == "solvhodge"] == expected and not set(absent) & set(loaded)

    return check


def report(predicate):
    """stdout is one JSON document that satisfies ``predicate``."""
    return lambda done, here: predicate(json.loads(done.stdout))


def says(text):
    return lambda done, here: text in done.stdout


def writes_nothing(path=None):
    """Nothing on stdout and, if ``path`` is given, no such file."""
    return lambda done, here: not done.stdout and not (path and (here / path).exists())


def usage_error(done, here):
    """argparse's usage on stderr and nothing on stdout."""
    return not done.stdout and done.stderr.startswith("usage:")


def probe(body, *args, **row_fields):
    """A ``python -c`` row whose ``body`` may print ``LOADED``, the modules it added."""
    return row("python", "-c", "import sys\nbefore = set(sys.modules)\n" + body, *args, **row_fields)


LOADED = "print(*sorted(set(sys.modules) - before))\n"
LOAD_SPEC = "from solvhodge.specfile import load_spec\nload_spec(sys.argv[1])\n" + LOADED
CLI_MODULES = ("characters", "cli", "cohomology", "exact", "kahler", "manifold", "model", "report", "specfile")
MANIFOLD_MODULES = ("exact", "manifold", "model")
STAR_MODULES = ("characters", "cohomology", "exact", "kahler", "manifold", "model", "specfile")

LAZY_NAMESPACE = """
star = {}
exec("from solvhodge import *", star)
print(*sorted(set(sys.modules) - before))
import importlib, solvhodge
names = solvhodge.__all__
assert len(names) == len(set(names)) == 30, names
for name in names:
    value = getattr(solvhodge, name)
    owner = importlib.import_module(value.__module__)
    assert name in owner.__all__ and getattr(owner, name) is value, name
assert set(star) - {"__builtins__"} == set(names)
assert all(star[name] is getattr(solvhodge, name) for name in names)
removed = ("ValidationReport", "KaehlerVerdict", "TableMismatch")
for name in ("no_such_name", "report", "forms", "_BUILDERS", "check_caps", *removed):
    try:
        getattr(solvhodge, name)
    except AttributeError as exc:
        assert name in str(exc)
    else:
        raise AssertionError(name)
"""

GAUSSIAN = [[{"re": {"one": "1"}}], [{"im": {"one": "1"}}]]  # Z[i] in C
DOUBLING = {
    "name": "doubling", "n": 1, "m": 1,
    "symbols": [{"name": "l2", "value": 0.6931471805599453}],
    "alphas": [{"real_exp": [{"l2": "1"}]}],  # e^{x log 2}: z -> 2z at x = 1
    "lattice": GAUSSIAN, "lattice_fiber": GAUSSIAN,
}
NEAR_UNIMODULAR = {  # e^{x / 10^9}
    "name": "near_unimodular", "n": 1, "m": 1, "alphas": [{"real_exp": [{"one": "1/1000000000"}]}],
    "lattice": GAUSSIAN, "lattice_fiber": GAUSSIAN,
}
NOT_UNIMODULAR = (
    "the action is not unimodular (the product of the fiber characters is not unitary),"
    " so it is not a lattice automorphism"
)
NEWLINE = {"name": "a\n\\end{tabular}", "n": 1, "m": 0, "alphas": [], "lattice": GAUSSIAN}
TENTH = {"one": "1/10000000000"}
SMALL_LATTICE = {  # 1e-10 * Z[i] in C, exact, under a standard fiber
    "name": "small_lattice", "n": 1, "m": 1, "alphas": [{"real_exp": [{}]}],
    "lattice": [[{"re": TENTH}], [{"im": TENTH}]], "lattice_fiber": GAUSSIAN,
}


def resonant(r):
    condition = r["condition"]
    reasons = [v["reason"] for v in condition["violations"]]
    return (r["mode"] == "exact" and condition["holds"] is False and condition["checked_pairs"] == 8
            and reasons == ["trivial_restriction_but_alpha_nontrivial"] * 2 and r["certified_de_rham"] is False)


def fiber(verdict):
    return report(lambda r: r["validation"]["fiber_preserved"] == verdict)


# Named groups, which Tier-1 tests also run on their own; each is self-contained.
PACKAGE_IMPORT = [probe("import solvhodge\n" + LOADED, check=loads())]
CLI_IMPORT = [probe("import solvhodge.cli\n" + LOADED, check=loads(*CLI_MODULES, absent=("dataclasses", "inspect")))]
STAR_IMPORT = [probe(LAZY_NAMESPACE, check=loads(*STAR_MODULES))]
BUILDER_NODE_LOAD = [
    probe("import solvhodge.manifold\n" + LOADED, check=loads(*MANIFOLD_MODULES)),
    probe("from solvhodge.manifold import torus, validate\nvalidate(torus(1, 1))\n" + LOADED,
        check=loads(*MANIFOLD_MODULES)),
    probe(LOAD_SPEC, "node.json",
        files={"node.json": {"builder": "example1", "a": [1, 2], "t_mode": "rational_pi(1,2)"}},
        check=loads(*MANIFOLD_MODULES, "specfile")),
]
EXPLICIT_SPEC_LOAD = [
    row("solvhodge", "emit-example", "example1", "--a", "1", "2", "--out", "ex.json"),
    probe(LOAD_SPEC, "ex.json", check=loads("exact", "model", "specfile")),
]
VERSION_TEXT = [row("solvhodge", "version", check=lambda done, here: done.stdout == f"solvhodge {VERSION}\n")]

ROWS = [
    *PACKAGE_IMPORT,
    *CLI_IMPORT,
    *STAR_IMPORT,
    *BUILDER_NODE_LOAD,
    *EXPLICIT_SPEC_LOAD,
    row("solvhodge", "analyze", "ex.json"),
    row("solvhodge", "check-harmonic", "ex.json"),
    *VERSION_TEXT,
    row("solvhodge", "version", "--format", "json",
        check=report(lambda r: r == {"schema_version": SCHEMA_VERSION, "name": "solvhodge", "version": VERSION})),
    row("solvhodge", "analyze", "ex.json", "--format", "json",
        check=report(lambda r: r["schema_version"] == SCHEMA_VERSION)),
    row("solvhodge", "check-harmonic", "ex.json", "--format", "json",
        check=report(lambda r: r["schema_version"] == SCHEMA_VERSION)),
    row("solvhodge", "analyze", "big.json", code=3, files={"big.json": {"builder": "torus", "n": 13, "m": 0}},
        check=writes_nothing()),
    row("solvhodge", "emit-example", "example1", "--a", "1", "2", "3", "4", "5", "6", "7", "--out", "ex7.json",
        code=3, check=writes_nothing("ex7.json")),
    row("solvhodge", "analyze", "no-a.json", code=2, files={"no-a.json": {"builder": "example1"}},
        check=lambda done, here: '"a"' in done.stderr),
    row("solvhodge", "analyze", "newline.json", "--format", "latex", code=2, files={"newline.json": NEWLINE},
        check=writes_nothing()),
    row("solvhodge", "emit-example", "example1", "--a", str(10**309), "--out", "big1.json", code=2,
        check=writes_nothing("big1.json")),
    row("solvhodge", "analyze", code=2, check=usage_error),
    row("solvhodge", "frobnicate", code=2, check=usage_error),
    row("solvhodge", "emit-example", "torus", "--n", "3", "--m", "4", "--out", "t34.json"),
    row("solvhodge", "analyze", "t34.json", "--format", "json", check=report(lambda r: r["wedge_closure"] is True)),
    row("solvhodge", "analyze", "t34.json", "--float", code=3, check=writes_nothing()),
    row("solvhodge", "emit-example", "example1", "--a", "1", "--t-mode", "rational_pi(1,1)", "--out", "pi.json"),
    row("solvhodge", "analyze", "pi.json", "--format", "json", check=report(resonant)),
    row("solvhodge", "emit-example", "example2_n1", "--matrix", "5000", "1", "-24985001", "-4997", "--out", "h5.json"),
    row("solvhodge", "analyze", "h5.json", "--format", "json", check=fiber("ok")),
    row("solvhodge", "emit-example", "example2_n1", "--matrix", "10000", "1", "-99970001", "-9997", "--out", "h4.json"),
    row("solvhodge", "analyze", "h4.json", "--format", "json", check=fiber("undecided")),
    row("solvhodge", "analyze", "doubling.json", "--format", "json", code=1, files={"doubling.json": DOUBLING},
        check=report(lambda r: "not a lattice automorphism" in r["validation"]["details"][0])),
    row("solvhodge", "analyze", "near.json", "--format", "json", code=1, files={"near.json": NEAR_UNIMODULAR},
        check=report(lambda r: r["validation"]["fiber_preserved"] == "violated"
                     and r["validation"]["details"][0] == NOT_UNIMODULAR)),
    row("solvhodge", "analyze", "small.json", files={"small.json": SMALL_LATTICE}, check=says("validation: rank ok")),
    # the README's examples
    row("solvhodge", "emit-example", "torus", "--n", "2", "--m", "1", "--out", "torus.json"),
    row("solvhodge", "analyze", "torus.json", check=says("condition: holds")),
    row("solvhodge", "emit-example", "example1", "--a", "1", "-2", "--t-mode", "rational_pi(1,1)", "--out", "ex1.json"),
    row("solvhodge", "analyze", "ex1.json", check=says("condition: fails")),
    row("solvhodge", "emit-example", "example2_n1", "--matrix", "2", "1", "1", "1", "--out", "ex2.json"),
    row("solvhodge", "analyze", "ex2.json", check=says("validation: rank ok, fiber ok")),
]


def run(python, cli, rows=ROWS, env=None):
    """Run ``rows`` in order; print each failure and return how many failed."""
    commands = {"python": shlex.split(python), "solvhodge": shlex.split(cli)}
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        here = Path(tmp)
        for argv, files, code, check in rows:
            for name, value in files.items():
                (here / name).write_text(json.dumps(value))
            done = subprocess.run(
                commands[argv[0]] + list(argv[1:]), cwd=here, capture_output=True, text=True, timeout=120, env=env
            )
            try:
                ok = done.returncode == code and check(done, here)
            except (LookupError, TypeError, ValueError) as exc:  # a report without the field read
                ok = False
                done.stderr += f"\nthe check raised {exc!r}"
            if not ok:
                failed += 1
                print(f"FAIL {shlex.join(argv)}: exit {done.returncode}, expected {code}")
                print(f"stdout: {done.stdout[-2000:]}\nstderr: {done.stderr[-2000:]}")
    print(f"{len(rows) - failed} of {len(rows)} rows passed")
    return failed


def run_from_source(rows=ROWS):
    """Run ``rows`` on this checkout's ``src`` with ``python -S``, as ``tests/test_smoke.py`` runs the script."""
    python = shlex.join([sys.executable, "-S"])
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    return run(python, python + " -m solvhodge.cli", rows, env)


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__.split("\n\n")[1])
    sys.exit(1 if run(*sys.argv[1:]) else 0)
