"""Command-line front end: analyze, emit-example, check-harmonic, version."""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path
from typing import Optional, Union

from . import __version__
from .cohomology import (
    betti_numbers,
    check_condition,
    conjugation_symmetry,
    harmonic_rows,
    hodge_table,
    serre_duality_check,
    sweep_trivial_pairs,
    wedge_closure_report,
)
from .kahler import kaehler_obstruction
from .manifold import validate
from .model import DimensionCapExceeded, SolvManifoldSpec, check_caps
from .report import (
    SCHEMA_VERSION,
    failed_checks,
    harmonic_rows_json,
    render_harmonic_text,
    render_latex,
    render_text,
    run_report,
)
from .specfile import _BUILDERS, SpecFileError, load_spec, load_spec_dict, save_spec, spec_to_dict

__all__ = ["analyze", "emit_example", "main"]

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_MALFORMED = 2
EXIT_TOO_LARGE = 3
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, as a shell reports a writer whose reader went away


def analyze(
    source: Union[str, Path, SolvManifoldSpec], *, skip_forms: bool = False, force_float: bool = False
) -> dict:
    """Run the full pipeline on a spec or a file path; returns the record ``--format json`` prints.

    A forced-float sweep is never certified, so its wedge closure walks the
    pairs, and with forms it is held to the forms cap before any work.
    """
    spec = source if isinstance(source, SolvManifoldSpec) else load_spec(source)
    check_caps(spec.complex_dim, forms=force_float and not skip_forms)
    timings: dict[str, float] = {}

    def clock(stage, function, *args, **kwargs):
        start = time.perf_counter()
        result = function(*args, **kwargs)
        timings[stage] = (time.perf_counter() - start) * 1000.0
        return result

    validation = clock("validate", validate, spec)
    sweep = clock("pairs", sweep_trivial_pairs, spec, force_float)
    table = clock("hodge", hodge_table, spec, sweep)
    violations = clock("condition", check_condition, spec, sweep)
    symmetry = clock("symmetry", conjugation_symmetry, sweep)
    serre = serre_duality_check(table)
    betti = clock("betti", betti_numbers, table)
    wedge_closure = None
    harmonic = None
    if not skip_forms:
        start = time.perf_counter()
        wedge_closure = wedge_closure_report(spec, sweep) is None
        harmonic = spec.is_unimodular
        timings["forms"] = (time.perf_counter() - start) * 1000.0
    kaehler = clock("kaehler", kaehler_obstruction, spec)
    return run_report(
        spec.name, validation, sweep, table, betti, violations, symmetry, serre,
        wedge_closure, harmonic, kaehler, timings,
    )


def emit_example(name: str, params: dict, out_path: Optional[Union[str, Path]]) -> SolvManifoldSpec:
    """Build the builder node ``{"builder": name, **params}`` and write it in the file schema."""
    spec = load_spec_dict({**params, "builder": name})
    if out_path is not None:
        save_spec(spec, out_path)
    return spec


class _Parser(argparse.ArgumentParser):
    """argparse's parser, whose usage errors take the command's stderr path.

    argparse prints the usage to ``sys.stdout`` when Python was started with
    standard error closed, and 3.10 exits 1 when stderr refuses the write.
    The same bytes go through :func:`_print_stderr` instead, and the exit
    code stays 2.  Subparsers are made with the parser's own class.
    """

    def error(self, message):
        _print_stderr(f"{self.format_usage()}{self.prog}: error: {message}\n")
        raise SystemExit(EXIT_MALFORMED)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="solvhodge",
        description="Exact Dolbeault cohomology and Hodge certificates for "
        "complex solvmanifolds with diagonal semisimple action.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser("analyze", help="run the full pipeline on a manifold file")
    p_analyze.add_argument("file", help="manifold description file (JSON)")
    p_analyze.add_argument("--format", choices=("text", "json", "latex"), default="text")
    p_analyze.add_argument(
        "--skip-forms", action="store_true",
        help="counting-only fast path: skip harmonicity and wedge-closure certification",
    )
    p_analyze.add_argument(
        "--float", dest="force_float", action="store_true",
        help="force the float fallback for lattice triviality (mode flag set in the report)",
    )

    p_emit = sub.add_parser("emit-example", help="write a built-in example as a manifold file")
    p_emit.add_argument("name", choices=tuple(_BUILDERS))
    p_emit.add_argument("--n", type=int, default=1, help="torus: base dimension")
    p_emit.add_argument("--m", type=int, default=1, help="torus: fiber dimension")
    p_emit.add_argument(
        "--a", type=int, nargs="+", default=[1],
        help="example1: nonzero integer exponents, one per character pair",
    )
    p_emit.add_argument(
        "--t-mode", default="symbolic",
        help='example1: "symbolic" or "rational_pi(r,s)"',
    )
    p_emit.add_argument(
        "--matrix", type=int, nargs=4, metavar=("A11", "A12", "A21", "A22"),
        default=[2, 1, 1, 1], help="example2_n1: row-major entries of the integer matrix",
    )
    p_emit.add_argument("--out", help="output path (stdout when omitted)")

    p_harm = sub.add_parser("check-harmonic", help="per-basis-element harmonicity flags")
    p_harm.add_argument("file", help="manifold description file (JSON)")
    p_harm.add_argument("--format", choices=("text", "json"), default="text")

    p_version = sub.add_parser("version", help="print the package version")
    p_version.add_argument("--format", choices=("text", "json"), default="text")
    return parser


def _cmd_analyze(args) -> int:
    report = analyze(args.file, skip_forms=args.skip_forms, force_float=args.force_float)
    if args.format == "json":
        print(json.dumps(report, indent=2))
    elif args.format == "latex":
        print(render_latex(report), end="")
    else:
        print(render_text(report), end="")
    return EXIT_CHECK_FAILED if failed_checks(report) else EXIT_OK


def _cmd_emit(args) -> int:
    # argparse's n, m, a and t_mode are the builders' own parameter names
    options = {**vars(args), "A": [args.matrix[:2], args.matrix[2:]]}
    spec = emit_example(args.name, {key: options[key] for key in _BUILDERS[args.name]}, args.out)
    if args.out is None:
        print(json.dumps(spec_to_dict(spec), indent=2))
    return EXIT_OK


def _cmd_check_harmonic(args) -> int:
    spec = load_spec(args.file)
    check_caps(spec.complex_dim, forms=True)
    sweep = sweep_trivial_pairs(spec)
    record = harmonic_rows_json(spec.name, sweep, harmonic_rows(spec, sweep))
    if args.format == "json":
        print(json.dumps(record, indent=2))
    else:
        print(render_harmonic_text(record), end="")
    return EXIT_OK if record["all_dbar_harmonic"] else EXIT_CHECK_FAILED


def _cmd_version(args) -> int:
    if args.format == "json":
        record = {"schema_version": SCHEMA_VERSION, "name": "solvhodge", "version": __version__}
        print(json.dumps(record))
    else:
        print(f"solvhodge {__version__}")
    return EXIT_OK


def _print_stderr(text: str) -> None:
    """Write ``text`` on stderr; a stderr that cannot take it loses the text, not the exit code.

    Python sets ``sys.stderr`` to None when started with standard error closed, and print would then
    write to stdout.  A stderr that refuses the write is pointed at devnull, as stdout is after a
    broken pipe, so that the flush at exit cannot fail again.
    """
    if sys.stderr is None:
        return
    try:
        print(text, end="", file=sys.stderr, flush=True)
    except OSError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stderr.fileno())


def main(argv: Optional[list[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "analyze":
            code = _cmd_analyze(args)
        elif args.command == "emit-example":
            code = _cmd_emit(args)
        elif args.command == "check-harmonic":
            code = _cmd_check_harmonic(args)
        else:
            code = _cmd_version(args)
        sys.stdout.flush()  # so that a closed stdout shows here, not at interpreter exit
    except BrokenPipeError:
        # the reader stopped reading, which is no input error: print nothing, and point stdout
        # at devnull so that the flush at exit cannot fail again (Python's signal docs, SIGPIPE)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_BROKEN_PIPE
    except (SpecFileError, OSError) as exc:
        _print_stderr(f"error: {exc}\n")
        code = EXIT_MALFORMED
    except DimensionCapExceeded as exc:
        _print_stderr(f"error: {exc}\n")
        code = EXIT_TOO_LARGE
    if argv is None:
        sys.exit(code)
    return code


if __name__ == "__main__":
    main()
