"""Run reports: the JSON record of one run, and its text and LaTeX rendering."""

from __future__ import annotations

from typing import Optional

from .cohomology import HodgeTable, MultiIndex, PairSweep

SCHEMA_VERSION = 1
VIOLATION_REASON = "trivial_restriction_but_alpha_nontrivial"

__all__ = [
    "SCHEMA_VERSION",
    "failed_checks",
    "harmonic_rows_json",
    "render_harmonic_text",
    "render_latex",
    "render_text",
    "run_report",
]


def _mode(sweep: PairSweep) -> str:
    return "exact" if sweep.certified else "float_fallback"


def run_report(
    name: str, validation: dict, sweep: PairSweep, hodge: HodgeTable,
    betti: tuple[int, ...], violations: tuple[tuple[MultiIndex, MultiIndex], ...],
    symmetry: bool, serre: bool, wedge_closure: Optional[bool],
    harmonic_certified: Optional[bool], kaehler: dict, timings_ms: dict[str, float],
) -> dict:
    """The record ``analyze --format json`` prints.

    ``mode`` is "exact" for a certified sweep and "float_fallback" otherwise;
    the condition holds, and the Betti sums are de Rham numbers, exactly when
    there is no violation.
    """
    return {
        "schema_version": SCHEMA_VERSION,
        "name": name,
        "mode": _mode(sweep),
        "validation": validation,
        "hodge": [list(row) for row in hodge.rows()],
        "betti": list(betti),
        "certified_de_rham": not violations,
        "condition": {
            "holds": not violations,
            "violations": [
                {"J": list(J), "L": list(L), "reason": VIOLATION_REASON} for J, L in violations
            ],
            "checked_pairs": len(sweep),
        },
        "symmetry": symmetry,
        "serre": serre,
        "wedge_closure": wedge_closure,
        "harmonic_certified": harmonic_certified,
        "kaehler": kaehler,
        "timings_ms": timings_ms,
    }


def failed_checks(report: dict) -> list[str]:
    """Names of certified checks that did not pass (drives the CI exit code)."""
    failures = []
    if not report["validation"]["lattice_rank_ok"]:
        failures.append("lattice_rank")
    if report["validation"]["fiber_preserved"] == "violated":
        failures.append("fiber_preservation")
    if not report["symmetry"]:
        failures.append("symmetry")
    if not report["serre"]:
        failures.append("serre_duality")
    if report["wedge_closure"] is False:
        failures.append("wedge_closure")
    if report["harmonic_certified"] is False:
        failures.append("harmonicity")
    return failures


def _flag(value: Optional[bool]) -> str:
    if value is None:
        return "skipped"
    return "yes" if value else "NO"


def render_text(report: dict) -> str:
    validation, condition, kaehler = report["validation"], report["condition"], report["kaehler"]
    lines = [f"manifold: {report['name']}", f"mode: {report['mode']}"]
    rank = "ok" if validation["lattice_rank_ok"] else "FAILED"
    lines.append(f"validation: rank {rank}, fiber {validation['fiber_preserved']}")
    for detail in validation["details"]:
        lines.append(f"  - {detail}")
    lines.append("hodge table (rows p, columns q):")
    width = max(len(str(v)) for row in report["hodge"] for v in row)
    for row in report["hodge"]:
        lines.append("  " + " ".join(str(v).rjust(width) for v in row))
    betti = " ".join(str(v) for v in report["betti"])
    certified = "de Rham certified" if report["certified_de_rham"] else "first-page sums only"
    lines.append(f"betti: {betti} ({certified})")
    if condition["holds"]:
        lines.append(f"condition: holds ({condition['checked_pairs']} admissible pairs)")
    else:
        lines.append(f"condition: fails with {len(condition['violations'])} violation(s)")
        for violation in condition["violations"]:
            lines.append(f"  - J={violation['J']}, L={violation['L']}: {violation['reason']}")
    lines.append(f"hodge + conjugation symmetry: {_flag(report['symmetry'])}")
    lines.append(f"serre duality: {_flag(report['serre'])}")
    lines.append(f"wedge closure: {_flag(report['wedge_closure'])}")
    lines.append(f"harmonic basis certified: {_flag(report['harmonic_certified'])}")
    witnesses = ", ".join(str(w) for w in kaehler["witnesses"])
    witness = f" (witnesses: {witnesses})" if witnesses else ""
    solvable = ("" if kaehler["completely_solvable"] else "not ") + "completely solvable"
    lines.append(f"kaehler: {kaehler['status']}{witness}; {solvable}")
    return "\n".join(lines) + "\n"


def render_latex(report: dict) -> str:
    """Hodge diamond as a plain tabular, top vertex (N, N), bottom vertex (0, 0)."""
    h = report["hodge"]
    dim = len(h) - 1
    columns = 2 * dim + 1
    lines = [f"% {report['name']}", "\\begin{tabular}{%s}" % ("c" * columns)]
    for r in range(2 * dim, -1, -1):
        cells = [""] * columns
        for p in range(dim + 1):
            q = r - p
            if 0 <= q <= dim:
                cells[dim - p + q] = f"${h[p][q]}$"
        lines.append(" & ".join(cells) + " \\\\")
    lines.append("\\end{tabular}")
    return "\n".join(lines) + "\n"


def harmonic_rows_json(name: str, sweep: PairSweep, rows: list[dict]) -> dict:
    """The record ``check-harmonic --format json`` prints, around ``cohomology.harmonic_rows``."""
    return {
        "schema_version": SCHEMA_VERSION,
        "name": name,
        "mode": _mode(sweep),
        "elements": rows,
        "all_dbar_harmonic": all(row["co_closed"] for row in rows),
    }


def render_harmonic_text(record: dict) -> str:
    lines = [f"manifold: {record['name']}", f"mode: {record['mode']}"]
    for row in record["elements"]:
        lines.append(
            "(%(p)d,%(q)d) I=%(I)s J=%(J)s K=%(K)s L=%(L)s dbar_closed=%(dbar_closed)s"
            " co_closed=%(co_closed)s d_harmonic=%(d_harmonic)s" % row
        )
    lines.append("all dbar-harmonic: %s" % record["all_dbar_harmonic"])
    return "\n".join(lines) + "\n"
