"""Run reports: the verdicts of one run and their text, JSON and LaTeX rendering."""

from __future__ import annotations

from typing import Optional

from .cohomology import BettiNumbers, ConditionReport, HodgeTable
from .exact import Immutable
from .forms import HarmonicRow
from .kahler import KaehlerVerdict
from .manifold import ValidationReport

SCHEMA_VERSION = 1

__all__ = [
    "RunReport",
    "SCHEMA_VERSION",
    "failed_checks",
    "harmonic_rows_json",
    "render_harmonic_text",
    "render_latex",
    "render_text",
    "run_report_json",
]


class RunReport(Immutable):
    __slots__ = (
        "name", "mode", "validation", "hodge", "betti", "condition", "symmetry", "serre",
        "wedge_closure", "harmonic_certified", "kaehler", "timings_ms",
    )
    name: str
    mode: str  # "exact" | "float_fallback"
    validation: ValidationReport
    hodge: HodgeTable
    betti: BettiNumbers
    condition: ConditionReport
    symmetry: bool
    serre: bool
    wedge_closure: Optional[bool]
    harmonic_certified: Optional[bool]
    kaehler: KaehlerVerdict
    timings_ms: dict[str, float]


def failed_checks(report: RunReport) -> list[str]:
    """Names of certified checks that did not pass (drives the CI exit code)."""
    failures = []
    if not report.validation.lattice_rank_ok:
        failures.append("lattice_rank")
    if report.validation.fiber_preserved == "violated":
        failures.append("fiber_preservation")
    if not report.symmetry:
        failures.append("symmetry")
    if not report.serre:
        failures.append("serre_duality")
    if report.wedge_closure is False:
        failures.append("wedge_closure")
    if report.harmonic_certified is False:
        failures.append("harmonicity")
    return failures


def run_report_json(report: RunReport) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "name": report.name,
        "mode": report.mode,
        "validation": {
            "lattice_rank_ok": report.validation.lattice_rank_ok,
            "fiber_preserved": report.validation.fiber_preserved,
            "details": list(report.validation.details),
        },
        "hodge": [list(row) for row in report.hodge.rows()],
        "betti": list(report.betti.values),
        "certified_de_rham": report.betti.certified_de_rham,
        "condition": {
            "holds": report.condition.holds,
            "violations": [
                {"J": list(J), "L": list(L), "reason": reason}
                for J, L, reason in report.condition.violations
            ],
            "checked_pairs": report.condition.checked_pairs,
        },
        "symmetry": report.symmetry,
        "serre": report.serre,
        "wedge_closure": report.wedge_closure,
        "harmonic_certified": report.harmonic_certified,
        "kaehler": {
            "status": report.kaehler.status,
            "witnesses": list(report.kaehler.witnesses),
            "completely_solvable": report.kaehler.completely_solvable,
        },
        "timings_ms": dict(report.timings_ms),
    }


def _flag(value: Optional[bool]) -> str:
    if value is None:
        return "skipped"
    return "yes" if value else "NO"


def render_text(report: RunReport) -> str:
    lines = []
    lines.append(f"manifold: {report.name}")
    lines.append(f"mode: {report.mode}")
    lines.append(
        "validation: rank %s, fiber %s"
        % ("ok" if report.validation.lattice_rank_ok else "FAILED", report.validation.fiber_preserved)
    )
    for detail in report.validation.details:
        lines.append(f"  - {detail}")
    lines.append("hodge table (rows p, columns q):")
    width = max(len(str(v)) for row in report.hodge.rows() for v in row)
    for row in report.hodge.rows():
        lines.append("  " + " ".join(str(v).rjust(width) for v in row))
    betti = " ".join(str(v) for v in report.betti.values)
    certified = "de Rham certified" if report.betti.certified_de_rham else "first-page sums only"
    lines.append(f"betti: {betti} ({certified})")
    if report.condition.holds:
        lines.append(f"condition: holds ({report.condition.checked_pairs} admissible pairs)")
    else:
        lines.append(
            f"condition: fails with {len(report.condition.violations)} violation(s)"
        )
        for J, L, reason in report.condition.violations:
            lines.append(f"  - J={list(J)}, L={list(L)}: {reason}")
    lines.append(f"hodge + conjugation symmetry: {_flag(report.symmetry)}")
    lines.append(f"serre duality: {_flag(report.serre)}")
    lines.append(f"wedge closure: {_flag(report.wedge_closure)}")
    lines.append(f"harmonic basis certified: {_flag(report.harmonic_certified)}")
    kaehler = report.kaehler
    witness = (
        " (witnesses: %s)" % ", ".join(str(w) for w in kaehler.witnesses)
        if kaehler.witnesses
        else ""
    )
    solvable = "completely solvable" if kaehler.completely_solvable else "not completely solvable"
    lines.append(f"kaehler: {kaehler.status}{witness}; {solvable}")
    return "\n".join(lines) + "\n"


def render_latex(report: RunReport) -> str:
    """Hodge diamond as a plain tabular, top vertex (N, N), bottom vertex (0, 0)."""
    dim = report.hodge.n_plus_m
    columns = 2 * dim + 1
    lines = [f"% {report.name}", "\\begin{tabular}{%s}" % ("c" * columns)]
    for r in range(2 * dim, -1, -1):
        cells = [""] * columns
        for p in range(dim + 1):
            q = r - p
            if 0 <= q <= dim:
                cells[dim - p + q] = f"${report.hodge.h[p][q]}$"
        lines.append(" & ".join(cells) + " \\\\")
    lines.append("\\end{tabular}")
    return "\n".join(lines) + "\n"


def render_harmonic_text(name: str, mode: str, rows: tuple[HarmonicRow, ...]) -> str:
    lines = [f"manifold: {name}", f"mode: {mode}"]
    for row in rows:
        el = row.element
        lines.append(
            "(%d,%d) I=%s J=%s K=%s L=%s dbar_closed=True co_closed=%s d_harmonic=%s"
            % (
                el.p, el.q,
                list(el.I), list(el.J), list(el.K), list(el.L),
                row.co_closed, row.d_harmonic,
            )
        )
    lines.append("all dbar-harmonic: %s" % all(r.co_closed for r in rows))
    return "\n".join(lines) + "\n"


def harmonic_rows_json(name: str, mode: str, rows: tuple[HarmonicRow, ...]) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "name": name,
        "mode": mode,
        "elements": [
            {
                "p": row.element.p,
                "q": row.element.q,
                "I": list(row.element.I),
                "J": list(row.element.J),
                "K": list(row.element.K),
                "L": list(row.element.L),
                "dbar_closed": True,
                "co_closed": row.co_closed,
                "d_harmonic": row.d_harmonic,
            }
            for row in rows
        ],
        "all_dbar_harmonic": all(r.co_closed for r in rows),
    }
