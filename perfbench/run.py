"""solvhodge benchmark: seeded corpora through ``solvhodge analyze --format json``.

    python3 perfbench/run.py --workload counting --seed 1 --seconds 24 --trace 0

Generates the workload's spec files from the seed, times set-up in fresh
processes, then runs whole rounds (every spec once, in one fresh worker
process) until ``--seconds`` have passed.  Every report of every round is
checked against the integer oracle.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs each
round twice, untraced and traced, and reports the per-layer metrics of the
traced rounds plus the tracing overhead.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import corpus
import oracle
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SETUP_PROBES = 5
# every run must end within 180 s; a round that would run past this is killed
DEADLINE_S = 170.0

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "slowest_spec_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "specfile.load_ms": "ms",
    "manifold.validate_ms": "ms",
    "kahler.ms": "ms",
    "report.render_ms": "ms",
    "cohomology.sweep_ms": "ms",
    "cohomology.sweep_calls": "count",
    "cohomology.pairs_examined": "count",
    "cohomology.pairs_admitted": "count",
    "cohomology.admit_ratio": "ratio",
    "characters.lattice_ms": "ms",
    "characters.exact_tests": "count",
    "characters.float_tests": "count",
    "characters.exact_escapes": "count",
    "exact.scalar_ops": "count",
    "cohomology.hodge_ms": "ms",
    "cohomology.betti_ms": "ms",
    "cohomology.symmetry_ms": "ms",
    "cohomology.condition_ms": "ms",
    "cohomology.basis_size": "count",
    "forms.wedge_closure_ms": "ms",
    "forms.wedge_products": "count",
    "forms.basis_forms": "count",
    "forms.star_calls": "count",
    "report.harmonic_rows_ms": "ms",
    "cli.analyze_ms": "ms",
    "cli.other_ms": "ms",
    "trace.overhead_s": "s",
    "trace.timings_gap_ms": "ms",
}


class Run:
    """The state of one benchmark run: corpus, answers, counts."""

    def __init__(self, workload: str, seed: int, work: Path):
        self.work = work
        self.started = time.perf_counter()
        self.items = corpus.build(workload, seed, work / "specs")
        self.manifest = work / "manifest.json"
        self.manifest.write_text(json.dumps(self.items))
        self.answers = [oracle.expected(item) for item in self.items]
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.rounds = 0

    def _worker(self, *args: str) -> str:
        remaining = DEADLINE_S - (time.perf_counter() - self.started)
        done = subprocess.run(
            [sys.executable, str(WORKER), *args],
            capture_output=True, text=True, timeout=max(remaining, 1.0),
        )
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            raise RuntimeError(f"worker {args[0]} exited with status {done.returncode}")
        return done.stdout

    def setup_seconds(self) -> float:
        """Median of fresh-process set-ups, after one unmeasured warm-up.

        The warm-up brings the sources and numpy into the page cache, as
        they are for a user who ran the CLI a moment ago.
        """
        probes = [json.loads(self._worker("setup", str(self.manifest)))["seconds"] for _ in range(SETUP_PROBES + 1)]
        return statistics.median(probes[1:])

    def round(self, traced: bool) -> dict:
        """One fresh worker over every spec; checks every report."""
        out = self.work / f"round{self.rounds}.json"
        spans = self.work / f"spans{self.rounds}.json"
        self.rounds += 1
        self._worker("run", str(self.manifest), str(out), *([str(spans)] if traced else []))
        result = json.loads(out.read_text())
        reports = []
        for item, answer, spec in zip(self.items, self.answers, result["results"]):
            try:
                report = json.loads(spec["stdout"])
            except ValueError:
                report = None
            problems = [] if spec["code"] == 0 else [f"exit status {spec['code']}"]
            if isinstance(report, dict):
                wrong = oracle.check(item, answer, report)
                self.wrong += bool(wrong)
                problems += wrong
            else:
                report = None
                problems.append("no JSON report")
            reports.append(report)
            self.attempted += 1
            if problems:
                self.failed += 1
                print(f"FAILED {item['name']} {item['flags']}: {'; '.join(problems)}", file=sys.stderr)
                if spec["error"]:
                    print(spec["error"], file=sys.stderr)
        seconds = [spec["seconds"] for spec in result["results"]]
        print(f"round {self.rounds}{' traced' if traced else ''}: "
              f"specs {' '.join(f'{x:.3f}' for x in seconds)} s", file=sys.stderr)
        summary = {
            "wall_s": sum(seconds),
            "slowest_spec_s": max(seconds),
            "peak_rss_mb": result["peak_rss_mb"],
            "reports": reports,
        }
        if traced:
            summary["trace"] = json.loads(spans.read_text())
        return summary


def _median(rounds: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in rounds)


def _layer_metrics(plain: list[dict], traced: list[dict]) -> dict:
    per_round = []
    gaps: dict[str, list[float]] = {}
    for summary in traced:
        timings = [(r or {}).get("timings_ms", {}) for r in summary["reports"]]
        metrics, stage_gaps = tracer.layer_metrics(summary["trace"], timings)
        metrics["trace.timings_gap_ms"] = sum(stage_gaps.values())
        per_round.append(metrics)
        for stage, gap in stage_gaps.items():
            gaps.setdefault(stage, []).append(gap)
    print("stage gaps, report timings_ms minus covering spans (ms, median of rounds):", file=sys.stderr)
    for stage, values in gaps.items():
        print(f"  {stage:10s} {statistics.median(values):9.3f}", file=sys.stderr)
    metrics = {key: statistics.median(m[key] for m in per_round) for key in per_round[0]}
    metrics["trace.overhead_s"] = _median(traced, "wall_s") - _median(plain, "wall_s")
    return metrics


def measure(run: Run, seconds: int, trace: bool) -> dict:
    """Set-up probes (untraced runs only), then whole rounds until the time is up."""
    setup = None if trace else run.setup_seconds()
    plain: list[dict] = []
    traced: list[dict] = []
    start = time.perf_counter()
    while not plain or time.perf_counter() - start < seconds:
        plain.append(run.round(traced=False))
        if trace:
            traced.append(run.round(traced=True))
        if len(plain) == 1:
            missed = oracle.selftest(run.items, run.answers, plain[0]["reports"])
            if missed:
                raise RuntimeError("checker self-test missed: " + "; ".join(missed))
    if trace:
        values = _layer_metrics(plain, traced)
        units = PER_LAYER_UNITS
    else:
        values = {key: _median(plain, key) for key in ("wall_s", "slowest_spec_s", "peak_rss_mb")}
        values["setup_s"] = setup
        units = END_TO_END_UNITS
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "solvhodge" / "__init__.py").is_file():
        print(f"error: no solvhodge sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        run = Run(args.workload, args.seed, work)
        metrics = measure(run, args.seconds, bool(args.trace))
    except (RuntimeError, ValueError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run still uses it
            pass
    result = {
        "correct": run.wrong == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
