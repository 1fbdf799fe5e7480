"""One fresh process of the benchmark: set-up probe or one round of analyses.

    python3 worker.py setup MANIFEST
        import solvhodge and load every spec file of the manifest; print the
        seconds this took as JSON.
    python3 worker.py run MANIFEST OUT [SPANS]
        run ``solvhodge analyze --format json`` through ``solvhodge.cli.main``
        on every spec of the manifest, one after another, and write each exit
        status, JSON output and wall time to OUT.  With SPANS the run is
        traced (see tracer.py) and the spans are written there at the end.

A round must run in a fresh process: ``sweep_trivial_pairs`` keeps an
unbounded cache keyed on the spec's value, which a user running the CLI
never hits.
"""

from __future__ import annotations

import io
import json
import resource
import sys
import time
import traceback
from contextlib import redirect_stdout
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def setup(items: list[dict]) -> dict:
    start = time.perf_counter()
    from solvhodge.specfile import load_spec

    for item in items:
        load_spec(item["file"])
    return {"seconds": time.perf_counter() - start}


def run(items: list[dict], spans_path: str | None) -> dict:
    import solvhodge.cli as cli

    recorder = None
    if spans_path is not None:
        import tracer

        recorder = tracer.Recorder()
        tracer.install(recorder)
    results = []
    for index, item in enumerate(items):
        argv = ["analyze", item["file"], "--format", "json", *item["flags"]]
        if recorder is not None:
            recorder.spec = index
        out = io.StringIO()
        error = None
        start = time.perf_counter()
        try:
            with redirect_stdout(out):
                code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:  # one spec's crash is counted as its failure; the round goes on
            code, error = None, traceback.format_exc()
        seconds = time.perf_counter() - start
        results.append({"code": code, "stdout": out.getvalue(), "seconds": seconds, "error": error})
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if recorder is not None:
        Path(spans_path).write_text(json.dumps(recorder.dump()))
    return {"results": results, "peak_rss_mb": peak_kib / 1024.0}


def main(argv: list[str]) -> int:
    mode, manifest = argv[0], json.loads(Path(argv[1]).read_text())
    if mode == "setup":
        print(json.dumps(setup(manifest)))
    else:
        result = run(manifest, argv[3] if len(argv) > 3 else None)
        Path(argv[2]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
