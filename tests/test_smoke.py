"""The runtime smoke of ``smoke.py``, run from source, and the CI step that runs it on a plain install."""

import os
import shlex
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).parent
WORKFLOW = TESTS.parent / ".github" / "workflows" / "tests.yml"


def test_runtime_smoke_from_source():
    # -S leaves out site-packages, as a plain install has no test extra
    python = shlex.join([sys.executable, "-S"])
    env = {**os.environ, "PYTHONPATH": str(TESTS.parent / "src")}
    done = subprocess.run(
        [sys.executable, str(TESTS / "smoke.py"), python, python + " -m solvhodge.cli"],
        capture_output=True, text=True, timeout=300, env=env,
    )
    assert done.returncode == 0, done.stdout + done.stderr


def test_ci_runs_the_smoke_only_through_the_script():
    step = WORKFLOW.read_text().split("- name: Runtime smoke without the test extra\n")[1].split("- name:")[0]
    run = step.split("run: |\n")[1].splitlines()
    probes = [line for line in run if "-c" in line.split() or "solvhodge" in line]
    assert len(probes) == 1 and "/tests/smoke.py" in probes[0], run
