"""The examples are executable documentation: each one must run.

Every ``examples/*.py`` that finishes in a few seconds runs here as a
subprocess; the three slow ones run in CI's "Slow examples" step.
"""

import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))

#: 10-35 s each; CI's "Slow examples" step reads this set and runs them.
SLOW = {"campaign_sweep", "design_space_explorer", "fault_injection_sweep"}


@pytest.mark.parametrize(
    "path", [p for p in EXAMPLES if p.stem not in SLOW], ids=lambda p: p.stem
)
def test_example_runs(path, tmp_path):
    done = subprocess.run(
        [sys.executable, str(path)],
        cwd=tmp_path,  # telemetry_tour writes an NDJSON file where it runs
        env={"PYTHONPATH": str(ROOT / "src"), "PYTHONDONTWRITEBYTECODE": "1"},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert "Traceback" not in done.stderr
