"""Smoke runs of the experiment scripts on small inputs."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
SMALL = ["--trips", "300", "--epochs", "1", "--k", "2", "--eval-limit", "6"]


@pytest.mark.parametrize(
    "script, extra",
    [("run_differential.py", []), ("run_pipeline.py", ["--out", "pipeline"])],
)
def test_script_runs(tmp_path, script, extra):
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    result = subprocess.run(
        [sys.executable, str(REPO / "scripts" / script), *SMALL, *extra],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr
