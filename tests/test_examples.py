"""Smoke tests: example scripts run to completion as a user would run them.

Each example runs in a fresh interpreter with ``PYTHONPATH=src`` (no
install), from a scratch working directory, and must exit 0 and print the
line that shows it did its job.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "script, marker",
    [
        # After the preload phase no epoch touches the file system.
        ("datastore_demo.py", "preload epoch 0:    0 file opens"),
        ("ltfb_classifier.py", "final population accuracies"),
    ],
)
def test_example_runs(script, marker, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    proc = subprocess.run(
        [sys.executable, str(REPO / "examples" / script)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert marker in proc.stdout
