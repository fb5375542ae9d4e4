"""The example scripts run to the end on a small grid."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "script, expect",
    [
        ("decay_vs_theory.py", "optimal 0.4342"),
        # the three pieces 1, 4, 0.5 broken at pi/2 and 3 pi/2: half of 0.900755
        ("decay_vs_theory.py", "optimal 0.4504"),
    ],
)
def test_script_exits_cleanly(script, expect):
    out = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), "--n", "64"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert expect in out.stdout
