"""Smoke tests: every example script must run green.

Each example is executed as a subprocess (the way users run them) with
a generous timeout; a failing example is a broken deliverable even if
the library's own tests pass.
"""

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parents[2] / "examples"

#: (script, args, substring expected in stdout)
CASES = [
    ("quickstart.py", [], "simulated task latency"),
    ("mimo_beamforming.py", [], "coherence deadline"),
    ("recommender.py", [], "best truncation rank"),
    ("doa_estimation.py", [], "estimated angles"),
    ("subspace_tracking.py", [], "warm updates"),
    ("placement_viewer.py", ["4", "4"], "row 7"),
    ("dse_explorer.py", ["128", "10"], "best latency"),
    ("image_compression.py", [], "randomized top-16"),
    ("energy_analysis.py", [], "stream-bound everywhere"),
]


@pytest.mark.parametrize("script,args,expected", CASES)
def test_example_runs(script, args, expected):
    result = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / script), *args],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    assert expected in result.stdout


def test_all_examples_covered():
    """Every example script has a smoke test (or is known-slow)."""
    known_slow = {"precision_study.py", "paper_reproduction.py"}
    on_disk = {p.name for p in EXAMPLES_DIR.glob("*.py")}
    tested = {script for script, _, _ in CASES}
    assert on_disk - known_slow == tested
