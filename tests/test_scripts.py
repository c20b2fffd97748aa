"""Smoke tests for the scripts under `scripts/`, run as a user runs them."""

import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(name, *argv):
    return subprocess.run([sys.executable, str(SCRIPTS / name), *argv],
                          capture_output=True, text=True)


def test_run_all_scenarios_prints_every_verdict():
    proc = run_script("run_all_scenarios.py", "--bound", "5")
    assert proc.returncode == 1, proc.stderr   # some scenario is Unsafe
    # scenario -> the row's cells without the timing column
    rows = {cells[0]: cells[1:-1]
            for cells in map(str.split, proc.stdout.splitlines()[2:])}
    assert rows["ideal"] == ["Safe(5)", "4"]
    assert rows["lowered-speed"] == ["Unsafe(FatigueBounded)",
                                     "iteration", "4", "3"]
    assert rows["manual-override"] == ["Unsafe(SeparationMaintained)",
                                       "iteration", "3", "1"]


def test_probe_fatigue_names_the_first_breaking_level():
    proc = run_script("probe_fatigue.py", "--bound", "5")
    assert proc.returncode == 1, proc.stderr   # a level breaks separation
    assert "first breaking level: Exhausted" in proc.stdout.splitlines()
