"""Smoke tests for the scripts under `scripts/`, run as a user runs them."""

import subprocess
import sys
from pathlib import Path

import pytest

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


@pytest.mark.parametrize("script", ["run_all_scenarios.py", "probe_fatigue.py"])
@pytest.mark.parametrize("value, reason", [("1_0", "needs an integer"),
                                           ("0", "needs at least 1")])
def test_bound_takes_a_plain_decimal_of_at_least_one(script, value, reason):
    # the CLI's rule: `1_0` is not 10, and 0 is a usage error, not a run
    proc = run_script(script, "--bound", value)
    assert proc.returncode == 2
    assert f"argument --bound: {reason}" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""
