"""The suite's own pytest settings: every warning is an error, yet a failing
hypothesis test is reported like any other failure and the run goes on."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

ONE_FAILING_ONE_PASSING = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n < 0


def test_passes():
    pass
'''


def test_a_failing_given_test_does_not_end_the_run(tmp_path):
    # hypothesis explains a failing example by importing libcst, whose
    # import warns; run from tmp_path so its .hypothesis files land there
    (tmp_path / "test_two.py").write_text(ONE_FAILING_ONE_PASSING)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_two.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout
