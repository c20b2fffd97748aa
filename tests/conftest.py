"""Shared test set-up."""

import os
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture(autouse=True, scope="session")
def _children_import_this_checkout():
    """CLI tests start `python -m hilcheck.cli` in a child process; point
    the child at this checkout's sources, as `pythonpath` does for pytest."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", str(SRC), prepend=os.pathsep)
        yield
