"""Smoke tests for `tools/paired_explore.py`, which times `explore` on two
source trees loaded side by side in one process."""

from pathlib import Path

from _helpers import load

ROOT = Path(__file__).resolve().parents[1]
paired_explore = load("paired_explore", ROOT / "tools" / "paired_explore.py")


def test_the_checkout_against_itself_agrees_on_ideal(capsys):
    src = ROOT / "src"
    run, = (run for name, run in paired_explore.workload_runs(src)
            if name == "ideal")
    sides = {side: paired_explore.Side(src, f"hilcheck_{side}")
             for side in paired_explore.SIDES}
    models = {side: (sides[side].prepare(run)[0], 5) for side in sides}
    assert paired_explore.compare("ideal", sides, models, 2)
    line, = capsys.readouterr().out.splitlines()
    assert line.startswith("ideal: parent median ")
    assert line.endswith(" over 2 pairs")


class _Side:
    """Stands in for a loaded tree whose verdict is a bare path count."""

    def __init__(self, paths):
        self.paths = paths

    def explore(self, model, bound):
        return 0.001, self.paths

    def summary(self, verdict):
        return (verdict,)


def test_sides_that_disagree_stop_the_run(capsys):
    sides = {"parent": _Side(4), "change": _Side(5)}
    models = dict.fromkeys(sides, (None, 5))
    assert not paired_explore.compare("ideal", sides, models, 3)
    assert "disagree in pair 1" in capsys.readouterr().out
