"""Smoke tests for `tools/paired_explore.py`, which times set-up and
`explore` on two source trees loaded side by side in one process, and
counts each side's update calls, draws, steps and checked states."""

import itertools
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
    assert paired_explore.compare("ideal", sides, run, 2)
    explored, setup, memory, calls = capsys.readouterr().out.splitlines()
    assert explored.startswith("ideal: parent median ")
    assert setup.startswith("ideal set-up: parent median ")
    for line in (explored, setup):
        assert line.endswith(" over 2 pairs")
    assert memory.startswith("ideal memory: parent peak ")
    assert " KiB, change peak " in memory
    # one tree on both sides: the same update calls, 107 on ideal, the
    # same draws, one per initial state, and the same 60 steps and checked
    # states, 4 paths that settle
    assert calls == ("ideal update calls: parent 107, change 107 per "
                     "explore; draws: parent 4, change 4; steps: parent 60, "
                     "change 60; checked states: parent 60, change 60")


def test_a_side_s_peak_is_that_of_its_explore():
    src = ROOT / "src"
    run, = (run for name, run in paired_explore.workload_runs(src)
            if name == "branching")
    side = paired_explore.Side(src, "hilcheck_change")
    peak = side.peak(run)
    # more than the memo of its 700 states holds, far less than 64 MiB
    assert 64 * 1024 < peak < 64 * 1024 * 1024


def test_a_side_s_update_calls_and_draws_are_those_of_its_explore():
    src = ROOT / "src"
    run, = (run for name, run in paired_explore.workload_runs(src)
            if name == "branching")
    side = paired_explore.Side(src, "hilcheck_change")
    # the calls and draws `test_explore` pins for branching at bound 5
    assert side.calls(run)[:2] == (128, 1344)
    # and the engine's own `_draw` is back in place
    assert side.engine._draw.__name__ == "_draw"


def test_a_side_s_steps_and_checked_states_are_those_of_its_explore():
    src = ROOT / "src"
    runs = dict(paired_explore.workload_runs(src))
    side = paired_explore.Side(src, "hilcheck_change")
    # the steps and checked states `test_explore` pins: the memo's walk
    # on branching, and every step of every path on route-sweep
    assert side.calls(runs["branching"])[2:] == (804, 700)
    assert side.calls(runs["route-sweep"])[2:] == (8640, 9504)
    # and the engine's own functions are back in place
    for name in ("_step", "_eval_assertions"):
        assert getattr(side.engine, name).__name__ == name


def test_each_side_s_update_calls_and_draws_are_reported(capsys):
    paired_explore.report_calls("branching", {
        "parent": (926, 1344, 804, 700), "change": (128, 1350, 810, 701)})
    assert capsys.readouterr().out == (
        "branching update calls: parent 926, change 128 per explore; "
        "draws: parent 1,344, change 1,350; steps: parent 804, change 810; "
        "checked states: parent 700, change 701\n")


def test_every_run_of_every_workload_is_timed():
    names = [name for name, run in paired_explore.workload_runs(ROOT / "src")]
    assert names == ["ideal", "lowered-speed", "manual-override",
                     "reaction-probe", "branching", "route-sweep"]


def test_set_up_is_timed_and_builds_the_run_s_model():
    src = ROOT / "src"
    run, = (run for name, run in paired_explore.workload_runs(src)
            if name == "branching")
    side = paired_explore.Side(src, "hilcheck_change")
    setup, model, bound = side.prepare(run)
    assert setup > 0
    assert bound == 5
    assert "driverCommand" in model.choices


def test_each_side_s_median_and_the_median_ratio_are_reported(capsys):
    paired_explore.report("ideal", {"parent": [1.0, 2.0, 4.0],
                                    "change": [0.5, 3.0, 2.0]})
    assert capsys.readouterr().out == (
        "ideal: parent median 2.0000 s, change median 2.0000 s, "
        "median change/parent 0.500 over 3 pairs\n")


def test_each_side_s_peak_and_their_ratio_are_reported(capsys):
    paired_explore.report_memory("ideal", {"parent": 2048, "change": 1536})
    assert capsys.readouterr().out == (
        "ideal memory: parent peak 2.0 KiB, change peak 1.5 KiB, "
        "change/parent 0.750\n")


class _Side:
    """Stands in for a loaded tree whose verdict is a bare path count and
    whose set-ups take each of `setups` seconds in turn."""

    def __init__(self, paths, setups=(0.001,)):
        self.paths = paths
        self.setups = itertools.cycle(setups)

    def prepare(self, run):
        return next(self.setups), None, 5

    def explore(self, model, bound):
        return 0.001, self.paths

    def summary(self, verdict):
        return (verdict,)

    def peak(self, run):
        return 1024

    def calls(self, run):
        return 9, 1, 2, 3


def test_sides_that_disagree_stop_the_run(capsys):
    sides = {"parent": _Side(4), "change": _Side(5)}
    assert not paired_explore.compare("ideal", sides, None, 3)
    assert "disagree in pair 1" in capsys.readouterr().out


def test_a_pair_s_set_up_is_the_fastest_of_its_builds(capsys):
    # each side builds three times a pair, the second build fastest
    assert paired_explore.BUILDS == 3
    sides = {side: _Side(4, (0.003, 0.001, 0.002))
             for side in paired_explore.SIDES}
    assert paired_explore.compare("ideal", sides, None, 2)
    setup = capsys.readouterr().out.splitlines()[1]
    assert setup == ("ideal set-up: parent median 0.0010 s, change median "
                     "0.0010 s, median change/parent 1.000 over 2 pairs")
