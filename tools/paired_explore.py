#!/usr/bin/env python3
"""Time `explore` on two hilcheck source trees in one process, in pairs.

Usage: python3 tools/paired_explore.py PARENT_SRC CHANGE_SRC [--pairs N]

PARENT_SRC and CHANGE_SRC are directories that each hold a `hilcheck`
package, such as the `src/` of two checkouts.  Both are loaded in this
process under their own package names, so a slow spell of the host hits
both sides alike.  The configs are every run of each of the benchmark's
workloads (`perfbench/workloads.py`): the four presets `ideal`,
`lowered-speed`, `manual-override` and `reaction-probe`, then `branching`
and `route-sweep`, each a config file read from `perfbench/configs`, with
its run's overrides applied, an Enum member mapped to the one of the same
name in each tree.

Each pair sets a config up and explores it once on each side, the side
that goes first alternating from pair to pair.  Set-up is what the
benchmark's `setup_s` times: `load_config`, the overrides and
`build_model`, which registers the model.  A side sets the config up
`BUILDS` times in each pair and counts the fastest, as one cold build is
at the mercy of the host, and explores the last model built.  Both sides
must return the same verdict, path count, choice log and trace values,
compared by their trace labels, or the run stops with status 1.  For each
config it prints two lines, one for `explore` and one for set-up, each
with each side's median seconds and the median of the pairs' change/parent
ratios.  After a config's pairs, each side sets it up and explores it once
more, untimed, under `tracemalloc`, and a third line gives each side's
peak KiB of Python allocations during that `explore` and their ratio, so a
memory cost shows side by side.  Then each side explores it once more,
untimed, with its nine update functions wrapped through
`dataclasses.replace` to count their calls, and its engine's `_draw`,
`_step` and `_eval_assertions`, the one function that draws a value, the
one that takes a step and the one that checks a state, wrapped to count
them.  A fourth line gives each side's update calls, draws, steps and
checked states, so work a change removes, or a value it draws twice or a
node it steps or checks again, shows next to its timings.  It only
reads `perfbench/`.

A change/parent ratio carries a bias of about 1% of the process, whichever
tree is loaded first: two identical trees have read 0.990 and 0.999 on one
config, and one pair of trees 1.024 with the parent given first and 1/1.012
with it second.  So a ratio within 2% of 1.00 says nothing until a second
run, with the trees given in the other order, reads the same way.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import sys
import time
import tracemalloc
from dataclasses import fields, replace
from enum import Enum
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
SIDES = ("parent", "change")
# set-ups a side times per pair, of which the fastest counts
BUILDS = 3


def load_tree(src: Path, name: str):
    """The `hilcheck` package under `src`, imported as package `name`."""
    package = src / "hilcheck"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"no hilcheck package under {src}")
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py",
        submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    # dataclasses and type hints look their defining module up here
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def workload_runs(change_src: Path):
    """(config stem, Run) of every run of each workload.  The workload
    definitions import `hilcheck`; it is taken from `change_src`."""
    sys.path.insert(0, str(change_src))
    name = "paired_explore_workloads"
    module = sys.modules.get(name)
    if module is None:
        spec = importlib.util.spec_from_file_location(
            name, PERFBENCH / "workloads.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
    return [(run.config.removesuffix(".cfg"), run)
            for workload in module.WORKLOADS.values() for run in workload.runs]


def in_tree(value, package: str):
    """`value` with every Enum member replaced by the member of the same
    name of the same class in `package`."""
    if isinstance(value, tuple):
        return tuple(in_tree(item, package) for item in value)
    if isinstance(value, Enum):
        module = importlib.import_module(
            package + value.__class__.__module__.removeprefix("hilcheck"))
        return getattr(module, value.__class__.__qualname__)[value.name]
    return value


class Side:
    """One tree: its modules and, per config, a built model and bound."""

    def __init__(self, src: Path, package: str):
        load_tree(src, package)
        self.package = package
        self.engine = importlib.import_module(package + ".engine")
        self.config_io = importlib.import_module(package + ".config_io")
        self.scenarios = importlib.import_module(package + ".scenarios")

    def prepare(self, run):
        """The seconds set-up took, and the model and bound it gave."""
        start = time.perf_counter()
        config = self.config_io.load_config(PERFBENCH / "configs" / run.config)
        config = replace(config, **{knob: in_tree(value, self.package)
                                    for knob, value in run.overrides})
        model = self.scenarios.build_model(config)
        return time.perf_counter() - start, model, config.bound

    def explore(self, model, bound: int):
        start = time.perf_counter()
        verdict = self.engine.explore(model, bound)
        return time.perf_counter() - start, verdict

    def peak(self, run) -> int:
        """The peak bytes `tracemalloc` traces while one `explore` of the
        run's config, set up first, runs."""
        _, model, bound = self.prepare(run)
        tracemalloc.start()
        try:
            self.engine.explore(model, bound)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def calls(self, run) -> tuple[int, int, int, int]:
        """The update calls, draws, steps and checked states one `explore`
        of the run's config, set up first, makes: the calls counted
        through its nine update functions wrapped with
        `dataclasses.replace`, the rest through the engine's `_draw`,
        `_step` and `_eval_assertions`, wrapped for that `explore`."""
        _, model, bound = self.prepare(run)
        counts = {"calls": 0, "draws": 0, "steps": 0, "states": 0}

        def counting(fn, what: str):
            def counted(*args):
                counts[what] += 1
                return fn(*args)
            return counted

        updates = replace(model.updates, **{
            f.name: counting(getattr(model.updates, f.name), "calls")
            for f in fields(model.updates)})
        engine = self.engine
        wrapped = {"_draw": "draws", "_step": "steps",
                   "_eval_assertions": "states"}
        own = {name: getattr(engine, name) for name in wrapped}
        for name, what in wrapped.items():
            setattr(engine, name, counting(own[name], what))
        try:
            engine.explore(replace(model, updates=updates), bound)
        finally:
            for name, fn in own.items():
                setattr(engine, name, fn)
        return (counts["calls"], counts["draws"], counts["steps"],
                counts["states"])

    def summary(self, verdict) -> tuple:
        """What both sides must agree on, in terms free of either tree's
        classes."""
        label = self.engine.label_of
        return (verdict.kind.value, verdict.bound, verdict.paths_explored,
                verdict.failed_assertion, verdict.message,
                tuple((e.iteration, e.point_id, label(e.value))
                      for e in verdict.choice_log or ()),
                tuple((s.iteration, tuple(map(label, s.values)))
                      for s in verdict.trace or ()))


def report(name: str, times: dict) -> None:
    """Print one line: each side's median of `times` and the median of
    the pairs' change/parent ratios."""
    ratio = median(c / p for p, c in zip(times["parent"], times["change"]))
    print(f"{name}: parent median {median(times['parent']):.4f} s, "
          f"change median {median(times['change']):.4f} s, "
          f"median change/parent {ratio:.3f} "
          f"over {len(times['parent'])} pairs")


def report_memory(name: str, peaks: dict) -> None:
    """Print one line: each side's peak KiB and change/parent."""
    print(f"{name} memory: parent peak {peaks['parent'] / 1024:.1f} KiB, "
          f"change peak {peaks['change'] / 1024:.1f} KiB, "
          f"change/parent {peaks['change'] / peaks['parent']:.3f}")


def report_calls(name: str, calls: dict) -> None:
    """Print one line: each side's update calls, draws, steps and checked
    states per `explore`, each side's an (update calls, draws, steps,
    checked states) tuple."""
    (parent, *parent_work), (change, *change_work) = \
        calls["parent"], calls["change"]
    print(f"{name} update calls: parent {parent:,}, change {change:,} per "
          "explore" + "".join(
              f"; {what}: parent {p:,}, change {c:,}" for what, p, c in zip(
                  ("draws", "steps", "checked states"), parent_work,
                  change_work)))


def compare(name: str, sides: dict, run, pairs: int) -> bool:
    """Run `pairs` pairs on one config, each side's set-up the fastest of
    `BUILDS`, then two untimed `explore`s a side, for its memory and its
    update calls, draws, steps and checked states, and print its four
    lines; False if the sides disagree."""
    times = {side: [] for side in SIDES}
    setups = {side: [] for side in SIDES}
    for i in range(pairs):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        summaries = {}
        for side in order:
            setup = float("inf")
            for _ in range(BUILDS):
                took, model, bound = sides[side].prepare(run)
                setup = min(setup, took)
            elapsed, verdict = sides[side].explore(model, bound)
            setups[side].append(setup)
            times[side].append(elapsed)
            summaries[side] = sides[side].summary(verdict)
        if summaries["parent"] != summaries["change"]:
            print(f"{name}: the sides disagree in pair {i + 1}: "
                  f"parent {summaries['parent'][:5]}, "
                  f"change {summaries['change'][:5]}")
            return False
    report(name, times)
    report(f"{name} set-up", setups)
    report_memory(name, {side: sides[side].peak(run) for side in SIDES})
    report_calls(name, {side: sides[side].calls(run) for side in SIDES})
    return True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_src", type=Path)
    parser.add_argument("change_src", type=Path)
    parser.add_argument("--pairs", type=int, default=11)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs takes a count of at least 1")

    runs = workload_runs(args.change_src.resolve())
    sides = {side: Side(src.resolve(), f"hilcheck_{side}")
             for side, src in zip(SIDES, (args.parent_src, args.change_src))}
    agreed = True
    for name, run in runs:
        agreed &= compare(name, sides, run, args.pairs)
    return 0 if agreed else 1


if __name__ == "__main__":
    sys.exit(main())
