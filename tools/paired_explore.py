#!/usr/bin/env python3
"""Time `explore` on two hilcheck source trees in one process, in pairs.

Usage: python3 tools/paired_explore.py PARENT_SRC CHANGE_SRC [--pairs N]

PARENT_SRC and CHANGE_SRC are directories that each hold a `hilcheck`
package, such as the `src/` of two checkouts.  Both are loaded in this
process under their own package names, so a slow spell of the host hits
both sides alike.  The configs, `ideal`, `branching` and `route-sweep`,
are the first run of each of the benchmark's workloads
(`perfbench/workloads.py`): a config file read from `perfbench/configs`,
with the workload's overrides applied, an Enum member mapped to the one of
the same name in each tree.

Each pair explores a config once on each side, the side that goes first
alternating from pair to pair; building the model is not timed.  Both
sides must return the same verdict, path count, choice log and trace
values, compared by their trace labels, or the run stops with status 1.
For each config it prints each side's median seconds and the median of
the pairs' change/parent ratios.  It only reads `perfbench/`.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import sys
import time
from dataclasses import replace
from enum import Enum
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
SIDES = ("parent", "change")


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
    """(config stem, Run) of each workload's first run.  The workload
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
    return [(workload.runs[0].config.removesuffix(".cfg"), workload.runs[0])
            for workload in module.WORKLOADS.values()]


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
        config = self.config_io.load_config(PERFBENCH / "configs" / run.config)
        config = replace(config, **{knob: in_tree(value, self.package)
                                    for knob, value in run.overrides})
        return self.scenarios.build_model(config), config.bound

    def explore(self, model, bound: int):
        start = time.perf_counter()
        verdict = self.engine.explore(model, bound)
        return time.perf_counter() - start, verdict

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


def compare(name: str, sides: dict, models: dict, pairs: int) -> bool:
    """Run `pairs` pairs on one config and print its line; False if the
    sides disagree."""
    times = {side: [] for side in SIDES}
    for i in range(pairs):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        summaries = {}
        for side in order:
            elapsed, verdict = sides[side].explore(*models[side])
            times[side].append(elapsed)
            summaries[side] = sides[side].summary(verdict)
        if summaries["parent"] != summaries["change"]:
            print(f"{name}: the sides disagree in pair {i + 1}: "
                  f"parent {summaries['parent'][:5]}, "
                  f"change {summaries['change'][:5]}")
            return False
    ratio = median(c / p for p, c in zip(times["parent"], times["change"]))
    print(f"{name}: parent median {median(times['parent']):.4f} s, "
          f"change median {median(times['change']):.4f} s, "
          f"median change/parent {ratio:.3f} over {pairs} pairs")
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
        models = {side: sides[side].prepare(run) for side in SIDES}
        agreed &= compare(name, sides, models, args.pairs)
    return 0 if agreed else 1


if __name__ == "__main__":
    sys.exit(main())
