#!/usr/bin/env python3
"""Sweep the driver's initial fatigue level and report which levels break
the separation property.

The probe fixture pins everything else: cruise control engaged, speech-only
interaction, fatigue held at its initial level for the whole run.  Probing
then answers "from which starting condition is the configured headway
insufficient?" without touching the model's update functions.

Usage: python3 scripts/probe_fatigue.py [--bound N]
"""

import argparse

from hilcheck.acc import compute_safe_stopping
from hilcheck.behaviour import FatigueLevel
from hilcheck.cli import positive_int
from hilcheck.engine import (ChoiceEntry, Group, VerdictKind, explore,
                             log_resolver, probed_model, run_path)
from hilcheck.scenarios import SCENARIOS, build_model


def pinned_outcome(swept, level: FatigueLevel, bound: int):
    """Run one fatigue level to the bound; any unscripted draw is a bug."""
    trace, _, violated = run_path(
        swept, bound, log_resolver([ChoiceEntry(0, "probe:fatigue", level)]))
    return (violated[0] if violated else "safe"), trace[-1]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--bound", type=positive_int, default=100)
    args = parser.parse_args()

    config = SCENARIOS["reaction-probe"]
    swept = probed_model(build_model(config), (Group.BEH_STATE, "fatigue"))
    verdict = explore(swept, args.bound)

    print(f"fixture: {config.name}  bound: {args.bound}")
    print(f"sweep verdict: {verdict}  paths: {verdict.paths_explored}")
    if verdict.kind is not VerdictKind.Unsafe:
        print("no initial fatigue level violates the properties")
        return 0

    broken = [e.value for e in verdict.choice_log
              if e.point_id == "probe:fatigue"]
    print(f"first breaking level: {broken[0].name}")
    print(f"violated: {verdict.failed_assertion} at iteration "
          f"{verdict.trace[-1].iteration}")

    print()
    print("level      outcome               gap  stopping-distance")
    for level in FatigueLevel:
        outcome, final = pinned_outcome(swept, level, args.bound)
        gap = final.value(Group.SYS_STATE, "gap")
        stopping = compute_safe_stopping(
            final.value(Group.SYS_STATE, "speed"),
            final.value(Group.BEH_STATE, "reaction_time"))
        print(f"{level.name:<9}  {outcome:<20}  {gap:>3}  {stopping:>17}")
    return 1


if __name__ == "__main__":
    raise SystemExit(main())
