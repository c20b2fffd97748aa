#!/usr/bin/env python3
"""Check every built-in scenario and print a verdict table.

Usage: python3 scripts/run_all_scenarios.py [--bound N]
"""

import argparse
import time

from hilcheck.cli import positive_int
from hilcheck.engine import VerdictKind, explore
from hilcheck.scenarios import SCENARIOS, build_model


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--bound", type=positive_int, default=None,
                        help="override every scenario's iteration bound")
    args = parser.parse_args()

    rows = []
    any_unsafe = False
    for name, config in SCENARIOS.items():
        bound = args.bound if args.bound is not None else config.bound
        model = build_model(config)
        started = time.perf_counter()
        verdict = explore(model, bound)
        elapsed = time.perf_counter() - started
        where = ""
        if verdict.kind is VerdictKind.Unsafe:
            any_unsafe = True
            where = f"iteration {verdict.trace[-1].iteration}"
        rows.append((name, str(verdict), where,
                     str(verdict.paths_explored), f"{elapsed:.2f}s"))

    headers = ("scenario", "verdict", "violation", "paths", "time")
    widths = [max(len(headers[i]), *(len(r[i]) for r in rows))
              for i in range(len(headers))]
    line = "  ".join(h.ljust(w) for h, w in zip(headers, widths))
    print(line)
    print("-" * len(line))
    for row in rows:
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    return 1 if any_unsafe else 0


if __name__ == "__main__":
    raise SystemExit(main())
