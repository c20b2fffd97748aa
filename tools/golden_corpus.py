#!/usr/bin/env python3
"""Write the golden corpus: what `explore` returns for a fixed set of
scenario configs and bounds, one row per (config, bound).

Each row holds the verdict, `paths_explored`, the iteration of the
witness's last state, and the sha256 of the witness's choice log and of its
`format_trace` text.  `tests/test_golden_corpus.py` recomputes every row and
compares it with the committed file, so a change to the engine or the case
study that moves a verdict, a path count, a witness or a trace byte shows
up as a changed row; it also reads each row's trace back.

Usage: PYTHONPATH=src python3 tools/golden_corpus.py [PATH]
(PATH defaults to tests/golden_corpus.txt; with the package installed,
PYTHONPATH is not needed.)  A changed row needs a CHANGES.md line that
explains it.
"""

from __future__ import annotations

import argparse
import hashlib
from dataclasses import replace
from pathlib import Path

from hilcheck.acc import AccCommand
from hilcheck.engine import DEFAULT_PATH_CEILING, explore
from hilcheck.scenarios import SCENARIOS, build_model
from hilcheck.trace_io import format_trace

CORPUS = Path(__file__).resolve().parents[1] / "tests" / "golden_corpus.txt"

PRESET_BOUNDS = (1, 3, 5, 8, 12, 30, 100)
# lowered-speed is safe at these bounds, so all 31,104 paths are walked;
# together they take about 19 s
SLOW_ROWS = {("lowered-speed", 1), ("lowered-speed", 3)}

TWO_COMMANDS = (AccCommand.Maintain, AccCommand.Decelerate)


def corpus_configs():
    """(config, bound) pairs in corpus order."""
    pairs = [(config, bound)
             for name, config in SCENARIOS.items()
             for bound in PRESET_BOUNDS if (name, bound) not in SLOW_ROWS]
    drawn = SCENARIOS["lowered-speed"]
    for length in (1, 2, 3):
        for adaptive in (True, False):
            separation = "adaptive" if adaptive else "fixed"
            config = replace(drawn, name=f"drawn-{length}-{separation}",
                             route_length=length, adaptive_target=adaptive)
            pairs += [(config, bound) for bound in (5, 12)]
    manual = SCENARIOS["manual-override"]
    pairs.append((replace(manual, name="manual-two-commands",
                          command_domain=TWO_COMMANDS), 6))
    # the shapes of the benchmark's branching and route-sweep workloads
    pairs.append((replace(manual, name="branching",
                          command_domain=TWO_COMMANDS), 5))
    pairs.append((replace(drawn, name="route-sweep", route_length=3,
                          separation_only=True), 10))
    return pairs


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def explored(config, bound: int,
             path_ceiling: int = DEFAULT_PATH_CEILING):
    """The model `config` builds, and the verdict `explore` returns for it
    at `bound` and `path_ceiling`."""
    model = build_model(config)
    return model, explore(model, bound, path_ceiling=path_ceiling)


def corpus_row(config, bound: int, model, verdict) -> str:
    """The corpus row of `config` at `bound`, from the `model` and `verdict`
    that `explored` returns for them."""
    log = "".join(f"{e.iteration} {e.point_id} {e.value!r}\n"
                  for e in verdict.choice_log)
    return (f"{config.name} bound={bound} verdict={verdict} "
            f"paths={verdict.paths_explored} "
            f"iter={verdict.trace[-1].iteration} "
            f"log={_sha256(log)} "
            f"trace={_sha256(format_trace(verdict, model, config.name))}")


def corpus_text() -> str:
    return "".join(corpus_row(config, bound, *explored(config, bound)) + "\n"
                   for config, bound in corpus_configs())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Write the golden corpus of explore's verdicts.")
    parser.add_argument("path", nargs="?", type=Path, default=CORPUS,
                        metavar="PATH",
                        help="where to write it (default: "
                        "tests/golden_corpus.txt)")
    path = parser.parse_args(argv).path
    path.write_text(corpus_text(), encoding="ascii")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
