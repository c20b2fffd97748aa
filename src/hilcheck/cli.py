"""Command line entry point.

    hil-check run <scenario> [options]
    hil-check run --config settings.cfg [options]

Exit status: 0 when the run is safe to the bound, 1 when a counterexample
was found, 2 for configuration or model errors.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import replace

from .config_io import ConfigError, at_least_one, load_config, parse_operators
from .engine import DEFAULT_PATH_CEILING, ModelError, VerdictKind, explore
from .scenarios import SCENARIOS, build_model
from .trace_io import export_trace

EXIT_SAFE = 0
EXIT_UNSAFE = 1
EXIT_ERROR = 2


def positive_int(raw: str) -> int:
    """argparse type of every count flag, the scripts' `--bound` too:
    `config_io.at_least_one`, as config files read a count."""
    try:
        return at_least_one(raw)
    except ConfigError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hil-check",
        description="Bounded exhaustive checking of the driver-fatigue "
                    "cruise-control loop.")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="explore one scenario to its bound")
    run.add_argument("scenario", nargs="?", choices=sorted(SCENARIOS),
                     help="a built-in scenario preset")
    run.add_argument("--config", metavar="PATH",
                     help="key=value file describing the run")
    run.add_argument("--bound", type=positive_int, metavar="N",
                     help="iterations to explore (default: scenario's bound)")
    run.add_argument("--operators", metavar="LIST",
                     help="comma-separated fatigue integrators to consider "
                          "(default: scenario's set)")
    run.add_argument("--path-ceiling", type=positive_int, metavar="N",
                     default=DEFAULT_PATH_CEILING,
                     help="abort after this many explored paths")
    run.add_argument("--trace-out", metavar="PATH",
                     help="write the witness path here")
    run.add_argument("--trace-always", action="store_true",
                     help="write the trace even when the run is safe")
    return parser


def _run(args) -> int:
    if (args.scenario is None) == (args.config is None):
        print("give exactly one of a scenario name or --config",
              file=sys.stderr)
        return EXIT_ERROR

    if args.config is not None:
        config = load_config(args.config)
    else:
        config = SCENARIOS[args.scenario]
    if args.operators is not None:
        config = replace(config, operators=parse_operators(args.operators))
    if args.bound is not None:
        config = replace(config, bound=args.bound)

    model = build_model(config)
    started = time.perf_counter()
    verdict = explore(model, config.bound, path_ceiling=args.path_ceiling)
    elapsed = time.perf_counter() - started

    print(f"scenario: {config.name}")
    print(f"verdict: {verdict}")
    if verdict.kind is VerdictKind.Unsafe:
        print(f"failed property: {verdict.failed_assertion}")
        print(f"violation at iteration: {verdict.trace[-1].iteration}")
    if verdict.kind is VerdictKind.ModelError:
        print(f"error: {verdict.message}")
    print(f"paths explored: {verdict.paths_explored}")
    print(f"elapsed: {elapsed:.2f}s")

    if args.trace_out and verdict.trace is not None \
            and (verdict.kind is VerdictKind.Unsafe or args.trace_always):
        export_trace(args.trace_out, verdict, model, config.name)
        print(f"trace written to {args.trace_out}")

    if verdict.kind is VerdictKind.Safe:
        return EXIT_SAFE
    if verdict.kind is VerdictKind.Unsafe:
        return EXIT_UNSAFE
    return EXIT_ERROR


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _run(args)
    except (ConfigError, ModelError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
