#!/usr/bin/env python3
"""Benchmark for hilcheck: verdict-level metrics and an outside-in layer trace.

    python3 perfbench/run.py --workload presets --seed 1 --seconds 30 --trace 0

Run it from anywhere inside a source checkout; it imports hilcheck from the
checkout's `src/` and refuses to run without it.  One process, one thread,
one client in a closed loop: each check starts after the previous one has
finished and been verified against its golden result (see workloads.py).

With `--trace 0` the last line of standard output is a JSON object whose
metrics are the end-to-end ones of BENCHMARK.json; with `--trace 1` they are
the per-layer ones, from checks traced from outside the program (tracing.py)
that alternate with untraced checks.  The line before it holds the run's
metadata (source digest, Python version, CPU count, seed, sample counts,
trace hashes, per-function call counts).  Both lines, and the spans of the
last traced check, are also written under perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
# start-up probes and set-up batches are spread evenly over the check loop,
# so that no single slow spell of the host decides their medians; a batch
# repeats set-up for SETUP_BATCH_SECONDS so that it spans several probes
STARTUP_RUNS = 21
SETUP_BATCHES = 10
SETUP_BATCH_SECONDS = 0.1
TRACED_SETUPS = 25
clock = time.perf_counter


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="presets, branching or route-sweep")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True,
                        help="how long the check loop runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_program():
    """Import hilcheck from this checkout's src/, and nowhere else."""
    package = SRC / "hilcheck"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: no hilcheck sources at {package}")
    sys.path.insert(0, str(SRC))
    import hilcheck
    if Path(hilcheck.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"error: imported hilcheck from {hilcheck.__file__}, "
                         f"not from {package}")


def source_metadata() -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "hilcheck").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    meta = {"src_sha256": digest.hexdigest()}
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.is_file() else ref
        meta["commit"] = ref
    return meta


def startup_probe() -> tuple[tuple[float, float], bool]:
    """Timed interval of one fresh `python -m hilcheck.cli` process, and
    whether it gave the right verdict."""
    env = dict(os.environ, PYTHONPATH="src")
    started = clock()
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "hilcheck.cli", "run", "manual-override"],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=60)
    except subprocess.TimeoutExpired:
        return (started, clock()), False
    ended = clock()
    ok = proc.returncode == 1 \
        and "verdict: Unsafe(SeparationMaintained)" in proc.stdout.splitlines()
    return (started, ended), ok


def tail(samples: list[float]) -> dict | None:
    """The highest percentile with at least ten samples above it."""
    n = len(samples)
    if n < 11:
        return None
    return {"value": sorted(samples)[n - 11],
            "percentile": round(100 * (n - 10) / n, 2), "samples": n}


def declared_metrics(trace: int) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json lists them for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def span_total(spans: dict, name: str, column: int = 1) -> float:
    """Summed duration (column 1) or self time (column 2) of a span name
    over all regions of a `Tracer.breakdown()`."""
    return sum(v[column] for (_, n), v in spans.items() if n == name)


def layer_metrics(tracer, check) -> dict:
    """Per-layer figures of one traced check, in raw seconds."""
    from tracing import EXPLORE, distinct_counts

    spans = tracer.breakdown()
    by_layer: dict[str, list] = {}
    for (region, name), (calls, _, self_s) in spans.items():
        if region == EXPLORE:
            entry = by_layer.setdefault(tracer.layer_of(name), [0, 0.0])
            entry[0] += calls
            entry[1] += self_s

    def total(name):
        return span_total(spans, name)

    def layer(name):
        return by_layer.get(name, [0, 0.0])

    explored = tracer.explored
    states = [s for record in explored for s in record.states]
    steps = sum(1 for s in states if s.iteration > 0)
    init_draws = sum(
        sum(1 for s in r.states if s.iteration == 0) * len(r.model.init_choices)
        for r in explored)
    distinct = [distinct_counts(r.states) for r in explored]
    explore_total = total(EXPLORE)
    named = sum(layer(name)[1] for name in
                ("engine", "scenarios.update", "scenarios.assert",
                 "environment", "behaviour", "acc"))
    figures = {
        "engine.explore_self_s": layer("engine")[1],
        "engine.us_per_step": layer("engine")[1] / steps * 1e6,
        "engine.steps": steps,
        "engine.draws": sum(r.draws for r in explored),
        "engine.init_draws": init_draws,
        "engine.paths": sum(r.verdict.paths_explored for r in explored),
        "engine.states": len(states),
        "engine.states_distinct": sum(d[0] for d in distinct),
        "engine.valuations_distinct": sum(d[1] for d in distinct),
        "engine.useful_ratio": sum(d[0] for d in distinct) / len(states),
        "scenarios.update_s": layer("scenarios.update")[1],
        "scenarios.update_calls": layer("scenarios.update")[0],
        "scenarios.assert_s": layer("scenarios.assert")[1],
        "scenarios.assert_calls": layer("scenarios.assert")[0],
        "trace_io.format_s": total("trace_io.export_trace"),
        "trace_io.bytes": check.trace_bytes,
        "trace_io.read_s": total("trace_io.read_trace")
                           / check.recheck_reps,
        "trace_io.lines": check.trace_lines,
        "layer_sum_share": named / explore_total,
        "explore_span_share": (explore_total / check.explore_wall_s
                               if check.explore_wall_s else 1.0),
    }
    if any(n == "cli.main" for _, n in spans):
        figures["cli.self_s"] = span_total(spans, "cli.main", column=2)
    for name in ("environment", "behaviour", "acc"):
        figures[f"{name}.s"] = layer(name)[1]
        figures[f"{name}.calls"] = layer(name)[0]
    figures["functions"] = {
        name: calls for (region, name), (calls, _, _) in spans.items()
        if region == EXPLORE}
    return figures


def setup_layers(tracer) -> dict:
    """Set-up split of one traced set-up, in raw seconds."""
    spans = tracer.breakdown()
    register = span_total(spans, "engine.register_model")
    return {"config_io.load_s": span_total(spans, "config_io.load_config"),
            "scenarios.build_s":
                span_total(spans, "scenarios.build_model") - register,
            "engine.register_s": register}


def run(args) -> int:
    from checks import PLAIN_API, Bench
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r} "
                         f"(use one of {', '.join(WORKLOADS)})")
    workload = WORKLOADS[args.workload]
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{tag}-{os.getpid()}"
    workdir.mkdir()
    try:
        return measure(args, workload, tag, workdir, Bench(
            workload, args.seed, workdir), PLAIN_API)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workload, tag, workdir, bench, plain_api) -> int:
    from calibrate import INTERVAL_S, SpeedProbe

    problems: list[str] = []
    attempted = failed = 0
    # each sample is (timed (start, end) intervals, repetitions they hold)
    setup, startup, verdict, recheck = [], [], [], []
    paths = startup_runs = 0
    tracer = None
    traced_setups, traced_checks = [], []
    last_spans = None

    def set_up_batch():
        batch, began = [], clock()
        while clock() - began < SETUP_BATCH_SECONDS:
            interval, bench.models = bench.set_up(plain_api)
            batch.append(interval)
        setup.append((batch, len(batch)))

    def start_up():
        nonlocal attempted, failed, startup_runs
        interval, ok = startup_probe()
        attempted += 1
        startup_runs += 1
        if ok:
            startup.append(([interval], 1))
        else:
            failed += 1
            problems.append("startup probe: wrong exit code or verdict")

    def due(total: int) -> int:
        """How many of `total` samples are due by now in the check loop."""
        share = (clock() - started) / args.seconds
        return min(total, 1 + int(total * share))

    # one core for the whole run and its children, so that the speed probe
    # measures the core the timed work runs on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    with SpeedProbe() as probe:
        _, bench.models = bench.set_up(plain_api)
        if workload.via_cli:
            attempted += 1
            reference_problems = bench.compute_references()
            if reference_problems:
                failed += 1
                problems += reference_problems

        if args.trace:
            from tracing import Tracer
            tracer = Tracer()
            with tracer.patched():
                for _ in range(TRACED_SETUPS):
                    tracer.reset()
                    interval, _ = bench.set_up(tracer.api)
                    traced_setups.append(([interval], setup_layers(tracer)))

        started = clock()
        deadline = started + args.seconds
        traced_count = 0
        while not verdict or (tracer and not traced_count) \
                or clock() < deadline:
            if tracer is not None and traced_count < len(verdict):
                tracer.reset()
                with tracer.patched() as api:
                    check = bench.check(api, tracer)
                if workload.via_cli:
                    check.problems += bench.explored_problems(tracer.explored)
                if not check.problems:
                    figures = layer_metrics(tracer, check)
                    if abs(figures["layer_sum_share"] - 1) > 0.03 \
                            or figures["explore_span_share"] < 0.97:
                        check.problems.append(
                            "layer self times do not add up to the explore "
                            f"total: {figures['layer_sum_share']:.4f} of the "
                            f"spans, spans {figures['explore_span_share']:.4f}"
                            " of the wall time")
                    traced_checks.append((check, figures))
                    last_spans = tracer.spans
                traced_count += 1
            else:
                if tracer is None:
                    while len(setup) < due(SETUP_BATCHES):
                        set_up_batch()
                    while startup_runs < due(STARTUP_RUNS):
                        start_up()
                check = bench.check(plain_api)
                verdict.append((check.verdict, 1))
                recheck.append((check.recheck, check.recheck_reps))
                paths += check.paths
            attempted += 1
            if check.problems:
                failed += 1
                problems += check.problems
        if tracer is None:
            while len(setup) < SETUP_BATCHES:
                set_up_batch()
            while startup_runs < STARTUP_RUNS:
                start_up()

    def timed(samples):
        """Raw and host-speed-scaled seconds per repetition of each sample."""
        pairs = [(probe.measure(intervals), reps) for intervals, reps in samples]
        return ([raw / reps for (raw, _), reps in pairs],
                [scaled / reps for (_, scaled), reps in pairs])

    verdict_raw, verdict_s = timed(verdict)
    setup_raw, setup_s = timed(setup)
    recheck_raw, recheck_s = timed(recheck)
    startup_raw, startup_s = timed(startup)
    info = {
        "workload": workload.name,
        "why": workload.why,
        "property_share": workload.property_share,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        **source_metadata(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "checks_untraced": len(verdict),
        "checks_traced": traced_count,
        "samples": {"verdict_s": len(verdict_s), "setup_s": len(setup_s),
                    "recheck_s": len(recheck_s), "startup_s": len(startup_s)},
        "repetitions": {"setup_s": sum(reps for _, reps in setup),
                        "recheck_s": sum(reps for _, reps in recheck)},
        "speed_probe": {"interval_s": INTERVAL_S, "probes": len(probe.starts),
                        "kernel_s_median": median(probe.kernel_s)},
        "raw_median": {name: median(raw) if raw else None
                       for name, raw in (("verdict_s", verdict_raw),
                                         ("setup_s", setup_raw),
                                         ("recheck_s", recheck_raw),
                                         ("startup_s", startup_raw))},
        "verdict_s_tail": tail(verdict_s),
        "error_rate": failed / attempted,
        "trace_sha256": bench.hashes,
        "problems": problems[:20],
    }

    if args.trace:
        values = traced_metrics(info, probe, traced_setups, traced_checks,
                                median(verdict_s))
        if last_spans is not None:
            tracer.spans = last_spans
            tracer.write_spans(OUT / f"spans-{tag}.tsv.gz", origin=started)
    else:
        values = {
            "verdict_s": median(verdict_s),
            "paths_per_s": paths / sum(verdict_s),
            "setup_s": median(setup_s),
            "recheck_s": median(recheck_s),
            "startup_s": median(startup_s) if startup_s else 0.0,
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    # a metric left unmeasured by failed checks reads 0, next to correct=false
    metrics = {name: {"value": values.get(name, 0.0), "unit": unit}
               for name, unit in declared_metrics(args.trace).items()}

    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    (OUT / f"result-{tag}.json").write_text(
        json.dumps({"info": info, "result": result}, indent=1) + "\n")
    for problem in problems[:20]:
        print(f"problem: {problem}", file=sys.stderr)
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def traced_metrics(info, probe, traced_setups, traced_checks,
                   untraced_verdict_s) -> dict:
    """Per-check medians of the traced figures, seconds scaled to host
    speed; `info` gets the figures that are not metrics."""
    per_check = []
    for check, figures in traced_checks:
        raw, scaled = probe.measure(check.verdict)
        scale = scaled / raw
        per_check.append(({k: v if k.endswith("_s")
                           or k == "engine.us_per_step" else v
                           for k, v in figures.items()}, scaled))
    layers = {}
    for key in (per_check[0][0] if per_check else {}):
        if key == "functions":
            continue
        values = [figures[key] for figures, _ in per_check]
        # counts stay whole numbers
        layers[key] = (statistics.median_low(values)
                       if isinstance(values[0], int) else median(values))
    for key in ("config_io.load_s", "scenarios.build_s", "engine.register_s"):
        values = []
        for sample, figures in traced_setups:
            raw, scaled = probe.measure(sample)
            values.append(figures[key] * scaled / raw)
        layers[key] = median(values)
    if per_check:
        layers["trace.overhead"] = (median([s for _, s in per_check])
                                    / untraced_verdict_s)
        info["calls_per_check"] = per_check[-1][0]["functions"]
    for key in ("cli.self_s", "layer_sum_share", "explore_span_share"):
        info[key] = layers.pop(key, None)
    return layers


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    sys.path.insert(0, str(HERE))
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
