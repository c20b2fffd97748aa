"""Every benchmark run reaches its golden result.

The benchmark rejects a run whose verdict, bound, path count, failed
assertion or witness iteration differs from `perfbench/workloads.py`.  These
tests load each run's config file, apply its overrides and explore it the
same way, so a config or scenario change that would fail the benchmark
fails here first.  They read `perfbench/` and change nothing in it.
"""

import json
from dataclasses import replace
from pathlib import Path

import pytest

from hilcheck.config_io import load_config
from hilcheck.engine import explore
from hilcheck.scenarios import build_model

from _helpers import load

REPO = Path(__file__).resolve().parent.parent
PERFBENCH = REPO / "perfbench"

WORKLOADS = load("perfbench_workloads", PERFBENCH / "workloads.py")
RUNS = [pytest.param(run, id=f"{name}-{run.config}")
        for name, workload in WORKLOADS.WORKLOADS.items()
        for run in workload.runs]


@pytest.mark.parametrize("run", RUNS)
def test_run_reaches_its_golden_result(run):
    config = load_config(PERFBENCH / WORKLOADS.CONFIG_DIR / run.config)
    config = replace(config, **dict(run.overrides))
    exp = run.expected
    # at a ceiling of the golden path count, so a search that would walk
    # for ever ends there
    verdict = explore(build_model(config), config.bound,
                      path_ceiling=exp.paths)
    assert (verdict.kind.value, verdict.bound, verdict.paths_explored,
            verdict.failed_assertion) \
        == (exp.kind, exp.bound, exp.paths, exp.failed)
    if exp.iteration is not None:
        assert verdict.trace[-1].iteration == exp.iteration


def test_every_declared_workload_has_runs():
    benchmark = json.loads((REPO / "BENCHMARK.json").read_text())
    assert set(WORKLOADS.WORKLOADS) \
        == {workload["name"] for workload in benchmark["workloads"]}
    assert all(workload.runs for workload in WORKLOADS.WORKLOADS.values())
