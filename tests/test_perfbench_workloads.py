"""Every benchmark run reaches its golden result.

The benchmark rejects a run whose verdict, bound, path count, failed
assertion or witness iteration differs from `perfbench/workloads.py`.  These
tests load each run's config file, apply its overrides and explore it the
same way, so a config or scenario change that would fail the benchmark
fails here first.  They read `perfbench/` and change nothing in it.
"""

import importlib.util
import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from hilcheck.config_io import load_config
from hilcheck.engine import explore
from hilcheck.scenarios import build_model

REPO = Path(__file__).resolve().parent.parent
PERFBENCH = REPO / "perfbench"


def _workloads():
    """perfbench/workloads.py, imported from its file: perfbench is a
    directory of scripts, not a package."""
    module = sys.modules.get("perfbench_workloads")
    if module is None:
        spec = importlib.util.spec_from_file_location(
            "perfbench_workloads", PERFBENCH / "workloads.py")
        module = importlib.util.module_from_spec(spec)
        # dataclasses look their defining module up in sys.modules
        sys.modules[spec.name] = module
        spec.loader.exec_module(module)
    return module


WORKLOADS = _workloads()
RUNS = [pytest.param(run, id=f"{name}-{run.config}")
        for name, workload in WORKLOADS.WORKLOADS.items()
        for run in workload.runs]


@pytest.mark.parametrize("run", RUNS)
def test_run_reaches_its_golden_result(run):
    config = load_config(PERFBENCH / WORKLOADS.CONFIG_DIR / run.config)
    config = replace(config, **dict(run.overrides))
    verdict = explore(build_model(config), config.bound)
    exp = run.expected
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
