"""The benchmark's tracer reaches into the package by name: it swaps
functions on `hilcheck.scenarios` and `hilcheck.cli` and wraps a model's
update functions.  These tests fail when a rename would break a traced
benchmark run."""

import importlib.util
import sys
from dataclasses import replace
from pathlib import Path

import hilcheck.cli
import hilcheck.scenarios
from hilcheck.engine import explore
from hilcheck.scenarios import SCENARIOS, build_model

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing():
    """perfbench/tracing.py, imported from its file: perfbench is a
    directory of scripts, not a package."""
    module = sys.modules.get("perfbench_tracing")
    if module is None:
        spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                      TRACING)
        module = importlib.util.module_from_spec(spec)
        # dataclasses look their defining module up in sys.modules
        sys.modules[spec.name] = module
        spec.loader.exec_module(module)
    return module


def test_every_swapped_name_resolves():
    tracing = _tracing()
    for name in tracing.LEAF_FUNCTIONS + ("register_model",):
        assert callable(getattr(hilcheck.scenarios, name, None)), name
    for name in ("load_config", "build_model", "explore", "export_trace"):
        assert callable(getattr(hilcheck.cli, name, None)), name


def test_instrumented_model_explores_like_the_plain_one():
    tracing = _tracing()
    config = replace(SCENARIOS["ideal"], bound=5)
    plain = explore(build_model(config), 5)

    tracer = tracing.Tracer()
    traced = explore(tracer.instrument(build_model(config)), 5)
    assert (traced.kind, traced.paths_explored, traced.choice_log) \
        == (plain.kind, plain.paths_explored, plain.choice_log)
    assert traced.trace == plain.trace

    # built under the swaps, the model's updates call every leaf function
    # through its traced wrapper
    tracer.reset()
    with tracer.patched() as api:
        model = api["build_model"](config)
        assert api["explore"](model, 5) == plain
    seen = {tracer.names[nid] for nid, *_ in tracer.spans}
    for name in tracing.LEAF_FUNCTIONS:
        assert any(span.endswith("." + name) for span in seen), name
