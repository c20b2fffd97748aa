"""The benchmark's tracer reaches into the package by name: it swaps
functions on `hilcheck.scenarios` and `hilcheck.cli` and wraps a model's
update functions.  These tests fail when a rename would break a traced
benchmark run."""

from dataclasses import replace
from functools import partial
from pathlib import Path

import hilcheck.cli
import hilcheck.scenarios
from hilcheck.engine import explore
from hilcheck.scenarios import SCENARIOS, build_model

from _helpers import load

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"

_tracing = partial(load, "perfbench_tracing", TRACING)


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
