"""Outside-in tracing: spans around calls into hilcheck's public functions.

Nothing inside the program is changed.  The tracer

* wraps the registered model's nine update functions and its assertion
  predicates with `dataclasses.replace` on the `Model`,
* swaps the names that callers import (`hilcheck.scenarios.<fn>` for the
  case-study helpers and `register_model`, `hilcheck.cli.<fn>` for the
  CLI's calls) for wrapped versions while a `Tracer.patched()` block runs,
* counts per-iteration draws through a context proxy that only forwards
  `choose`.

Each span records its name, start, end and parent; self time is derived
from those after the run.  Spans stay in memory until `write_spans`.
Counting work (hashing states for the distinct-state counters) happens after
`explore` returns, outside every span, so it lands in no layer's time.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import time
from dataclasses import dataclass, replace

import hilcheck.cli
import hilcheck.config_io
import hilcheck.engine
import hilcheck.scenarios
import hilcheck.trace_io

# update functions that receive a drawing context as their last argument
DRAWING_UPDATES = ("env_input", "beh_input", "env_output", "beh_output",
                   "env_state", "beh_state")
UPDATE_NAMES = ("env_input", "sys_input", "beh_input", "env_output",
                "sys_output", "beh_output", "env_state", "sys_state",
                "beh_state")

# case-study helpers the scenario's update functions and assertions call
# by their imported name in hilcheck.scenarios
LEAF_FUNCTIONS = ("advance_route", "point_difficulty", "set_driver_fatigue",
                  "set_reaction_time", "perception_from_fatigue",
                  "acc_decide", "apply_command", "compute_safe_stopping",
                  "adaptive_separation")

# spans that open a region; a span belongs to its innermost region
EXPLORE = "engine.explore"
REGIONS = ("cli.main", "config_io.load_config", "scenarios.build_model",
           "engine.register_model", EXPLORE, "trace_io.export_trace",
           "trace_io.read_trace")


@dataclass
class Explored:
    """What one traced `explore` call saw, recorded after it returned."""

    model: object
    verdict: object
    states: list
    draws: int


class _CountingContext:
    """Stands in for the engine's StepContext: forwards `choose` only."""

    __slots__ = ("inner", "draws")

    def __init__(self):
        self.inner = None
        self.draws = 0

    def choose(self, point_id):
        self.draws += 1
        return self.inner.choose(point_id)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.layers: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list = []          # (name index, start, end, parent index)
        self._stack = [-1]
        self._ctx = _CountingContext()
        self._collect: list | None = None
        self.explored: list[Explored] = []
        self.api = self._build_api()

    def reset(self) -> None:
        """Drop the spans and explore records of the previous check."""
        self.spans = []
        self.explored = []

    # -- spans -------------------------------------------------------------

    def wrap(self, fn, name: str, layer: str):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.layers.append(layer)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans = self.spans
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (nid, start, end, parent)

        return traced

    # -- model instrumentation ---------------------------------------------

    def instrument(self, model):
        """The same model with every update function and assertion traced."""
        ctx = self._ctx
        updates = {}
        for name in UPDATE_NAMES:
            traced = self.wrap(getattr(model.updates, name),
                               f"scenarios.update.{name}", "scenarios.update")
            if name in DRAWING_UPDATES:
                def drawing(*args, _traced=traced):
                    ctx.inner = args[-1]
                    return _traced(*args[:-1], ctx)
                updates[name] = drawing
            else:
                updates[name] = traced
        assertions = []
        for i, assertion in enumerate(model.assertions):
            traced = self.wrap(assertion.predicate,
                               f"scenarios.assert.{assertion.assert_id}",
                               "scenarios.assert")
            if i == 0:
                # every evaluated state passes the first assertion once;
                # keep a reference here and hash it after explore returns
                def recording(state, _traced=traced):
                    if self._collect is not None:
                        self._collect.append(state)
                    return _traced(state)
                traced = recording
            assertions.append(replace(assertion, predicate=traced))
        return replace(model, updates=replace(model.updates, **updates),
                       assertions=tuple(assertions))

    # -- public functions ----------------------------------------------------

    def _build_api(self):
        explore = self.wrap(hilcheck.engine.explore, EXPLORE, "engine")
        build = self.wrap(hilcheck.scenarios.build_model,
                          "scenarios.build_model", "scenarios")

        def explore_recorded(model, bound, **kwargs):
            states: list = []
            self._collect = states
            draws_before = self._ctx.draws
            try:
                verdict = explore(model, bound, **kwargs)
            finally:
                self._collect = None
            self.explored.append(Explored(model, verdict, states,
                                          self._ctx.draws - draws_before))
            return verdict

        def build_instrumented(config):
            return self.instrument(build(config))

        return {
            "load_config": self.wrap(hilcheck.config_io.load_config,
                                     "config_io.load_config", "config_io"),
            "build_model": build_instrumented,
            "explore": explore_recorded,
            "export_trace": self.wrap(hilcheck.trace_io.export_trace,
                                      "trace_io.export_trace", "trace_io"),
            "read_trace": self.wrap(hilcheck.trace_io.read_trace,
                                    "trace_io.read_trace", "trace_io"),
            "main": self.wrap(hilcheck.cli.main, "cli.main", "cli"),
        }

    @contextlib.contextmanager
    def patched(self):
        """Route the program's own calls through the traced functions."""
        swaps = [(hilcheck.cli, name, self.api[name])
                 for name in ("load_config", "build_model", "explore",
                              "export_trace")]
        swaps.append((hilcheck.scenarios, "register_model",
                      self.wrap(hilcheck.scenarios.register_model,
                                "engine.register_model", "engine")))
        for name in LEAF_FUNCTIONS:
            fn = getattr(hilcheck.scenarios, name)
            layer = fn.__module__.rsplit(".", 1)[-1]
            swaps.append((hilcheck.scenarios, name,
                          self.wrap(fn, f"{layer}.{name}", layer)))
        saved = [(module, name, getattr(module, name))
                 for module, name, _ in swaps]
        try:
            for module, name, fn in swaps:
                setattr(module, name, fn)
            yield self.api
        finally:
            for module, name, fn in saved:
                setattr(module, name, fn)

    # -- analysis ------------------------------------------------------------

    def breakdown(self) -> dict:
        """Per-span-name totals: {(region, name): [calls, total, self]}.

        Self time is a span's duration minus the durations of its direct
        children.  A span's region is the innermost REGIONS span around it
        (itself included).  Parents are appended before their children, so
        one forward pass settles both.
        """
        spans = self.spans
        region_names = {i for i, n in enumerate(self.names) if n in REGIONS}
        region = [None] * len(spans)
        child = [0.0] * len(spans)
        for i, (nid, start, end, parent) in enumerate(spans):
            if nid in region_names:
                region[i] = self.names[nid]
            elif parent >= 0:
                region[i] = region[parent]
            if parent >= 0:
                child[parent] += end - start
        out: dict = {}
        for i, (nid, start, end, parent) in enumerate(spans):
            entry = out.setdefault((region[i], self.names[nid]), [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += end - start
            entry[2] += end - start - child[i]
        return out

    def layer_of(self, name: str) -> str:
        return self.layers[self._ids[name]]

    def write_spans(self, path, origin: float) -> None:
        """Write the current spans as tab-separated text, times relative to
        `origin` in microseconds: index, name, start, end, parent."""
        with gzip.open(path, "wt", encoding="ascii") as fh:
            fh.write("index\tname\tstart_us\tend_us\tparent\n")
            for i, (nid, start, end, parent) in enumerate(self.spans):
                fh.write(f"{i}\t{self.names[nid]}\t"
                         f"{(start - origin) * 1e6:.3f}\t"
                         f"{(end - origin) * 1e6:.3f}\t{parent}\n")


def distinct_counts(states) -> tuple[int, int]:
    """(distinct (iteration, valuation) pairs, distinct valuations)."""
    valuations = [frozenset(s.valuation.items()) for s in states]
    pairs = {(s.iteration, v) for s, v in zip(states, valuations)}
    return len(pairs), len(set(valuations))
