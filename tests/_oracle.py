"""Flat-enumeration oracle for the explorer.

Enumerates the full cartesian product of every choice domain over the bound
(valid because generated models draw on a fixed schedule), runs each vector
straight through resolve_initial/step on the vector's values, checks that
the draws came from the vector's points in order, and reports what an
exhaustive search must find.  It shares only `resolve_initial` and `step`
with the engine: `run_vector` evaluates the assertions with its own code,
steps every iteration, also where the engine's `run_path` has found the
path settled and repeats its state, and checks every step against the
reference step of `_reference.py`, which shares none of `step`'s code.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from hilcheck.engine import Model, resolve_initial, step

from _reference import reference_step


@dataclass(frozen=True)
class OracleResult:
    kind: str                      # "Safe" or "Unsafe"
    runs: int                      # product size (all complete vectors)
    # paths a depth-first search runs: every vector for a safe model; for an
    # unsafe one, each vector before the first violating one (each a
    # full-length safe path) plus the violating path itself
    paths: int
    failed: str | None = None
    violation_iteration: int | None = None
    choice_log: tuple = ()
    first_trace: tuple = ()


def violations(model: Model, state) -> tuple[str, ...]:
    return tuple(a.assert_id for a in model.assertions
                 if not a.predicate(state))


def run_vector(model: Model, bound: int, points, vector):
    """Run one fully decided path; stop at the first violating iteration.
    The run must draw from `points` in order, and no more draws than they
    hold, and each step must agree with the reference step."""
    state, log = resolve_initial(model, vector)
    trace = [state]
    log = list(log)
    violated = violations(model, state)
    while not violated and state.iteration < bound:
        # each draw takes one value of the vector
        rest = vector[len(log):]
        expected = reference_step(model, state, rest)
        state, drawn = step(model, state, rest)
        if ([(type(v), v) for v in state.values], drawn) \
                != ([(type(v), v) for v in expected[0]], expected[1]):
            raise AssertionError(f"step to iteration {state.iteration} gave "
                                 f"{state.values} {drawn}, the reference "
                                 f"{expected[0]} {expected[1]}")
        trace.append(state)
        log.extend(drawn)
        violated = violations(model, state)
    drew = [entry.point_id for entry in log]
    expected = [cp.point_id for cp in points[:len(drew)]]
    if drew != expected:
        raise AssertionError(f"engine drew {drew}, oracle expected {expected}")
    return tuple(trace), tuple(log), violated


def flat_check(model: Model, bound: int, init_points, step_points) -> OracleResult:
    points = list(init_points) + list(step_points) * bound
    runs = 1
    for cp in points:
        runs *= len(cp.domain)
    first_trace = None
    for paths, vector in enumerate(
            itertools.product(*(cp.domain for cp in points)), 1):
        trace, log, violated = run_vector(model, bound, points, vector)
        if violated:
            return OracleResult(kind="Unsafe", runs=runs, paths=paths,
                                failed=violated[0],
                                violation_iteration=trace[-1].iteration,
                                choice_log=log, first_trace=trace)
        if first_trace is None:
            first_trace = trace
            first_log = log
    return OracleResult(kind="Safe", runs=runs, paths=runs,
                        choice_log=first_log, first_trace=first_trace)
