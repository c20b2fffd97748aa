"""Flat-enumeration oracle for the explorer.

Enumerates the full cartesian product of every choice domain over the bound
(valid because generated models draw on a fixed schedule), runs each vector
straight through resolve_initial/step with a queue resolver that also checks
each draw comes from the expected point, and reports what an exhaustive
search must find.  It shares only `resolve_initial` and `step` with the
engine: `run_vector` evaluates the assertions with its own code, and steps
every iteration, also where the engine's `run_path` has found the path
settled and repeats its state.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from hilcheck.engine import Model, resolve_initial, step


def queue_resolver(draws):
    """Resolver that hands out pre-decided (point, value) draws in order,
    failing on a draw from any other point than the next one's."""
    queue = list(draws)

    def resolve(cp, iteration):
        if not queue:
            raise AssertionError(f"oracle queue exhausted at {cp.point_id}")
        expected, value = queue.pop(0)
        if cp.point_id != expected.point_id:
            raise AssertionError(f"engine drew {cp.point_id}, oracle "
                                 f"expected {expected.point_id}")
        return value

    return resolve


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


def run_vector(model: Model, bound: int, draws):
    """Run one fully decided path; stop at the first violating iteration."""
    resolver = queue_resolver(draws)
    state, log = resolve_initial(model, resolver)
    trace = [state]
    log = list(log)
    violated = violations(model, state)
    while not violated and state.iteration < bound:
        state, drawn = step(model, state, resolver)
        trace.append(state)
        log.extend(drawn)
        violated = violations(model, state)
    return tuple(trace), tuple(log), violated


def flat_check(model: Model, bound: int, init_points, step_points) -> OracleResult:
    points = list(init_points) + list(step_points) * bound
    runs = 1
    for cp in points:
        runs *= len(cp.domain)
    first_trace = None
    for paths, vector in enumerate(
            itertools.product(*(cp.domain for cp in points)), 1):
        trace, log, violated = run_vector(model, bound, zip(points, vector))
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
