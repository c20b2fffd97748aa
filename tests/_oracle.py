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
On request it then checks the vector's `run_path`, whose steps take the
views the step before left, against those steps.  A vector whose step
raises a ModelError, with the reference's message, ends the search there,
as a failing path ends `explore`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from hilcheck.engine import Model, ModelError, resolve_initial, run_path, step

from _reference import reference_step


@dataclass(frozen=True)
class OracleResult:
    kind: str                      # "Safe", "Unsafe" or "ModelError"
    runs: int                      # product size (all complete vectors)
    # paths a depth-first search runs: every vector for a safe model; for an
    # unsafe one, or one whose step raises, each vector before the first
    # violating or raising one (each a full-length safe path) plus that one
    paths: int
    failed: str | None = None
    violation_iteration: int | None = None
    choice_log: tuple = ()
    first_trace: tuple = ()


def violations(model: Model, state) -> tuple[str, ...]:
    return tuple(a.assert_id for a in model.assertions
                 if not a.predicate(state))


def typed(values) -> list:
    """Values compared with their types, as neither 1 nor True is the
    other's domain's member."""
    return [(type(v), v) for v in values]


def run_vector(model: Model, bound: int, points, vector,
               check_run_path: bool = False):
    """Run one fully decided path; stop at the first violating iteration,
    or at a step that raises ModelError, reported as `raised`.  The run
    must draw from `points` in order, and no more draws than they hold,
    and each step must agree with the reference step, raising where it
    raises, with its message.  If `check_run_path`, `run_path`, which carries its views from
    step to step, must give the same states, draws and violations."""
    state, log = resolve_initial(model, vector)
    trace = [state]
    log = list(log)
    violated = violations(model, state)
    raised = False
    while not violated and state.iteration < bound:
        # each draw takes one value of the vector
        rest = vector[len(log):]
        try:
            expected = reference_step(model, state, rest)
        except ModelError as exc:
            expected = exc
        try:
            state, drawn = step(model, state, rest)
        except ModelError as exc:
            # the engine's message goes on to say at which iteration
            if not (isinstance(expected, ModelError)
                    and str(exc).startswith(str(expected))):
                raise AssertionError(f"step after iteration {state.iteration} "
                                     f"raised {exc}, the reference "
                                     f"{expected!r}")
            raised = True
            break
        if isinstance(expected, ModelError):
            raise AssertionError(f"the reference raised {expected} at "
                                 f"iteration {state.iteration}, step did not")
        if (typed(state.values), drawn) \
                != (typed(expected[0]), expected[1]):
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
    if not check_run_path:
        return tuple(trace), tuple(log), violated, raised
    try:
        ran = run_path(model, bound, vector)
    except ModelError:
        ran = None
    if raised != (ran is None) or not raised and (
            [(s.iteration, typed(s.values)) for s in ran[0]], ran[1:]) \
            != ([(s.iteration, typed(s.values)) for s in trace],
                (tuple(log), violated)):
        raise AssertionError(f"run_path of {vector} disagrees with its steps")
    return tuple(trace), tuple(log), violated, raised


def flat_check(model: Model, bound: int, init_points, step_points,
               check_run_path: bool = False) -> OracleResult:
    points = list(init_points) + list(step_points) * bound
    runs = 1
    for cp in points:
        runs *= len(cp.domain)
    first_trace = None
    for paths, vector in enumerate(
            itertools.product(*(cp.domain for cp in points)), 1):
        trace, log, violated, raised = run_vector(model, bound, points,
                                                  vector, check_run_path)
        if raised:
            return OracleResult(kind="ModelError", runs=runs, paths=paths)
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
