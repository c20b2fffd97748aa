"""Flat-enumeration oracle for the explorer, and the model families it
checks.

Enumerates the full cartesian product of every choice domain over the
longest schedule the model can draw on up to the bound, runs vectors
through the reference of `_reference.py` alone, `reference_initial` and
then `reference_step` at every iteration, also where the engine's
`run_path` has found the path settled and ended it, repeating its state,
evaluates the assertions with its own code on every state, and reports
what an exhaustive search must find.  A run is decided by the values it
draws, so the product's vectors that begin with the prefix of it that the
run before them consumed run that same path, and are skipped: the paths
are the distinct consumed prefixes, in the product's order, which is depth
first in declared domain order.  Most families draw on a fixed schedule,
each step point once per iteration, so every run consumes its whole
vector, and the oracle checks that the draws came from the vector's points
in order.  A variable-schedule model decides at each draw which point it
draws next, or none, and every step point of it shares one domain, so any
vector value is a candidate of the point that takes it: the oracle checks
that its initialisation points are drawn first, in order, and that no run
draws past the longest schedule.  It shares only `run_path` with the
engine, which steps by the `_step` `explore`'s walk takes, and calls it
through the engine's module, so a stand-in put there for a test is what it
checks: on every path it runs, `run_path` must give the reference's
states, with their values' types, its draws and its violations, or raise
where the reference raises, with its message.  A vector whose reference
run raises a ModelError ends the search there, as a failing path ends
`explore`.

`FAMILIES` names each family of generated models the oracle checks: its
generator, its seeds and the pinned count of each outcome.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Callable

from hilcheck import engine
from hilcheck.engine import Model, ModelError

from _modelgen import (GeneratedModel, generate, generate_cycling,
                       generate_declared_reads, generate_mixed_types,
                       generate_variable_schedule, generate_write_path)
from _reference import State, reference_initial, reference_step


@dataclass(frozen=True)
class OracleResult:
    kind: str                      # "Safe", "Unsafe" or "ModelError"
    # paths a depth-first search runs: every vector for a safe model; for an
    # unsafe one, or one whose step raises, each vector before the first
    # violating or raising one (each a full-length safe path) plus that one
    paths: int
    failed: str | None = None
    violation_iteration: int | None = None
    choice_log: tuple = ()
    first_trace: tuple = ()
    message: str | None = None     # the reference's, for a ModelError


@dataclass(frozen=True)
class Family:
    make: Callable[[int], GeneratedModel]
    seeds: range
    outcomes: dict[str, int]       # how many models end in each kind


FAMILIES = {
    "random": Family(generate, range(220),
                     {"Safe": 33, "Unsafe": 187, "ModelError": 0}),
    # saturating models run to a bound of 6 to 10, so most of their paths
    # settle into a fixed point well before it
    "settling": Family(functools.partial(generate, max_runs=128,
                                         settling=True), range(100),
                       {"Safe": 32, "Unsafe": 68, "ModelError": 0}),
    # half of them end a run where an update draws through a context that
    # must refuse it
    "write-path": Family(generate_write_path, range(60),
                         {"Safe": 12, "Unsafe": 19, "ModelError": 29}),
    "raising": Family(functools.partial(generate, raising=True), range(100),
                      {"Safe": 1, "Unsafe": 75, "ModelError": 24}),
    # draw-free paths that come back to their initial valuation
    "cycling": Family(generate_cycling, range(60),
                      {"Safe": 36, "Unsafe": 24, "ModelError": 0}),
    # one assertion, failing only past a depth where two residues meet, so
    # most failing paths come after a backtrack
    "late-failing": Family(functools.partial(generate, late_failing=True),
                           range(100),
                           {"Safe": 37, "Unsafe": 63, "ModelError": 0}),
    # one-bit variables and two or three step points, so distinct draws
    # often reach equal states, whose subtrees `explore` counts once
    "repeating": Family(functools.partial(generate, max_runs=128,
                                          repeating=True), range(50),
                        {"Safe": 40, "Unsafe": 10, "ModelError": 0}),
    # late-failing ones whose updates each write one of two variables of
    # their group, as their input says, so a row's table holds equal
    # values written to different variables
    "conditional-writes": Family(functools.partial(generate,
                                                   late_failing=True,
                                                   conditional=True),
                                 range(100),
                                 {"Safe": 42, "Unsafe": 58, "ModelError": 0}),
    # updates that declare a subset of their groups' variables, or none,
    # and read only those, some of them only on some inputs, so a row's
    # table is keyed by what it declares
    "declared-reads": Family(generate_declared_reads, range(100),
                             {"Safe": 69, "Unsafe": 31, "ModelError": 0}),
    # drawing updates whose next point, or none, depends on their input
    # and on what they drew before in the call, all points of one domain
    "variable-schedule": Family(generate_variable_schedule, range(100),
                                {"Safe": 43, "Unsafe": 57, "ModelError": 0}),
    # symbolic domains of int, IntEnum and bool members, and updates that
    # weigh a value by its type; a third end where an update writes a
    # value equal to a member of another type
    "mixed-types": Family(generate_mixed_types, range(100),
                          {"Safe": 31, "Unsafe": 32, "ModelError": 37}),
}


def violations(model: Model, state) -> tuple[str, ...]:
    return tuple(a.assert_id for a in model.assertions
                 if not a.predicate(state))


def typed(states) -> list:
    """Each state's iteration and values, the values compared with their
    types, as neither 1 nor True is the other's domain's member."""
    return [(s.iteration, [(type(v), v) for v in s.values]) for s in states]


def run_vector(model: Model, bound: int, points, vector,
               variable: bool = False):
    """Run one fully decided path through the reference; stop at the first
    violating iteration, or at a step that raises ModelError, whose message
    is returned as `raised`.  The run must draw no more values than
    `points` holds, from `points` in order, or, on a `variable` schedule,
    from its initialisation points first, and `run_path` must agree with
    it."""
    values = iter(vector)
    initial, log = reference_initial(model, values)
    trace = [State(model, initial, 0)]
    log = list(log)
    violated = violations(model, trace[0])
    raised = None
    while not violated and trace[-1].iteration < bound:
        try:
            stepped, drawn = reference_step(model, trace[-1], values)
        except ModelError as exc:
            raised = str(exc)
            break
        trace.append(State(model, stepped, trace[-1].iteration + 1))
        log.extend(drawn)
        violated = violations(model, trace[-1])
    drew = [entry.point_id for entry in log]
    if len(drew) > len(points):
        raise AssertionError(f"the reference drew {drew}, past the "
                             f"{len(points)} values of the longest schedule")
    if variable:   # its initialisation draws, then any step points
        drew = [entry.point_id for entry in log if entry.iteration == 0]
    expected = [cp.point_id for cp in points[:len(drew)]]
    if drew != expected:
        raise AssertionError(f"the reference drew {drew}, "
                             f"the oracle expected {expected}")
    try:
        ran = engine.run_path(model, bound, vector)
    except ModelError as exc:
        # the engine's message goes on to say at which iteration
        if raised is None or not str(exc).startswith(raised):
            raise AssertionError(f"run_path of {vector} raised {exc}, the "
                                 f"reference {raised}") from None
    else:
        if raised is not None:
            raise AssertionError(f"the reference raised {raised} on {vector}, "
                                 "run_path did not")
        if (typed(ran[0]), ran[1:]) != (typed(trace), (tuple(log), violated)):
            raise AssertionError(f"run_path of {vector} disagrees with the "
                                 "reference")
    return tuple(trace), tuple(log), violated, raised


def flat_check(model: Model, bound: int, init_points, step_points,
               variable: bool = False) -> OracleResult:
    """What a search of the model must find: `step_points` are the points
    of one iteration's longest schedule, drawn on it as it stands unless
    the model's schedule is `variable`."""
    points = list(init_points) + list(step_points) * bound
    first = None
    paths = 0
    consumed = None   # the prefix the last run drew
    for vector in itertools.product(*(cp.domain for cp in points)):
        if consumed is not None and vector[:len(consumed)] == consumed:
            continue   # that run again
        paths += 1
        trace, log, violated, raised = run_vector(model, bound, points,
                                                  vector, variable)
        consumed = vector[:len(log)]
        if raised is not None:
            return OracleResult(kind="ModelError", paths=paths,
                                message=raised)
        if violated:
            return OracleResult(kind="Unsafe", paths=paths,
                                failed=violated[0],
                                violation_iteration=trace[-1].iteration,
                                choice_log=log, first_trace=trace)
        if first is None:
            first = trace, log
    return OracleResult(kind="Safe", paths=paths,
                        choice_log=first[1], first_trace=first[0])
