"""Flat-enumeration oracle for the explorer.

Enumerates the full cartesian product of every choice domain over the bound
(valid because generated models draw on a fixed schedule), runs each vector
straight through resolve_initial/step with a queue resolver, and reports
what an exhaustive search must find.  No shared code with explore() beyond
the single-step semantics themselves.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from hilcheck.engine import Model, resolve_initial, step


def queue_resolver(values):
    """Resolver that hands out a pre-decided list of values in order."""
    queue = list(values)

    def resolve(cp, iteration):
        if not queue:
            raise AssertionError(f"oracle queue exhausted at {cp.point_id}")
        return queue.pop(0)

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


def run_vector(model: Model, bound: int, vector):
    """Run one fully decided path; stop at the first violating iteration."""
    resolver = queue_resolver(vector)
    state, log = resolve_initial(model, resolver)
    trace = [state]
    log = list(log)
    violated = tuple(a.assert_id for a in model.assertions
                     if not a.predicate(state))
    while not violated and state.iteration < bound:
        result = step(model, state, resolver)
        state = result.state
        trace.append(state)
        log.extend(result.drawn)
        violated = result.violated
    return tuple(trace), tuple(log), violated


def flat_check(model: Model, bound: int, init_domains, step_domains) -> OracleResult:
    all_domains = list(init_domains) + list(step_domains) * bound
    runs = 1
    for dom in all_domains:
        runs *= len(dom)
    first_trace = None
    for paths, vector in enumerate(itertools.product(*all_domains), 1):
        trace, log, violated = run_vector(model, bound, vector)
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
