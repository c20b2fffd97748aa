"""Metamorphic relations of `explore` on the case study.

The oracle's flat enumeration needs generated models that draw on a fixed
schedule, and the golden corpus pins answers only at the bounds it lists.
A metamorphic relation needs no expected answer, only two runs that must
agree (Chen, Cheung & Yiu, HKUST-CS98-01, 1998).  The relations here are
checked on the four presets, on lowered-speed with a drawn two-segment
route and on branching, manual-override with two commands to draw at every
iteration, whose search backtracks deep into the steps; at bounds 1 to 6,
lowered-speed itself only from bound 4, as below it the search is Safe
after 31,104 paths.

- Ceiling: a path ceiling of exactly the path count returns the same
  verdict as one of twice that, and a ceiling one less ends in a
  ModelError after exactly as many paths as it allows.
- Bound monotonicity: a config Unsafe at a bound is Unsafe at the next.
- Domain order: reversing `operators`, the candidates of the integrator's
  initialisation choice, or `command_domain`, the candidates of the
  driver's command, keeps the verdict kind and a Safe path count, and the
  new Unsafe witness replays on its own model.

Each verdict a relation starts from is explored once (`explored`), at a
path ceiling of its pinned path count (`PATHS`), so a search that would
walk for ever ends there and fails the relation, instead of running to
the default ceiling.
"""

import functools
from dataclasses import replace

import pytest

from hilcheck.acc import AccCommand
from hilcheck.engine import VerdictKind, explore, replay_counterexample
from hilcheck.scenarios import SCENARIOS, build_model

CONFIGS = {**SCENARIOS,
           "drawn-2": replace(SCENARIOS["lowered-speed"], name="drawn-2",
                              route_length=2),
           "branching": replace(SCENARIOS["manual-override"],
                                name="branching",
                                command_domain=(AccCommand.Maintain,
                                                AccCommand.Decelerate))}
# the knobs whose order the domain-order relation reverses
REVERSED = ("operators", "command_domain")
# each config's path counts at its last bounds up to 6: its own, then
# with each knob of REVERSED reversed in turn
_PINNED = {
    "ideal": [(4, 4, 4)] * 6,
    "lowered-speed": [(3, 2, 3)] * 3,
    "manual-override": [(16, 16, 16), (64, 64, 64), (1, 1, 41),
                        (1, 1, 101), (1, 1, 169), (1, 1, 169)],
    "reaction-probe": [(1, 1, 1)] * 6,
    "drawn-2": [(144, 144, 144)] * 3 + [(11, 10, 11)] * 3,
    "branching": [(12, 12, 12), (36, 36, 36), (108, 108, 108),
                  (324, 324, 324), (972, 972, 972), (322, 322, 79)],
}
PATHS = {(name, bound): counts for name, rows in _PINNED.items()
         for bound, counts in zip(range(7 - len(rows), 7), rows)}
CASES = list(PATHS)


@functools.cache
def explored(name: str, bound: int, reversed_knob: str | None = None):
    """The model of config `name`, the order of its knob `reversed_knob`
    reversed if one is named, and what `explore` returns for it at
    `bound`, at a ceiling of its pinned path count."""
    config = CONFIGS[name]
    counts = PATHS[name, bound]
    paths = counts[0]
    if reversed_knob is not None:
        config = replace(config, **{
            reversed_knob: getattr(config, reversed_knob)[::-1]})
        paths = counts[1 + REVERSED.index(reversed_knob)]
    model = build_model(config)
    return model, explore(model, bound, path_ceiling=paths)


@pytest.mark.parametrize("name, bound", CASES)
def test_a_ceiling_at_the_path_count_changes_nothing_and_one_below_ends_there(
        name, bound):
    model, verdict = explored(name, bound)
    n = PATHS[name, bound][0]
    assert verdict.kind is not VerdictKind.ModelError
    assert verdict.paths_explored == n
    assert explore(model, bound, path_ceiling=2 * n) == verdict
    if n >= 2:
        below = explore(model, bound, path_ceiling=n - 1)
        assert below.kind is VerdictKind.ModelError
        assert "choice explosion" in below.message
        assert below.paths_explored == n - 1


@pytest.mark.parametrize("name, bound",
                         [case for case in CASES if case[1] < 6])
def test_unsafe_at_a_bound_stays_unsafe_at_the_next(name, bound):
    if explored(name, bound)[1].kind is VerdictKind.Unsafe:
        assert explored(name, bound + 1)[1].kind is VerdictKind.Unsafe


@pytest.mark.parametrize("knob", REVERSED)
@pytest.mark.parametrize("name, bound", CASES)
def test_reversing_a_domain_keeps_the_verdict(name, bound, knob):
    _, verdict = explored(name, bound)
    model, reversed_ = explored(name, bound, knob)
    assert reversed_.kind is verdict.kind
    if verdict.kind is VerdictKind.Safe:
        assert reversed_.paths_explored == verdict.paths_explored
    else:
        assert replay_counterexample(model, reversed_) == reversed_.trace


def test_the_cases_exercise_every_relation():
    verdicts = {case: explored(*case)[1] for case in CASES}
    # a ceiling below the path count, on Safe and Unsafe searches
    below = {v.kind for v in verdicts.values() if v.paths_explored >= 2}
    assert below == {VerdictKind.Safe, VerdictKind.Unsafe}
    assert sum(v.paths_explored >= 2 for v in verdicts.values()) == 23
    # a bound where the verdict turns Unsafe
    assert {name for (name, bound), v in verdicts.items()
            if v.kind is VerdictKind.Unsafe
            and (name, bound - 1) in verdicts
            and verdicts[name, bound - 1].kind is VerdictKind.Safe} \
        == {"manual-override", "drawn-2", "branching"}
    # each reversal moves a witness, and the path count of some
    unsafe = {case for case, v in verdicts.items()
              if v.kind is VerdictKind.Unsafe}
    assert len(unsafe) == 11
    for knob, moved, recounted in [
            ("operators", {"manual-override", "branching"},
             {"lowered-speed", "drawn-2"}),
            ("command_domain", {"manual-override", "branching"},
             {"manual-override", "branching"})]:
        reversed_ = {case: explored(*case, knob)[1] for case in unsafe}
        assert {name for (name, bound), r in reversed_.items()
                if r.choice_log != verdicts[name, bound].choice_log} \
            == moved
        assert {name for (name, bound), r in reversed_.items()
                if r.paths_explored != verdicts[name, bound].paths_explored} \
            == recounted
