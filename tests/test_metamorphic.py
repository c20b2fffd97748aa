"""Metamorphic relations of `explore` on the case study.

The oracle's flat enumeration needs generated models that draw on a fixed
schedule, and the golden corpus pins answers only at the bounds it lists.
A metamorphic relation needs no expected answer, only two runs that must
agree (Chen, Cheung & Yiu, HKUST-CS98-01, 1998).  Both relations here are
checked on the four presets and on lowered-speed with a drawn two-segment
route, at bounds 1 to 6; lowered-speed itself only from bound 4, as below
it the search is Safe after 31,104 paths.

- Ceiling: a path ceiling of exactly the path count returns the same
  verdict, and a ceiling one less ends in a ModelError after exactly as
  many paths as it allows.
- Operator order: reversing `operators`, the candidates of the
  integrator's initialisation choice, keeps the verdict kind and a Safe
  path count, and the new Unsafe witness replays on its own model.

Each verdict a relation starts from is explored once (`explored`).
"""

import functools
from dataclasses import replace

import pytest

from hilcheck.engine import VerdictKind, explore, replay_counterexample
from hilcheck.scenarios import SCENARIOS, build_model

CONFIGS = {**SCENARIOS,
           "drawn-2": replace(SCENARIOS["lowered-speed"], name="drawn-2",
                              route_length=2)}
CASES = [(name, bound) for name in CONFIGS for bound in range(1, 7)
         if name != "lowered-speed" or bound >= 4]


@functools.cache
def explored(name: str, bound: int, reversed_operators: bool = False):
    """The model of config `name`, its operators reversed if asked, and
    what `explore` returns for it at `bound`."""
    config = CONFIGS[name]
    if reversed_operators:
        config = replace(config, operators=config.operators[::-1])
    model = build_model(config)
    return model, explore(model, bound)


@pytest.mark.parametrize("name, bound", CASES)
def test_a_ceiling_at_the_path_count_changes_nothing_and_one_below_ends_there(
        name, bound):
    model, verdict = explored(name, bound)
    n = verdict.paths_explored
    assert explore(model, bound, path_ceiling=n) == verdict
    if n >= 2:
        below = explore(model, bound, path_ceiling=n - 1)
        assert below.kind is VerdictKind.ModelError
        assert "choice explosion" in below.message
        assert below.paths_explored == n - 1


@pytest.mark.parametrize("name, bound", CASES)
def test_reversing_the_operators_keeps_the_verdict(name, bound):
    _, verdict = explored(name, bound)
    model, reversed_ = explored(name, bound, reversed_operators=True)
    assert reversed_.kind is verdict.kind
    if verdict.kind is VerdictKind.Safe:
        assert reversed_.paths_explored == verdict.paths_explored
    else:
        assert replay_counterexample(model, reversed_) == reversed_.trace


def test_the_cases_exercise_both_relations():
    verdicts = {case: explored(*case)[1] for case in CASES}
    # a ceiling below the path count, on Safe and Unsafe searches
    below = {v.kind for v in verdicts.values() if v.paths_explored >= 2}
    assert below == {VerdictKind.Safe, VerdictKind.Unsafe}
    assert sum(v.paths_explored >= 2 for v in verdicts.values()) == 17
    # the reversal moves manual-override's witness, and the path count of
    # the witness the drawn routes reach in both orders
    unsafe = {case: explored(*case, True)[1] for case, v in verdicts.items()
              if v.kind is VerdictKind.Unsafe}
    assert len(unsafe) == 10
    assert {name for (name, bound), r in unsafe.items()
            if r.choice_log != verdicts[name, bound].choice_log} \
        == {"manual-override"}
    assert {name for (name, bound), r in unsafe.items()
            if r.paths_explored != verdicts[name, bound].paths_explored} \
        == {"lowered-speed", "drawn-2"}
