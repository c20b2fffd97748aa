"""Driver-behaviour unit tests: reaction time, fatigue, perception."""

from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

from hilcheck.behaviour import (FatigueLevel, InputMode, IntegratorOp,
                                hp_function, integrate,
                                perception_from_fatigue, set_driver_fatigue,
                                set_reaction_time, time_severity)
from hilcheck.scenarios import SCENARIOS

# the case study's values, as the ideal preset sets them
IDEAL = SCENARIOS["ideal"]
THRESHOLDS = (IDEAL.tired_after, IDEAL.exhausted_after)
MAX_HP = IDEAL.max_hp

LEVELS = (FatigueLevel.Normal, FatigueLevel.Tired, FatigueLevel.Exhausted)
MODES = (InputMode.MultiModal, InputMode.GamePad, InputMode.Speech)
OPS = (IntegratorOp.Max, IntegratorOp.Min, IntegratorOp.Sum,
       IntegratorOp.RoundedMean)


def test_reaction_time_default_table():
    expected = {
        InputMode.MultiModal: (1, 2, 3),
        InputMode.GamePad: (2, 4, 6),
        InputMode.Speech: (3, 6, 9),
    }
    for mode, row in expected.items():
        assert tuple(set_reaction_time(mode, level, IDEAL)
                     for level in LEVELS) == row


def test_reaction_time_strictly_increases_with_fatigue():
    # all nine (mode, worse-fatigue) pairs
    for mode in MODES:
        for a in LEVELS:
            for b in LEVELS:
                if a.value < b.value:
                    assert set_reaction_time(mode, a, IDEAL) \
                        < set_reaction_time(mode, b, IDEAL)


def test_reaction_time_respects_mode_ordering():
    for level in LEVELS:
        multi = set_reaction_time(InputMode.MultiModal, level, IDEAL)
        pad = set_reaction_time(InputMode.GamePad, level, IDEAL)
        speech = set_reaction_time(InputMode.Speech, level, IDEAL)
        assert multi < pad < speech


@given(fast=st.integers(1, 5), spread1=st.integers(1, 4),
       spread2=st.integers(1, 4), n=st.integers(1, 3),
       dt=st.integers(0, 3), de=st.integers(0, 3))
def test_reaction_time_monotone_for_any_valid_profile(fast, spread1, spread2,
                                                      n, dt, de):
    config = replace(IDEAL, fast=fast, okay=fast + spread1,
                     slow=fast + spread1 + spread2,
                     n_factor=n, t_factor=n + dt, e_factor=n + dt + de)
    for mode in MODES:
        times = [set_reaction_time(mode, level, config) for level in LEVELS]
        assert times[0] <= times[1] <= times[2]


def test_reaction_profile_validation():
    with pytest.raises(ValueError, match="0 < fast < okay < slow"):
        replace(IDEAL, fast=2, okay=2, slow=3)
    with pytest.raises(ValueError, match="0 < fast < okay < slow"):
        replace(IDEAL, fast=0)
    with pytest.raises(ValueError, match="non-decreasing"):
        replace(IDEAL, n_factor=2, t_factor=1)
    with pytest.raises(ValueError, match="non-decreasing"):
        replace(IDEAL, n_factor=0)


def test_time_severity_thresholds():
    assert [time_severity(t, *THRESHOLDS) for t in range(10)] \
        == [0, 0, 0, 0, 1, 1, 1, 1, 2, 2]
    assert time_severity(100, *THRESHOLDS) == 2
    with pytest.raises(ValueError):
        time_severity(-1, *THRESHOLDS)
    with pytest.raises(ValueError):
        time_severity(1, tired_after=5, exhausted_after=5)


def test_integrate_plain_cases():
    assert integrate(IntegratorOp.Max, 1, 2) == 2
    assert integrate(IntegratorOp.Min, 1, 2) == 1
    assert integrate(IntegratorOp.Sum, 1, 2) == 2      # clamped to Exhausted
    assert integrate(IntegratorOp.Sum, 1, 0) == 1
    assert integrate(IntegratorOp.RoundedMean, 0, 1) == 1   # rounds up
    assert integrate(IntegratorOp.RoundedMean, 0, 2) == 1
    assert integrate(IntegratorOp.RoundedMean, 2, 2) == 2


def test_integrate_rejects_negative_severity():
    with pytest.raises(ValueError):
        integrate(IntegratorOp.Max, -1, 0)
    with pytest.raises(ValueError, match="unknown integrator 'Max'"):
        integrate("Max", 1, 1)


@given(a=st.integers(0, 5), b=st.integers(0, 5))
def test_integrate_bounds_and_ordering(a, b):
    results = {op: integrate(op, a, b) for op in OPS}
    for value in results.values():
        assert 0 <= value <= FatigueLevel.Exhausted.value
    assert results[IntegratorOp.Min] <= results[IntegratorOp.RoundedMean] \
        <= results[IntegratorOp.Max] <= results[IntegratorOp.Sum]


@given(a=st.integers(0, 5), b=st.integers(0, 5))
def test_integrate_is_commutative(a, b):
    for op in OPS:
        assert integrate(op, a, b) == integrate(op, b, a)


def test_fatigue_monotone_under_every_integrator():
    """More time and worse terrain never lower the fatigue level."""
    for op in OPS:
        for t1 in range(13):
            for t2 in range(t1, 13):
                for s1 in range(3):
                    for s2 in range(s1, 3):
                        low = set_driver_fatigue(t1, s1, op, *THRESHOLDS)
                        high = set_driver_fatigue(t2, s2, op, *THRESHOLDS)
                        assert low.value <= high.value, (op, t1, t2, s1, s2)


def test_fatigue_levels_reachable():
    def fatigue(time_driven, terrain, op):
        return set_driver_fatigue(time_driven, terrain, op, *THRESHOLDS)

    assert fatigue(0, 0, IntegratorOp.Max) is FatigueLevel.Normal
    assert fatigue(4, 0, IntegratorOp.Max) is FatigueLevel.Tired
    assert fatigue(8, 0, IntegratorOp.Max) is FatigueLevel.Exhausted
    assert fatigue(4, 1, IntegratorOp.Sum) is FatigueLevel.Exhausted
    assert fatigue(8, 0, IntegratorOp.Min) is FatigueLevel.Normal


def test_hp_function_clamps():
    assert hp_function(7, MAX_HP) == 5
    assert hp_function(-2, MAX_HP) == 0
    assert hp_function(3, MAX_HP) == 3
    assert hp_function(9, max_hp=2) == 2
    with pytest.raises(ValueError):
        hp_function(1, max_hp=0)


def test_perception_ladder():
    assert [perception_from_fatigue(level, MAX_HP)
            for level in LEVELS] == [5, 3, 1]
    assert perception_from_fatigue(FatigueLevel.Exhausted, max_hp=3) == 0
