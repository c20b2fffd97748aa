"""Cruise-control unit tests: command trichotomy, kinematics, gap capture."""

import pytest
from hypothesis import given, strategies as st

from hilcheck.acc import (AccCommand, acc_decide, adaptive_separation,
                          apply_command, compute_safe_stopping)
from hilcheck.behaviour import FatigueLevel, InputMode, set_reaction_time
from hilcheck.scenarios import SCENARIOS

# the case study's values, as the ideal preset sets them
IDEAL = SCENARIOS["ideal"]
MAX_SPEED = IDEAL.max_speed


def test_command_trichotomy_exhaustive():
    for preset in range(16):
        for gap in range(16):
            command = acc_decide(preset, gap)
            if gap == preset:
                assert command is AccCommand.Maintain
            elif gap < preset:
                assert command is AccCommand.Decelerate
            else:
                assert command is AccCommand.Accelerate


def test_apply_command_speed_steps_by_one_and_clamps():
    assert apply_command(0, 5, AccCommand.Decelerate, 1, MAX_SPEED)[0] == 0
    assert apply_command(10, 5, AccCommand.Accelerate, 1, MAX_SPEED)[0] == 10
    assert apply_command(4, 5, AccCommand.Accelerate, 1, MAX_SPEED)[0] == 5
    assert apply_command(4, 5, AccCommand.Decelerate, 1, MAX_SPEED)[0] == 3
    assert apply_command(4, 5, AccCommand.Maintain, 1, MAX_SPEED)[0] == 4
    assert apply_command(3, 5, AccCommand.Accelerate, 1, max_speed=4)[0] == 4


def test_apply_command_gap_follows_speed_difference():
    # gap changes by lead movement minus own movement, floored at zero
    assert apply_command(1, 6, AccCommand.Maintain, 1, MAX_SPEED)[1] == 6
    assert apply_command(1, 6, AccCommand.Decelerate, 1, MAX_SPEED)[1] == 7
    assert apply_command(1, 6, AccCommand.Accelerate, 3, MAX_SPEED)[1] == 7
    assert apply_command(9, 2, AccCommand.Accelerate, 0, MAX_SPEED)[1] == 0


def test_apply_command_rejects_negative_lead_speed():
    with pytest.raises(ValueError):
        apply_command(1, 6, AccCommand.Maintain, -1, MAX_SPEED)


@given(speed=st.integers(0, 10), gap=st.integers(0, 30),
       lead=st.integers(0, 10),
       command=st.sampled_from(list(AccCommand)))
def test_apply_command_invariants(speed, gap, lead, command):
    new_speed, new_gap = apply_command(speed, gap, command, lead, MAX_SPEED)
    assert 0 <= new_speed <= MAX_SPEED
    assert abs(new_speed - speed) <= 1
    assert new_gap == max(0, gap + lead - new_speed)


def test_apply_command_rejects_negative_speed_or_gap():
    with pytest.raises(ValueError, match="non-negative"):
        apply_command(-1, 5, AccCommand.Maintain, 1, MAX_SPEED)
    with pytest.raises(ValueError, match="non-negative"):
        apply_command(1, -5, AccCommand.Maintain, 1, MAX_SPEED)


def test_adaptive_separation_ladder():
    assert adaptive_separation(FatigueLevel.Normal, 4) == 4
    assert adaptive_separation(FatigueLevel.Tired, 4) == 5
    assert adaptive_separation(FatigueLevel.Exhausted, 4) == 6
    # each widening is a fraction of the base, rounded up
    for base in range(1, 41):
        assert adaptive_separation(FatigueLevel.Tired, base) \
            == base + (base + 3) // 4
        assert adaptive_separation(FatigueLevel.Exhausted, base) \
            == base + (base + 1) // 2


def test_adaptive_separation_monotone_in_fatigue():
    for base in range(1, 11):
        widths = [adaptive_separation(level, base)
                  for level in (FatigueLevel.Normal, FatigueLevel.Tired,
                                FatigueLevel.Exhausted)]
        assert widths[0] <= widths[1] <= widths[2]
        assert widths[0] == base
        assert widths[1] > base
        if base >= 3:   # below that the two rounded increments coincide
            assert widths[1] < widths[2]


def test_adaptive_separation_rejects_bad_base():
    with pytest.raises(ValueError):
        adaptive_separation(FatigueLevel.Normal, 0)


def test_values_outside_the_enums_raise_key_error():
    with pytest.raises(KeyError):
        apply_command(1, 6, "Accelerate", 1, MAX_SPEED)
    with pytest.raises(KeyError):
        adaptive_separation("Tired", 4)
    # a fatigue level is no int: neither 1 nor 3 is a level
    with pytest.raises(KeyError):
        adaptive_separation(1, 4)
    with pytest.raises(KeyError):
        adaptive_separation(3, 4)
    with pytest.raises(KeyError):
        set_reaction_time(InputMode.Speech, 1, IDEAL)


def test_compute_safe_stopping():
    assert compute_safe_stopping(0, 9) == 0
    assert compute_safe_stopping(3, 2) == 6
    assert compute_safe_stopping(1, 9) == 9
    with pytest.raises(ValueError):
        compute_safe_stopping(-1, 2)
    with pytest.raises(ValueError):
        compute_safe_stopping(1, -2)


def _closed_loop(speed, gap, preset, lead=1, max_speed=10):
    """The (speed, gap) pairs of the vehicle under cruise control."""
    while True:
        yield speed, gap
        speed, gap = apply_command(speed, gap, acc_decide(preset, gap),
                                   lead, max_speed)


def test_gap_enters_band_within_error_budget():
    """From any start the gap reaches preset +/- 1 within
    |gap - preset| + speed + max_speed iterations: the gap error must be
    walked off at one unit per step, after shedding any excess speed first."""
    preset, max_speed = 6, 10
    for speed0 in range(max_speed + 1):
        for gap0 in range(16):
            budget = abs(gap0 - preset) + speed0 + max_speed
            loop = _closed_loop(speed0, gap0, preset, max_speed=max_speed)
            assert any(abs(next(loop)[1] - preset) <= 1
                       for _ in range(budget + 1)), (speed0, gap0)


def test_gap_settles_into_band_permanently():
    """Every trajectory is eventually periodic (finite state, deterministic);
    the cycle it lands in keeps the gap within preset +/- 1.  Transient
    re-exits right after first entry are possible at high approach speeds,
    so containment is asserted on the cycle, not from first entry."""
    preset, max_speed = 6, 10
    for speed0 in range(max_speed + 1):
        for gap0 in range(16):
            seen = {}
            loop = _closed_loop(speed0, gap0, preset, max_speed=max_speed)
            history = []
            for t in range(400):
                key = next(loop)
                if key in seen:
                    cycle = history[seen[key]:]
                    break
                seen[key] = t
                history.append(key)
            else:
                pytest.fail(f"no cycle found from {(speed0, gap0)}")
            assert all(preset - 1 <= gap <= preset + 1 for _, gap in cycle), \
                (speed0, gap0, cycle)


def test_exact_preset_tracking_is_a_fixpoint():
    # speed matching the lead and gap on the preset never moves again
    loop = _closed_loop(1, 6, 6)
    states = [next(loop) for _ in range(10)]
    assert states == [(1, 6)] * 10
