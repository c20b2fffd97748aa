"""Adaptive cruise control: discrete bang-bang gap regulation.

The controller compares a preset separation against the currently measured
gap to the lead vehicle and issues one of three commands.  Speed moves by at
most one unit per iteration; the gap then evolves by the speed difference to
the lead vehicle.  All quantities are small non-negative integers: the
vehicle itself is just its `(speed, gap)` pair.
"""

from __future__ import annotations

from enum import Enum

from .behaviour import FatigueLevel


class AccCommand(Enum):
    Accelerate = "Accelerate"
    Maintain = "Maintain"
    Decelerate = "Decelerate"

    # members are singletons, so identity hashing is exact and runs in C
    __hash__ = object.__hash__


class ControlMode(Enum):
    Manual = "Manual"
    Engaged = "Engaged"

    # members are singletons, so identity hashing is exact and runs in C
    __hash__ = object.__hash__


# how far one command moves the speed
_SPEED_DELTA = {AccCommand.Accelerate: 1,
                AccCommand.Maintain: 0,
                AccCommand.Decelerate: -1}

# the separation a driver gets on top of the base, in quarters of the base
_EXTRA_QUARTERS = {FatigueLevel.Normal: 0,
                   FatigueLevel.Tired: 1,
                   FatigueLevel.Exhausted: 2}


def acc_decide(preset: int, current_gap: int) -> AccCommand:
    """Pick the command that drives the gap toward the preset.

    A gap below the preset means the car is too close: slow down so the lead
    pulls away.  A gap above it means speed up to close in.  Exactly one of
    the three commands applies to any (preset, gap) pair.
    """
    if current_gap == preset:
        return AccCommand.Maintain
    if current_gap < preset:
        return AccCommand.Decelerate
    return AccCommand.Accelerate


def apply_command(speed: int, gap: int, command: AccCommand,
                  lead_speed: int, max_speed: int) -> tuple[int, int]:
    """One kinematic step: adjust speed by one unit, then move both cars.

    Returns the new (speed, gap).  Speed saturates at 0 and at max_speed.
    The gap changes by how much farther the lead travelled than we did; it
    cannot go below zero (contact or sensor floor).
    """
    if speed < 0 or gap < 0 or lead_speed < 0:
        raise ValueError("speed, gap and lead speed must be non-negative")
    new_speed = min(max_speed, max(0, speed + _SPEED_DELTA[command]))
    return new_speed, max(0, gap + lead_speed - new_speed)


def adaptive_separation(fatigue: FatigueLevel, base: int) -> int:
    """Minimum separation the vehicle must keep, widened as the driver tires.

    A tired driver gets a quarter of the base more, an exhausted one half
    the base more, each rounded up, so the distance never shrinks for a
    worse driver.  base=4 gives the ladder 4 / 5 / 6.
    """
    if base < 1:
        raise ValueError("base separation must be positive")
    return base + (base * _EXTRA_QUARTERS[fatigue] + 3) // 4


def compute_safe_stopping(speed: int, reaction_time: int) -> int:
    """Distance covered before the driver's reaction completes.

    Discrete analogue of reaction-distance: current speed times the reaction
    delay in iterations.  Braking distance proper is absorbed into the
    separation preset, so this term isolates the human part.
    """
    if speed < 0:
        raise ValueError("speed must be non-negative")
    if reaction_time < 0:
        raise ValueError("reaction time must be non-negative")
    return speed * reaction_time

