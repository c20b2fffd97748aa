"""Driver behaviour: fatigue, reaction time, hazard perception.

Fatigue is an ordered three-level scale fed by two severity signals (time
behind the wheel and terrain difficulty) combined through a configurable
two-argument integrator.  Reaction time scales a per-interaction-mode base
latency by a fatigue factor; the three latencies and three factors are
`ScenarioConfig` fields, which also check their order.  Hazard perception
degrades linearly with fatigue on a small bounded health-point scale.
"""

from __future__ import annotations

from enum import Enum
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .scenarios import ScenarioConfig


class FatigueLevel(Enum):
    """Ordered driver fatigue scale; a higher value is worse."""

    Normal = 0
    Tired = 1
    Exhausted = 2

    # members are singletons, so identity hashing is exact and runs in C
    __hash__ = object.__hash__


# the levels in order: a severity 0..2 is its level's index
_LEVELS = tuple(FatigueLevel)


class InputMode(Enum):
    """How the driver interacts with the vehicle controls."""

    GamePad = "GamePad"
    Speech = "Speech"
    MultiModal = "MultiModal"

    # members are singletons, so identity hashing is exact and runs in C
    __hash__ = object.__hash__


class IntegratorOp(Enum):
    """Two-argument combiners for merging severity signals."""

    Max = "Max"
    Min = "Min"
    Sum = "Sum"
    RoundedMean = "RoundedMean"

    # members are singletons, so identity hashing is exact and runs in C
    __hash__ = object.__hash__


_MODE_BASE = {
    InputMode.GamePad: "okay",
    InputMode.Speech: "slow",
    InputMode.MultiModal: "fast",
}

_FATIGUE_FACTOR = {
    FatigueLevel.Normal: "n_factor",
    FatigueLevel.Tired: "t_factor",
    FatigueLevel.Exhausted: "e_factor",
}


def set_reaction_time(mode: InputMode, fatigue: FatigueLevel,
                      config: ScenarioConfig) -> int:
    """Reaction latency in iterations: mode base times fatigue multiplier.

    The base is the config's `fast` (multi-modal), `okay` (game pad) or
    `slow` (speech) latency, the multiplier its `n_factor`, `t_factor` or
    `e_factor`.  Since `ScenarioConfig` keeps both orders, the result is
    monotone in fatigue for a fixed mode and respects the mode ordering for
    a fixed fatigue level.
    """
    base = getattr(config, _MODE_BASE[mode])
    factor = getattr(config, _FATIGUE_FACTOR[fatigue])
    return base * factor


def time_severity(time_driven: int, tired_after: int,
                  exhausted_after: int) -> int:
    """Severity 0/1/2 of accumulated driving time against two thresholds."""
    if time_driven < 0:
        raise ValueError("time driven must be non-negative")
    if not 0 < tired_after < exhausted_after:
        raise ValueError("thresholds must satisfy 0 < tired_after < exhausted_after")
    if time_driven >= exhausted_after:
        return 2
    if time_driven >= tired_after:
        return 1
    return 0


def integrate(op: IntegratorOp, a: int, b: int) -> int:
    """Combine two severity values into one, clamped to the scale 0..2.

    Max and Min never leave the input range so need no clamping; Sum can
    overshoot and is clamped; RoundedMean rounds halves up so a mixed pair
    leans toward the worse signal.
    """
    if a < 0 or b < 0:
        raise ValueError("severity values must be non-negative")
    if op is IntegratorOp.Max:
        result = max(a, b)
    elif op is IntegratorOp.Min:
        result = min(a, b)
    elif op is IntegratorOp.Sum:
        result = a + b
    elif op is IntegratorOp.RoundedMean:
        result = (a + b + 1) // 2
    else:
        raise ValueError(f"unknown integrator {op!r}")
    return min(2, result)


def set_driver_fatigue(time_driven: int, terrain_severity: int,
                       op: IntegratorOp, tired_after: int,
                       exhausted_after: int) -> FatigueLevel:
    """Fatigue from driving time and terrain, merged by the chosen integrator."""
    level = integrate(op, time_severity(time_driven, tired_after, exhausted_after),
                      terrain_severity)
    return _LEVELS[level]


def hp_function(raw: int, max_hp: int) -> int:
    """Clamp a raw health-point value into [0, max_hp]."""
    if max_hp < 1:
        raise ValueError("max_hp must be positive")
    return min(max_hp, max(0, raw))


def perception_from_fatigue(fatigue: FatigueLevel, max_hp: int) -> int:
    """Hazard-perception points remaining at a fatigue level.

    Each fatigue step costs two points off the ceiling: 5 / 3 / 1 when
    max_hp is 5.  Never negative.
    """
    return hp_function(max_hp - 2 * fatigue.value, max_hp)
